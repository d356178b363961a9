from __future__ import annotations

from pathlib import Path

import pytest

from bigsqlbench.engine import Sessions
from bigsqlbench.suite import generate_scaled_data, warehouse_schema

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_SUITE = REPO_ROOT / "suites" / "mini"


@pytest.fixture(scope="session")
def sf_tiny_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data_sf0001")
    generate_scaled_data(warehouse_schema(), 0.001, seed=42, out_dir=out)
    return out


@pytest.fixture(scope="session")
def sf_small_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("data_sf001")
    generate_scaled_data(warehouse_schema(), 0.01, seed=42, out_dir=out)
    return out


@pytest.fixture(scope="session")
def mini_suite_dir() -> Path:
    assert MINI_SUITE.is_dir(), f"bundled mini suite missing: {MINI_SUITE}"
    return MINI_SUITE


@pytest.fixture(scope="session")
def sessions() -> Sessions:
    """One owner for the test session: each generated directory registers once."""
    with Sessions() as shared:
        yield shared
