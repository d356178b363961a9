from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from bigsqlbench.engine import Sessions
from bigsqlbench.suite import generate_scaled_data, warehouse_schema

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_SUITE = REPO_ROOT / "suites" / "mini"


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds once it has run `code`."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(sorted(sys.modules))"],
        env=env, capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    return set(ast.literal_eval(completed.stdout.splitlines()[-1]))


def package_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "bigsqlbench"}


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


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted (status, body[, headers])."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.requests.append(json.loads(self.rfile.read(length)))
        self.server.headers.append(self.headers)
        status, body, *extra = self.server.script.pop(0)
        payload = json.dumps(body).encode()
        self.send_response(status)
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """A local chat-completions endpoint that serves `script` in order and
    keeps every request body in `requests`."""
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    server.headers = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
