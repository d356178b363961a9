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

from bigsqlbench import engine as engine_module
from bigsqlbench.agent import trace_from_jsonl
from bigsqlbench.engine import Sessions
from bigsqlbench.metrics import EpisodeResult
from bigsqlbench.suite import generate_scaled_data, warehouse_schema

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_SUITE = REPO_ROOT / "suites" / "mini"
# every report format rendered from two_model_episodes()
PINNED_REPORT = Path(__file__).parent / "data" / "report_two_models"
# the fields of an iteration line that differ between runs of one script
CLOCK_FIELDS = ("started_at", "ended_at", "engine_seconds")


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


def episode(model, case_id, rep=0, sf=1.0, indicator=1, precision=1.0,
            t_gold=0.002, t_gen=0.001, t_e2e=0.5, c_e2e=None, exact=True,
            stage_seconds=None, stage_cost=None, generated="SELECT 1",
            golden="SELECT 1"):
    """The one episode factory of the tests; the pinned report files are
    rendered from its defaults.  `c_e2e` is the sum of `stage_cost`, which
    bills a `c_e2e` given alone to the run stage."""
    seconds = stage_seconds or {
        "list": 0.1, "schema": 0.1, "check": 0.2, "run": 0.1, "finalize": 0.0,
    }
    if stage_cost is None:
        default = {"list": 0.002, "schema": 0.002, "check": 0.004, "run": 0.002}
        stage_cost = default if c_e2e is None else {"run": c_e2e}
    return EpisodeResult(
        model=model, case_id=case_id, repetition=rep, scale_factor=sf,
        indicator=indicator, exact=exact, precision=precision, t_gold=t_gold,
        t_gen=t_gen, t_e2e=t_e2e,
        c_e2e=sum(stage_cost.values()) if c_e2e is None else c_e2e,
        outcome="completed", golden_sql=golden,
        generated_sql=generated,
        stage_seconds=seconds,
        stage_cost=stage_cost,
    )


def two_model_episodes():
    fast = [episode("fast", f"q{i}", t_e2e=0.4) for i in range(4)]
    slow = [
        episode("slow", f"q{i}", t_e2e=0.9,
                stage_seconds={"list": 0.2, "schema": 0.2, "check": 0.3,
                               "run": 0.2, "finalize": 0.0},
                stage_cost={"list": 0.006, "schema": 0.006, "check": 0.012,
                            "run": 0.006})
        for i in range(4)
    ]
    return fast + slow


def iteration_line(**fields) -> str:
    """A trace's first iteration line, with `fields` replacing its own."""
    line = {"type": "iteration", "index": 0, "thought": "", "action": None,
            "action_input": {}, "observation": "", "started_at": 0.0,
            "ended_at": 0.0, "engine_seconds": 0.0, "input_tokens": 0,
            "output_tokens": 0, "engine_bytes": 0, "exchanges": []}
    return json.dumps({**line, **fields})


def untimed_trace(text: str) -> str:
    """Trace text `text`, which must read (`trace_from_jsonl`), with each
    line written again without the clock fields: the bytes that two runs of
    one replay script share."""
    trace_from_jsonl(text)
    lines = []
    for line in text.splitlines():
        record = json.loads(line)
        for name in CLOCK_FIELDS:
            record.pop(name, None)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def mismatch_entry(script: Path, index: int) -> None:
    """Give entry `index` of a replay script a fingerprint no request has."""
    entries = [json.loads(line) for line in script.read_text().splitlines()]
    entries[index]["fingerprint"] = "0" * 64
    script.write_text("".join(json.dumps(e) + "\n" for e in entries))


def count_registrations(monkeypatch) -> list:
    """Record every CSV that registration parses."""
    loaded = []
    original = engine_module._create_and_load

    def counting(conn, schema, csv_path):
        loaded.append(csv_path)
        original(conn, schema, csv_path)

    monkeypatch.setattr(engine_module, "_create_and_load", counting)
    return loaded


def snapshot_files() -> set:
    return set(engine_module._snapshot_dir().iterdir())


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


@pytest.fixture
def shop_engine(sessions, mini_suite_dir):
    """The shared session over the mini suite's `shop` database."""
    return sessions.get(mini_suite_dir / "databases" / "shop")


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
