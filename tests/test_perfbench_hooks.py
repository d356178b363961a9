"""The per-layer benchmark finds every function it times.

perfbench's `--trace 1` wraps package functions at the names their callers
look them up by; a hook whose name is gone is skipped and its layer drops
out of the breakdown without an error.  This check keeps renames honest.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

from bigsqlbench.llmclient import ReplayBackend
from bigsqlbench.runner import RunPlan
from tests.conftest import REPO_ROOT


def test_every_perfbench_hook_target_exists():
    # install() patches module attributes for the whole process, so it runs
    # in a child
    code = (
        "import json; from tracing import Tracer, install; "
        "print(json.dumps(install(Tracer())))"
    )
    pythonpath = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


def test_every_benchmark_input_reads(tmp_path, monkeypatch):
    # perfbench writes `"rate": 0` and whole-number prices: a reader that
    # refused them would fail every benchmark run before it started
    spec = importlib.util.spec_from_file_location(
        "workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.build(workload, 1, REPO_ROOT, tmp_path / name)
        plan = RunPlan.from_json_file(inputs.plan)
        assert [b.name for b in plan.backends] == [m.name for m in workload.models]
        scripts = [path for backend in plan.backends
                   for path in sorted(backend.scripts_dir.glob("*.jsonl"))]
        assert scripts
        for path in scripts:
            assert ReplayBackend.from_path(path).entries, path
