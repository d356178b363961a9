"""The per-layer benchmark finds every function it times.

perfbench's `--trace 1` wraps package functions at the names their callers
look them up by; a hook whose name is gone is skipped and its layer drops
out of the breakdown without an error.  This check keeps renames honest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

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
