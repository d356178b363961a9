from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from bigsqlbench.cli import main

from tests.conftest import REPO_ROOT


def test_cli_imports_without_requests_or_http_stack():
    code = (
        "import sys; sys.modules['requests'] = None; import bigsqlbench.cli; "
        "assert 'urllib.request' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


def test_plan_validate_ok(mini_suite_dir, capsys):
    code = main(["plan", "validate", "--plan", str(mini_suite_dir / "plan.json")])
    assert code == 0
    assert "plan OK" in capsys.readouterr().out


def test_plan_validate_reports_problems(tmp_path, mini_suite_dir, capsys):
    plan = json.loads((mini_suite_dir / "plan.json").read_text())
    plan["suite"] = str(mini_suite_dir)
    plan["pricing"] = str(mini_suite_dir / "pricing.json")
    plan["backends"][0]["model_id"] = "not-priced"
    plan["backends"][0]["scripts_dir"] = str(mini_suite_dir / "replays" / "alpha")
    plan["backends"][1]["scripts_dir"] = str(mini_suite_dir / "replays" / "beta")
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code = main(["plan", "validate", "--plan", str(plan_path)])
    assert code == 1
    assert "INVALID" in capsys.readouterr().out


def test_report_rejects_unknown_format(tmp_path, capsys):
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"episodes": []}))
    code = main(
        ["report", "--records", str(records), "--format", "yaml",
         "--output-dir", str(tmp_path)]
    )
    assert code == 1


def test_report_rejects_empty_records(tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"episodes": []}))
    code = main(
        ["report", "--records", str(records), "--format", "json",
         "--output-dir", str(tmp_path)]
    )
    assert code == 1


def test_data_generate_prints_counts(tmp_path, capsys):
    code = main(
        ["data", "generate", "--scale-factor", "0.001", "--seed", "3",
         "--output-dir", str(tmp_path / "data")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "region: 5 rows" in out
    assert "lineitem: 6000 rows" in out


def test_goldens_materialize_cli(tmp_path, mini_suite_dir, capsys):
    code = main(
        ["goldens", "materialize", "--suite", str(mini_suite_dir),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 0
    assert len(list((tmp_path / "goldens").glob("*.json"))) == 5


def test_goldens_materialize_reports_failed_golden_and_goes_on(
    tmp_path, mini_suite_dir, capsys
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    # compiles, so the suite loads it as usable, but overflows when run
    manifest["cases"][0]["SQL"] = "SELECT abs(-9223372036854775807 - 1) AS x FROM orders"
    (suite / "manifest.json").write_text(json.dumps(manifest))
    code = main(
        ["goldens", "materialize", "--suite", str(suite),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "orders_count: FAILED (case orders_count: golden query failed: "
        "sql execution failed: integer overflow)"
    )
    assert len(lines) == 5
    assert sorted(p.name for p in (tmp_path / "goldens").glob("*.json")) == sorted(
        f"{case['case_id']}@sf1.json" for case in manifest["cases"][1:]
    )


def test_goldens_materialize_reports_denied_goldens_and_goes_on(
    tmp_path, mini_suite_dir, capsys
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    escape = tmp_path / "escape.db"
    # denied when the suite compiles it, and when it runs
    manifest["cases"][0]["SQL"] = f"ATTACH '{escape}' AS m"
    manifest["cases"][1]["SQL"] = f"VACUUM INTO '{escape}'"
    (suite / "manifest.json").write_text(json.dumps(manifest))
    code = main(
        ["goldens", "materialize", "--suite", str(suite),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "orders_count: UNUSABLE (golden sql does not compile: "
        "sql does not compile: not authorized)",
        "category_quantity: FAILED (case category_quantity: golden query failed: "
        "sql execution failed: authorization denied)",
    ]
    assert len(lines) == 5
    assert len(list((tmp_path / "goldens").glob("*.json"))) == 3
    assert not escape.exists()
