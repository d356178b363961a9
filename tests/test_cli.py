from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bigsqlbench import cli
from bigsqlbench.cli import main
from bigsqlbench.engine import SessionClosedError

from tests.conftest import REPO_ROOT
from tests.test_engine import count_registrations


def test_cli_imports_without_requests_or_http_stack():
    code = (
        "import sys; sys.modules['requests'] = None; import bigsqlbench.cli; "
        "assert 'urllib.request' not in sys.modules; "
        # imported by a run when it starts its workers
        "assert 'multiprocessing' not in sys.modules"
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


def bad_plan_files(tmp_path, mini_suite_dir) -> list[tuple]:
    """(plan path, expected cause) for plans that cannot be read or understood."""
    plan = json.loads((mini_suite_dir / "plan.json").read_text())
    plan.update(suite=str(mini_suite_dir), pricing=str(mini_suite_dir / "pricing.json"))
    cases = [(tmp_path / "absent.json", "No such file or directory")]
    for name, text, cause in [
        ("not_json.json", "{not json", "Expecting property name"),
        ("no_suite.json", json.dumps({k: v for k, v in plan.items() if k != "suite"}),
         "missing key 'suite'"),
        ("bad_value.json", json.dumps({**plan, "repetitions": "two"}),
         "invalid literal for int()"),
        ("no_pricing_file.json", json.dumps({**plan, "pricing": "nowhere.json"}),
         "No such file or directory: '" + str(tmp_path / "nowhere.json")),
        ("list.json", "[]", "'list' object has no attribute 'get'"),
    ]:
        (tmp_path / name).write_text(text)
        cases.append((tmp_path / name, cause))
    return cases


def test_plan_validate_reports_unreadable_plan_files(tmp_path, mini_suite_dir, capsys):
    for path, cause in bad_plan_files(tmp_path, mini_suite_dir):
        assert main(["plan", "validate", "--plan", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"INVALID: plan {path}: ") and cause in out, out


def test_run_reports_unreadable_plan_files(tmp_path, mini_suite_dir, capsys):
    for path, cause in bad_plan_files(tmp_path, mini_suite_dir):
        assert main(["run", "--plan", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"plan invalid: plan {path}: ") and cause in out, out


KEY_ENV = "BIGSQLBENCH_TEST_API_KEY"


def _unset_key(plan, suite, monkeypatch):
    plan["backends"][0].update(
        kind="http-api", endpoint="http://localhost:9/v1", api_key_env=KEY_ENV
    )
    monkeypatch.delenv(KEY_ENV, raising=False)
    return f"backend 'replay-alpha': api_key_env '{KEY_ENV}' is unset or empty"


def _empty_key(plan, suite, monkeypatch):
    expected = _unset_key(plan, suite, monkeypatch)
    monkeypatch.setenv(KEY_ENV, "")
    return expected


def _missing_script(plan, suite, monkeypatch):
    path = suite / "replays" / "beta" / "orders_count.jsonl"
    path.unlink()
    return (
        f"backend 'replay-beta': no replay script for case 'orders_count': "
        f"{path} not found"
    )


def _malformed_script(plan, suite, monkeypatch):
    path = suite / "replays" / "alpha" / "pricey_products.jsonl"
    path.write_text("{not json\n")
    return f"backend 'replay-alpha': replay script {path} failed to load: Expecting"


def _missing_scripts_dir(plan, suite, monkeypatch):
    plan["backends"][0]["scripts_dir"] = "replays/nowhere"
    return "backend 'replay-alpha': replay scripts_dir missing"


def _unpriced_model(plan, suite, monkeypatch):
    plan["backends"][0]["model_id"] = "not-priced"
    return "backend 'replay-alpha' has no pricing entry"


def _unknown_key(plan, suite, monkeypatch):
    plan["max_spend"] = 0.0001  # the CLI flag's spelling, not the plan key
    return f"plan {suite / 'plan.json'}: unknown key 'max_spend'"


def _unknown_pricing_key(plan, suite, monkeypatch):
    pricing = json.loads((suite / "pricing.json").read_text())
    pricing["engine"] = {"mode": "per-second", "rates": 0.5}  # not "rate"
    (suite / "pricing.json").write_text(json.dumps(pricing))
    return f"plan {suite / 'plan.json'}: unknown key 'rates' in engine"


def _script_line_without_exchange(plan, suite, monkeypatch):
    path = suite / "replays" / "alpha" / "orders_count.jsonl"
    path.write_text('{"foo": 1}\n')
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1 is neither a response record nor a meta, iteration or outcome line"
    )


def _negative_max_spend(plan, suite, monkeypatch):
    plan["max_spend_usd"] = -1  # would skip every cell
    return "max_spend_usd must be >= 0, got -1.0"


def _repeated_backend_name(plan, suite, monkeypatch):
    plan["backends"][1]["name"] = "replay-alpha"
    return "backend name 'replay-alpha' is used by 2 backends"


def _repeated_scale_factor(plan, suite, monkeypatch):
    plan["scale_factors"] = [1.0, 1.0]
    return "scale factor 1 is listed 2 times"


@pytest.mark.parametrize(
    "defect",
    [_missing_script, _malformed_script, _missing_scripts_dir, _unpriced_model,
     _unknown_key, _unknown_pricing_key, _script_line_without_exchange,
     _negative_max_spend, _repeated_backend_name, _repeated_scale_factor,
     _unset_key, _empty_key],
    ids=lambda defect: defect.__name__.lstrip("_"),
)
def test_plan_validate_and_run_agree(
    defect, tmp_path, mini_suite_dir, monkeypatch, capsys
):
    """Whatever `plan validate` reports, `run` refuses before it writes anything."""
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    plan = json.loads((suite / "plan.json").read_text())
    plan["output_dir"] = str(tmp_path / "out")
    expected = defect(plan, suite, monkeypatch)
    (suite / "plan.json").write_text(json.dumps(plan))
    plan_path = str(suite / "plan.json")

    assert main(["plan", "validate", "--plan", plan_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID: ") and expected in out, out
    assert main(["run", "--plan", plan_path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("plan invalid: ") and expected in out, out
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_nan_max_spend_flag(tmp_path, mini_suite_dir, capsys):
    plan_path = str(mini_suite_dir / "plan.json")
    out_dir = tmp_path / "out"
    args = ["--output-dir", str(out_dir), "--max-spend", "nan"]
    assert main(["run", "--plan", plan_path, *args]) == 1
    out = capsys.readouterr().out
    assert out == "plan invalid: max_spend_usd must be >= 0, got nan\n"
    assert not out_dir.exists()


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


def test_goldens_materialize_shares_one_session_per_data_directory(
    tmp_path, mini_suite_dir, monkeypatch
):
    loaded = count_registrations(monkeypatch)
    used = []
    materialize_golden = cli.materialize_golden

    def recording(case, engine, **kwargs):
        used.append((case.data_dir, engine))
        return materialize_golden(case, engine, **kwargs)

    monkeypatch.setattr(cli, "materialize_golden", recording)
    code = main(
        ["goldens", "materialize", "--suite", str(mini_suite_dir),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 0
    assert len(used) == 5
    sessions = {id(engine): data_dir for data_dir, engine in used}
    assert sorted(sessions.values()) == [mini_suite_dir / "databases" / "shop"]
    for _, engine in used:
        with pytest.raises(SessionClosedError):
            engine.conn
    assert sorted(p.name for p in loaded) == ["orders.csv", "products.csv"]


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
        "orders_count: UNUSABLE (golden sql is denied: not authorized)",
        "category_quantity: FAILED (case category_quantity: golden query failed: "
        "sql execution failed: authorization denied)",
    ]
    assert len(lines) == 5
    assert len(list((tmp_path / "goldens").glob("*.json"))) == 3
    assert not escape.exists()
