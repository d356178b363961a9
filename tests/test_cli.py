from __future__ import annotations

import json
import math
import shutil

import pytest

from bigsqlbench import cli
from bigsqlbench.cli import main
from bigsqlbench.engine import SessionClosedError

from tests.conftest import (
    PINNED_REPORT,
    REPO_ROOT,
    count_registrations,
    episode,
    iteration_line,
    mismatch_entry,
    modules_after,
    package_modules,
    snapshot_files,
    two_model_episodes,
)


def test_cli_imports_without_requests_or_http_stack():
    modules = modules_after(
        "import sys; sys.modules['requests'] = None\n"
        "from bigsqlbench.cli import main\n"
        "try:\n    main(['--help'])\nexcept SystemExit:\n    pass"
    )
    assert "urllib.request" not in modules
    # imported by a run when it starts its workers
    assert "multiprocessing" not in modules
    # `--help` loads no other module of the package, and no engine
    assert package_modules(modules) == {"bigsqlbench", "bigsqlbench.cli"}
    assert "sqlite3" not in modules


def test_importing_the_package_loads_none_of_its_modules():
    assert package_modules(modules_after("import bigsqlbench")) == {"bigsqlbench"}


def test_every_public_name_resolves_and_is_listed():
    # with `cli`, that loads every module of the package: none may need
    # `requests` or import at its top what only an HTTP call or a worker uses
    modules = modules_after(
        "import sys; sys.modules['requests'] = None\n"
        "import bigsqlbench, bigsqlbench.cli\n"
        "for name in bigsqlbench.__all__:\n"
        "    getattr(bigsqlbench, name)\n"
        "assert set(bigsqlbench.__all__) <= set(dir(bigsqlbench))\n"
        "assert not hasattr(bigsqlbench, 'no_such_name')"
    )
    package = REPO_ROOT / "src" / "bigsqlbench"
    assert package_modules(modules) == {"bigsqlbench"} | {
        f"bigsqlbench.{p.stem}" for p in package.glob("*.py")
        if p.stem not in ("__init__", "__main__")
    }
    assert "urllib.request" not in modules
    assert "multiprocessing" not in modules


def test_report_loads_no_engine_stack(tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps(
        {"episodes": [ep.to_json_dict() for ep in two_model_episodes()]}
    ))
    out = tmp_path / "report"
    modules = modules_after(
        "from bigsqlbench.cli import main\n"
        f"assert main(['report', '--records', {str(records)!r}, "
        f"'--output-dir', {str(out)!r}]) == 0"
    )
    assert package_modules(modules) == {
        "bigsqlbench", "bigsqlbench.cli", "bigsqlbench.metrics", "bigsqlbench.report"
    }
    assert "sqlite3" not in modules
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in PINNED_REPORT.iterdir()
    )
    for path in out.iterdir():
        assert path.read_bytes() == (PINNED_REPORT / path.name).read_bytes(), path.name


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
         "`repetitions` is not an int"),
        ("no_pricing_file.json", json.dumps({**plan, "pricing": "nowhere.json"}),
         "No such file or directory: '" + str(tmp_path / "nowhere.json")),
        ("list.json", "[]", "not a JSON object"),
        ("int_agent.json", json.dumps({**plan, "agent": 5}),
         "`agent` is not a JSON object"),
        ("str_backend.json", json.dumps({**plan, "backends": ["alpha"]}),
         "`backends[0]` is not a JSON object"),
        ("null_sampling.json",
         json.dumps({**plan, "backends": [{**plan["backends"][0], "sampling": None}]}),
         "`backends[0].sampling` is not a JSON object"),
        # values a provider rejects in every request, which would score each
        # episode as the model's llm-error
        *[(f"{key}_{value}.json",
           json.dumps({**plan, "backends": [{**plan["backends"][0],
                                              "sampling": {key: value}}]}),
           f"`backends[0].sampling.{key}` is not null or {what}")
          for key, value, what in [("max_tokens", -1, "an int >= 1"),
                                   ("max_tokens", 0, "an int >= 1"),
                                   ("temperature", math.nan, "a finite number >= 0"),
                                   ("top_p", 7.0, "a number in [0, 1]")]],
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
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1: not JSON: Expecting"
    )


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
    path.write_text('{"type": "foo"}\n')
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1: `type` is not one of meta, iteration, outcome"
    )


def _response_not_an_object(plan, suite, monkeypatch):
    path = suite / "replays" / "alpha" / "orders_count.jsonl"
    path.write_text('{"response": "hello"}\n')
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1: `response` is not a JSON object"
    )


def _exchanges_not_a_list(plan, suite, monkeypatch):
    path = suite / "replays" / "beta" / "orders_count.jsonl"
    meta = '{"type": "meta", "question": "", "model_id": ""}'
    path.write_text(meta + "\n" + iteration_line(exchanges=5) + "\n")
    return (
        f"backend 'replay-beta': replay script {path} failed to load: "
        "line 2: `exchanges` is not a list"
    )


def _usage_not_an_object(plan, suite, monkeypatch):
    path = suite / "replays" / "alpha" / "orders_count.jsonl"
    path.write_text('{"response": {"text": "x"}, "usage": 7}\n')
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1: `usage` is not null or a JSON object"
    )


def _estimated_not_a_boolean(plan, suite, monkeypatch):
    path = suite / "replays" / "alpha" / "orders_count.jsonl"
    path.write_text('{"response": {"text": "x"}, "estimated": "false"}\n')
    return (
        f"backend 'replay-alpha': replay script {path} failed to load: "
        "line 1: `estimated` is not a boolean"
    )


def _int_backend_name(plan, suite, monkeypatch):
    plan["backends"][0]["name"] = 5  # would name a trace directory
    return f"plan {suite / 'plan.json'}: `backends[0].name` is not a string"


def _string_supports_tools(plan, suite, monkeypatch):
    plan["backends"][0]["supports_tools"] = "false"  # bool("false") is True
    return f"plan {suite / 'plan.json'}: `backends[0].supports_tools` is not a boolean"


def _fractional_concurrency(plan, suite, monkeypatch):
    plan["concurrency"] = 2.7
    return f"plan {suite / 'plan.json'}: `concurrency` is not an int"


def _nan_scale_factor(plan, suite, monkeypatch):
    plan["scale_factors"] = [math.nan]  # a record refuses it
    return f"plan {suite / 'plan.json'}: `scale_factors[0]` is not a finite number > 0"


def _negative_scale_factor(plan, suite, monkeypatch):
    plan["scale_factors"] = [1.0, -1]
    return f"plan {suite / 'plan.json'}: `scale_factors[1]` is not a finite number > 0"


def _zero_scale_factor(plan, suite, monkeypatch):
    plan["scale_factors"] = [0]
    return f"plan {suite / 'plan.json'}: `scale_factors[0]` is not a finite number > 0"


def _infinite_token_price(plan, suite, monkeypatch):
    pricing = json.loads((suite / "pricing.json").read_text())
    pricing["models"][0]["input_per_mtok"] = math.inf  # written as `Infinity`
    (suite / "pricing.json").write_text(json.dumps(pricing))
    return (f"plan {suite / 'plan.json'}: `models[0].input_per_mtok` is not a "
            "finite number >= 0")


def _infinite_engine_rate(plan, suite, monkeypatch):
    pricing = json.loads((suite / "pricing.json").read_text())
    pricing["engine"] = {"mode": "per-second", "rate": math.inf}
    (suite / "pricing.json").write_text(json.dumps(pricing))
    return f"plan {suite / 'plan.json'}: `engine.rate` is not a finite number >= 0"


def _zero_concurrency(plan, suite, monkeypatch):
    plan["concurrency"] = 0  # would run every cell on one worker
    return f"plan {suite / 'plan.json'}: `concurrency` is not an int >= 1"


def _negative_max_spend(plan, suite, monkeypatch):
    plan["max_spend_usd"] = -1  # would skip every cell
    return (f"plan {suite / 'plan.json'}: `max_spend_usd` is not null or a finite "
            "number >= 0")


def _repeated_backend_name(plan, suite, monkeypatch):
    plan["backends"][1]["name"] = "replay-alpha"
    return "backend name 'replay-alpha' is used by 2 backends"


def _repeated_scale_factor(plan, suite, monkeypatch):
    plan["scale_factors"] = [1.0, 1.0]
    return "scale factor 1 is listed 2 times"


def _repeated_case_id(plan, suite, monkeypatch):
    # two episodes would write one trace file, replay one script and
    # materialize one golden
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["cases"][1]["case_id"] = "orders_count"
    (suite / "manifest.json").write_text(json.dumps(manifest))
    return "suite failed to load: case id 'orders_count' is used by 2 cases"


def _case_not_an_object(plan, suite, monkeypatch):
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["cases"].append("x")
    (suite / "manifest.json").write_text(json.dumps(manifest))
    return "suite failed to load: case 5 is not a JSON object"


@pytest.mark.parametrize(
    "defect",
    [_missing_script, _malformed_script, _missing_scripts_dir, _unpriced_model,
     _unknown_key, _unknown_pricing_key, _script_line_without_exchange,
     _response_not_an_object, _exchanges_not_a_list, _usage_not_an_object,
     _estimated_not_a_boolean, _zero_concurrency, _negative_max_spend,
     _repeated_backend_name, _repeated_scale_factor, _repeated_case_id,
     _case_not_an_object, _unset_key, _empty_key, _int_backend_name,
     _string_supports_tools, _fractional_concurrency, _nan_scale_factor,
     _negative_scale_factor, _zero_scale_factor, _infinite_token_price,
     _infinite_engine_rate],
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


def test_trace_cut_by_a_harness_fault_is_refused_as_a_script(
    tmp_path, mini_suite_dir, capsys
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    mismatch_entry(suite / "replays" / "alpha" / "orders_count.jsonl", 3)
    plan = json.loads((suite / "plan.json").read_text())
    plan["output_dir"] = str(tmp_path / "out")
    plan_path = suite / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert main(["run", "--plan", str(plan_path)]) == 0

    # re-score the run from its traces
    traces = tmp_path / "out" / "traces" / "replay-alpha" / "sf1"
    plan["backends"][0]["scripts_dir"] = str(traces)
    plan["output_dir"] = str(tmp_path / "rescored")
    plan_path.write_text(json.dumps(plan))
    capsys.readouterr()
    assert main(["plan", "validate", "--plan", str(plan_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"INVALID: backend 'replay-alpha': replay script "
        f"{traces / f'orders_count_r{rep}.jsonl'} failed to load: line 5: a "
        "trace cut short by a harness fault (outcome harness-error) cannot be "
        "replayed"
        for rep in range(2)
    ]
    assert main(["run", "--plan", str(plan_path)]) == 1
    assert not (tmp_path / "rescored").exists()


def test_run_refuses_a_nan_max_spend_flag(tmp_path, mini_suite_dir, capsys):
    plan_path = str(mini_suite_dir / "plan.json")
    out_dir = tmp_path / "out"
    args = ["--output-dir", str(out_dir), "--max-spend", "nan"]
    assert main(["run", "--plan", plan_path, *args]) == 1
    out = capsys.readouterr().out
    assert out == "plan invalid: `max_spend_usd` is not null or a finite number >= 0\n"
    assert not out_dir.exists()


def test_report_rejects_unknown_format(tmp_path, capsys):
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"episodes": []}))
    code = main(
        ["report", "--records", str(records), "--format", "yaml",
         "--output-dir", str(tmp_path)]
    )
    assert code == 1


@pytest.mark.parametrize("formats", ["", ",", " , "])
def test_report_refuses_an_empty_format_list(tmp_path, capsys, formats):
    records = tmp_path / "records.json"
    records.write_text(
        json.dumps({"episodes": [e.to_json_dict() for e in two_model_episodes()]})
    )
    out_dir = tmp_path / "report"
    assert main(["report", "--records", str(records), "--format", formats,
                 "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr().out == f"no format in --format {formats!r}\n"
    assert not out_dir.exists()


def test_report_rejects_empty_records(tmp_path):
    records = tmp_path / "records.json"
    records.write_text(json.dumps({"episodes": []}))
    code = main(
        ["report", "--records", str(records), "--format", "json",
         "--output-dir", str(tmp_path)]
    )
    assert code == 1


def _records_file(text):
    def write(tmp_path):
        path = tmp_path / "records.json"
        path.write_text(text)
        return path

    return write


def _episode_file(**fields):
    """A records file of one episode with `fields` changed."""
    return _records_file(json.dumps(
        {"episodes": [{**episode("m", "q1").to_json_dict(), **fields}]}
    ))


@pytest.mark.parametrize(
    "records, cause",
    [
        (lambda tmp_path: tmp_path / "absent.json", "No such file or directory"),
        # the pinned untimed copy lacks the clock-derived fields
        (lambda tmp_path: REPO_ROOT / "tests" / "data" / "mini_records_untimed.json",
         "episode 0: missing key 't_gold', 't_gen', 't_e2e', 'stage_seconds'"),
        (_records_file('{"episodes": 5}'), "`episodes` is not a list"),
        (_records_file("{not json"), "Expecting property name"),
        (_episode_file(outcome="no-such-outcome"), "episode 0: `outcome` is not one "
         "of completed, exhausted, tool-error, llm-error, harness-error"),
        (_episode_file(repetition=-3),
         "episode 0: `repetition` is not an int in [0, 2**53]"),
        (_episode_file(c_e2e=5.0),
         "episode 0: c_e2e (5.0) must be the stage_cost sum (0.01)"),
        # records from before the report derived each stage's share
        (_episode_file(stage_percentages={"run": 100.0}),
         "episode 0: unknown key 'stage_percentages'"),
    ],
    ids=["missing_path", "untimed_records", "episodes_not_a_list", "not_json",
         "unknown_outcome", "negative_repetition", "c_e2e_not_the_stage_sum",
         "stored_stage_percentages"],
)
def test_report_refuses_unreadable_records_in_one_line(
    tmp_path, capsys, records, cause
):
    path = records(tmp_path)
    out_dir = tmp_path / "report"
    assert main(["report", "--records", str(path), "--output-dir", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"records invalid: records {path}: ") and cause in out, out
    assert out.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command",
    [
        lambda suite, records, out: [
            "report", "--records", str(records), "--output-dir", out],
        lambda suite, records, out: [
            "run", "--plan", str(suite / "plan.json"), "--output-dir", out],
        lambda suite, records, out: [
            "goldens", "materialize", "--suite", str(suite), "--cache-dir", out],
        lambda suite, records, out: [
            "data", "generate", "--scale-factor", "0.001", "--output-dir", out],
    ],
    ids=["report", "run", "goldens_materialize", "data_generate"],
)
def test_an_output_path_that_is_a_file_is_refused_in_one_line(
    tmp_path, mini_suite_dir, capsys, command
):
    records = tmp_path / "records.json"
    records.write_text(
        json.dumps({"episodes": [e.to_json_dict() for e in two_model_episodes()]})
    )
    blocked = tmp_path / "blocked"
    blocked.write_text("a file\n")
    assert main(command(mini_suite_dir, records, str(blocked))) == 1
    out, err = capsys.readouterr()
    assert out.startswith("error: ") and str(blocked) in out, out
    assert out.count("\n") == 1 and err == ""
    assert blocked.read_text() == "a file\n"


def test_data_generate_prints_counts(tmp_path, capsys):
    code = main(
        ["data", "generate", "--scale-factor", "0.001", "--seed", "3",
         "--output-dir", str(tmp_path / "data")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "region: 5 rows" in out
    assert "lineitem: 6000 rows" in out


@pytest.mark.parametrize(
    "scale_factor, shown", [("5", "5.0"), ("nan", "nan"), ("0.0001", "0.0001")]
)
def test_data_generate_refuses_a_scale_factor_out_of_range_in_one_line(
    tmp_path, capsys, scale_factor, shown
):
    out_dir = tmp_path / "data"
    assert main(["data", "generate", "--scale-factor", scale_factor,
                 "--output-dir", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == f"error: scale factor {shown} outside [0.001, 1.0]\n"
    assert err == ""
    assert not out_dir.exists()


def test_report_shows_vces_undefined_for_a_model_that_cost_nothing(
    tmp_path, mini_suite_dir
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    pricing = json.loads((suite / "pricing.json").read_text())
    pricing["models"][1].update(input_per_mtok=0, output_per_mtok=0)  # replay-beta
    (suite / "pricing.json").write_text(json.dumps(pricing))
    out = tmp_path / "out"
    assert main(["run", "--plan", str(suite / "plan.json"), "--output-dir", str(out)]) == 0
    assert main(
        ["report", "--records", str(out / "records.json"),
         "--output-dir", str(out / "report")]
    ) == 0

    report = json.loads((out / "report" / "report.json").read_text())
    assert report["suite_metrics"]["replay-beta"]["vces"] is None
    assert report["suite_metrics"]["replay-alpha"]["vces"] > 0
    # the undefined VCES sorts last, and normalization skips it
    assert [(row["model"], row["vces_norm"]) for row in report["table3"]] == [
        ("replay-alpha", 1.0), ("replay-beta", None)
    ]
    markdown = (out / "report" / "report.md").read_text().splitlines()
    assert any(line.startswith("| replay-beta | -- | ") for line in markdown)
    valid_beta = {
        row["case_id"] for row in report["per_query"]
        if row["model"] == "replay-beta" and row["ex_mean"] > 0
    }
    assert valid_beta
    for case_id in valid_beta:
        row = next(line for line in markdown
                   if line.startswith(f"| {case_id} | replay-beta | "))
        assert row.split(" | ")[5] == "-- +/- --", row


def test_goldens_materialize_cli(tmp_path, mini_suite_dir, capsys):
    code = main(
        ["goldens", "materialize", "--suite", str(mini_suite_dir),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 0
    assert len(list((tmp_path / "goldens").glob("*.json"))) == 5


def test_goldens_materialize_refuses_a_bad_suite_in_one_line(
    tmp_path, mini_suite_dir, capsys
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["cases"][1]["case_id"] = "orders_count"
    (suite / "manifest.json").write_text(json.dumps(manifest))
    not_object = tmp_path / "not_object"
    not_object.mkdir()
    (not_object / "manifest.json").write_text(json.dumps({"cases": ["x"]}))
    # a field of the wrong type, read as text or truth before
    mistyped = []
    for name, edit, problem in [
        ("int_databases_dir", lambda m: m.update(databases_dir=5),
         "`databases_dir` is not a string"),
        ("list_question", lambda m: m["cases"][1].update(question=["x"]),
         "`cases[1].question` is not null or a string"),
        ("int_case_id", lambda m: m["cases"][2].update(case_id=5),
         "`cases[2].case_id` is not null or a string"),
        ("string_ordered", lambda m: m["cases"][3].update(ordered="false"),
         "`cases[3].ordered` is not a boolean"),
        ("int_sql", lambda m: m["cases"][0].update(SQL=7),
         "`cases[0].SQL` is not null or a string"),
    ]:
        copy = tmp_path / name
        shutil.copytree(mini_suite_dir, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        mistyped.append((copy, problem))
    for path, problem in [
        (tmp_path / "absent", f"manifest not found: {tmp_path / 'absent'}"),
        (suite, "case id 'orders_count' is used by 2 cases"),
        (not_object, "case 0 is not a JSON object"),
        *mistyped,
    ]:
        code = main(["goldens", "materialize", "--suite", str(path),
                     "--cache-dir", str(tmp_path / "goldens")])
        assert code == 1
        assert capsys.readouterr().out == f"suite invalid: {problem}\n"
    assert not (tmp_path / "goldens").exists()


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


def test_no_snapshot_outlives_a_command(tmp_path, mini_suite_dir, monkeypatch):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    plan = json.loads((suite / "plan.json").read_text())
    plan["output_dir"] = str(tmp_path / "out")
    (suite / "plan.json").write_text(json.dumps(plan))
    plan["backends"][0]["model_id"] = "not-priced"
    (suite / "unpriced.json").write_text(json.dumps(plan))
    broken = tmp_path / "broken"
    shutil.copytree(suite, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["cases"][0]["SQL"] = "SELECT FROM WHERE"
    (broken / "manifest.json").write_text(json.dumps(manifest))
    loaded = count_registrations(monkeypatch)
    before = snapshot_files()
    for argv, code in [
        (["plan", "validate", "--plan", suite / "plan.json"], 0),
        (["plan", "validate", "--plan", suite / "unpriced.json"], 1),
        (["run", "--plan", suite / "plan.json"], 0),
        (["run", "--plan", suite / "unpriced.json"], 1),
        (["goldens", "materialize", "--suite", suite, "--cache-dir", tmp_path / "g"],
         0),
        (["goldens", "materialize", "--suite", broken, "--cache-dir", tmp_path / "g"],
         1),
    ]:
        registered = len(loaded)
        assert main([str(arg) for arg in argv]) == code, argv
        # the command registered the data, then removed its snapshot
        assert len(loaded) > registered, argv
        assert snapshot_files() == before, argv


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


def test_goldens_materialize_reports_a_golden_naming_a_column_emptily(
    tmp_path, mini_suite_dir, capsys
):
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    manifest["cases"][0]["SQL"] = 'SELECT COUNT(*) AS "" FROM orders'
    (suite / "manifest.json").write_text(json.dumps(manifest))
    code = main(
        ["goldens", "materialize", "--suite", str(suite),
         "--cache-dir", str(tmp_path / "goldens")]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "orders_count: FAILED (case orders_count: golden query failed: "
        "result column 1 has an empty name: '')"
    )
    assert len(lines) == 5


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
