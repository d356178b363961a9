from __future__ import annotations

import contextlib
import itertools
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from bigsqlbench import agent as agent_module
from bigsqlbench import engine as engine_module
from bigsqlbench import report as report_module
from bigsqlbench import resultset as resultset_module
from bigsqlbench import runner
from bigsqlbench.agent import AgentConfig, trace_from_jsonl
from bigsqlbench.cli import REPORT_FORMATS
from bigsqlbench.costmodel import EnginePricing, PricingConfig
from bigsqlbench.engine import EmbeddedEngine, Sessions
from bigsqlbench.llmclient import ExchangeRecord, ReplayBackend, fingerprint_messages
from bigsqlbench.metrics import STAGES, EpisodeResult, from_json_object, load_records
from bigsqlbench.report import build_report, render_markdown, render_report
from bigsqlbench.runner import PlanValidationError, RunPlan, execute_plan, validate_plan
from tests.conftest import (
    PINNED_REPORT,
    count_registrations,
    episode,
    mismatch_entry,
    modules_after,
    snapshot_files,
    two_model_episodes,
    untimed_trace,
)
from tests.oracles import stage_tokens_oracle, trace_to_jsonl_asdict


PINNED_RECORDS = Path(__file__).parent / "data" / "mini_records_untimed.json"
PINNED_TRACES = Path(__file__).parent / "data" / "mini_traces_untimed.json"
TIMING_FIELDS = ("t_gold", "t_gen", "t_e2e", "stage_seconds")


def untimed_records_text(output_dir: Path) -> str:
    """records.json minus clock-derived fields."""
    records = json.loads((output_dir / "records.json").read_text())
    for ep in records["episodes"]:
        for name in TIMING_FIELDS:
            del ep[name]
    return json.dumps(records, indent=2) + "\n"


def untimed_traces_text(output_dir: Path) -> str:
    """Every episode trace without timing fields, keyed by relative path."""
    traces = {
        path.relative_to(output_dir).as_posix(): untimed_trace(path.read_text())
        for path in sorted((output_dir / "traces").rglob("*.jsonl"))
    }
    return json.dumps(traces, indent=2) + "\n"


def log_in_process(log_dir: Path, entry) -> None:
    """Append a JSON entry to this process's file under log_dir.

    Episodes run in forked worker processes, so a test sees what they did
    through files, not through its own memory.
    """
    with open(log_dir / f"{os.getpid()}.jsonl", "a") as handle:
        handle.write(json.dumps(entry) + "\n")


def read_process_logs(log_dir: Path) -> list:
    return [
        json.loads(line)
        for path in sorted(log_dir.glob("*.jsonl"))
        for line in path.read_text().splitlines()
    ]


def first_call(flag: Path) -> bool:
    """True for exactly one call, across every process, per flag file."""
    try:
        os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


@pytest.fixture
def mini_plan(mini_suite_dir, tmp_path):
    plan = RunPlan.from_json_file(mini_suite_dir / "plan.json")
    plan.output_dir = tmp_path / "out"
    return plan


# --- validation ---


def test_mini_plan_validates(mini_plan):
    assert validate_plan(mini_plan) == []


def test_unknown_pricing_model_is_preflight_error(mini_plan):
    mini_plan.backends[0].model_id = "unknown-model"
    problems = validate_plan(mini_plan)
    assert any("pricing" in p for p in problems)
    with pytest.raises(PlanValidationError):
        execute_plan(mini_plan)


def test_missing_scripts_dir_is_preflight_error(mini_plan, tmp_path):
    mini_plan.backends[0].scripts_dir = tmp_path / "nowhere"
    assert any("scripts_dir" in p for p in validate_plan(mini_plan))


def test_zero_repetitions_rejected(mini_plan):
    mini_plan.repetitions = 0
    assert any("repetitions" in p for p in validate_plan(mini_plan))


def test_per_byte_engine_pricing_rejected_before_anything_runs(mini_plan):
    mini_plan.pricing.engine = EnginePricing("per-byte-scanned", 5e-12)
    assert any("per-byte-scanned" in p for p in validate_plan(mini_plan))
    with pytest.raises(PlanValidationError):
        execute_plan(mini_plan)
    assert not mini_plan.output_dir.exists()


def copy_scripts(plan, index, tmp_path) -> Path:
    """Point backend `index` at a private copy of its replay scripts."""
    scripts = tmp_path / f"scripts{index}"
    shutil.copytree(plan.backends[index].scripts_dir, scripts)
    plan.backends[index].scripts_dir = scripts
    return scripts


def test_missing_replay_script_is_preflight_error(mini_plan, tmp_path):
    scripts = copy_scripts(mini_plan, 1, tmp_path)
    for case_id in ("orders_count", "top_customer"):
        (scripts / f"{case_id}.jsonl").unlink()
    problems = validate_plan(mini_plan)
    assert problems == [
        f"backend 'replay-beta': no replay script for case {case_id!r}: "
        f"{scripts / f'{case_id}.jsonl'} not found"
        for case_id in ("orders_count", "top_customer")
    ]
    with pytest.raises(PlanValidationError, match="orders_count"):
        execute_plan(mini_plan)
    assert not (mini_plan.output_dir / "records.json").exists()


def test_malformed_replay_script_fails_before_any_episode(mini_plan, tmp_path):
    scripts = copy_scripts(mini_plan, 0, tmp_path)
    (scripts / "pricey_products.jsonl").write_text("{not json\n")
    with pytest.raises(PlanValidationError, match="pricey_products.jsonl"):
        execute_plan(mini_plan)
    assert not (mini_plan.output_dir / "traces").exists()


@pytest.mark.parametrize(
    "endpoint", ["localhost:8080/v1/chat", "ftp://host/v1", "//host/v1"]
)
def test_http_endpoint_without_scheme_rejected(mini_plan, endpoint):
    mini_plan.backends[0].kind = "http-api"
    mini_plan.backends[0].endpoint = endpoint
    assert validate_plan(mini_plan) == [
        f"backend 'replay-alpha': http-api endpoint {endpoint!r} "
        "needs an http:// or https:// scheme"
    ]
    for endpoint in ("http://localhost:8080/v1/chat", "HTTPS://api.example/v1"):
        mini_plan.backends[0].endpoint = endpoint
        assert validate_plan(mini_plan) == []


@pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan])
def test_non_positive_rate_limit_rejected(mini_plan, rate):
    mini_plan.backends[1].rate_limit_per_sec = rate
    assert validate_plan(mini_plan) == [
        "`backends[1].rate_limit_per_sec` is not null or a finite number > 0"
    ]
    with pytest.raises(PlanValidationError):
        execute_plan(mini_plan)


def test_a_field_changed_after_reading_is_refused_as_the_reader_refuses_it(mini_plan):
    mini_plan.concurrency = 0  # as `run --concurrency 0` sets it
    assert validate_plan(mini_plan) == ["`concurrency` is not an int >= 1"]
    mini_plan.concurrency = 1
    mini_plan.scale_factors = [1.0, math.inf]
    assert validate_plan(mini_plan) == ["`scale_factors[1]` is not a finite number > 0"]
    mini_plan.scale_factors = [1.0]
    # a frozen entry changed past its own check
    object.__setattr__(mini_plan.pricing.models["replay-alpha"], "input_per_mtok", math.inf)
    assert validate_plan(mini_plan) == [
        "`pricing.models.replay-alpha.input_per_mtok` is not a finite number >= 0"
    ]


@pytest.mark.parametrize("target, name, exc", [
    (runner, "load_suite", TypeError("harness bug")),
    (ReplayBackend, "from_path", AttributeError("harness bug")),
], ids=["suite", "script"])
def test_a_harness_bug_in_the_preflight_is_raised_not_reported(
    mini_plan, monkeypatch, target, name, exc
):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, name, fail)
    with pytest.raises(type(exc), match="harness bug"):
        validate_plan(mini_plan)


def test_api_key_env_must_name_a_set_variable(mini_plan, monkeypatch):
    key_env = "BIGSQLBENCH_TEST_API_KEY"
    mini_plan.backends[0].kind = "http-api"
    mini_plan.backends[0].endpoint = "http://localhost:9/v1"
    mini_plan.backends[0].api_key_env = key_env
    expected = [f"backend 'replay-alpha': api_key_env '{key_env}' is unset or empty"]
    monkeypatch.delenv(key_env, raising=False)
    assert validate_plan(mini_plan) == expected
    monkeypatch.setenv(key_env, "")
    assert validate_plan(mini_plan) == expected
    monkeypatch.setenv(key_env, "sk-test")
    assert validate_plan(mini_plan) == []


def write_plan(mini_suite_dir, tmp_path, edit) -> Path:
    """A copy of the mini plan file, changed by edit(data), that reads the
    bundled suite."""
    data = json.loads((mini_suite_dir / "plan.json").read_text())
    data["suite"] = str(mini_suite_dir)
    data["pricing"] = str(mini_suite_dir / data["pricing"])
    for backend in data["backends"]:
        backend["scripts_dir"] = str(mini_suite_dir / backend["scripts_dir"])
    edit(data)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    return plan_path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(max_spend=0.0001), "unknown key 'max_spend'"),
        (lambda d: d.update(retries=1, max_spend=1),
         "unknown key 'retries', 'max_spend'"),
        (lambda d: d["backends"][1].update(api_key="k"),
         "unknown key 'api_key' in backends[1]"),
        (lambda d: d["backends"][0].update(sampling={"temprature": 0.5}),
         "unknown key 'temprature' in backends[0].sampling"),
        (lambda d: d["agent"].update(max_iteration=3),
         "unknown key 'max_iteration' in agent"),
        (lambda d: d["agent"].update(terminate_after_first_run=False),
         "unknown key 'terminate_after_first_run' in agent"),
    ],
    ids=["top-level", "two-top-level", "backend", "sampling", "agent",
         "removed-agent-key"],
)
def test_unknown_plan_key_rejected(mini_suite_dir, tmp_path, edit, message):
    plan_path = write_plan(mini_suite_dir, tmp_path, edit)
    with pytest.raises(PlanValidationError) as raised:
        RunPlan.from_json_file(plan_path)
    assert str(raised.value) == f"plan {plan_path}: {message}"


def test_sampling_values_are_read_as_numbers(mini_suite_dir, tmp_path):
    def numbers(data):
        data["backends"][0]["sampling"] = {
            "temperature": 1, "top_p": None, "max_tokens": 64,
        }

    plan = RunPlan.from_json_file(write_plan(mini_suite_dir, tmp_path, numbers))
    payload = plan.backends[0].sampling.to_payload()
    assert payload == {"temperature": 1.0, "max_tokens": 64}
    assert type(payload["temperature"]) is float and type(payload["max_tokens"]) is int

    # a string is refused, never converted
    for key, value, expected in [
        ("temperature", "0.5", "null or a finite number >= 0"),
        ("temperature", "hot", "null or a finite number >= 0"),
        ("max_tokens", "64", "null or an int >= 1"),
        ("max_tokens", 64.0, "null or an int >= 1"),
    ]:
        def text(data):
            data["backends"][0]["sampling"] = {key: value}

        plan_path = write_plan(mini_suite_dir, tmp_path, text)
        with pytest.raises(PlanValidationError) as raised:
            RunPlan.from_json_file(plan_path)
        assert str(raised.value) == (
            f"plan {plan_path}: `backends[0].sampling.{key}` is not {expected}"
        )


def test_plan_without_optional_keys_reads_to_the_dataclass_defaults(
    mini_suite_dir, tmp_path
):
    (tmp_path / "plan.json").write_text(json.dumps({
        "suite": str(mini_suite_dir),
        "pricing": str(mini_suite_dir / "pricing.json"),
        "backends": [{"kind": "replay", "model_id": "replay-alpha"}],
    }))
    plan = RunPlan.from_json_file(tmp_path / "plan.json")
    assert plan == RunPlan(
        suite=mini_suite_dir,
        pricing=PricingConfig.from_json_file(mini_suite_dir / "pricing.json"),
        backends=[runner.BackendSpec(kind="replay", model_id="replay-alpha")],
        output_dir=tmp_path / "out",
    )
    # a backend without a name is named by its model id
    assert plan.backends[0].name == "replay-alpha"


def test_every_plan_key_read_is_accepted(mini_suite_dir, tmp_path):
    def every_key(data):
        data.update(max_spend_usd=None)
        data["backends"][0].update(
            endpoint=None, api_key_env=None, supports_tools=False,
            rate_limit_per_sec=None,
            sampling={"temperature": 0.5, "top_p": 0.9, "max_tokens": 64},
        )

    plan = RunPlan.from_json_file(write_plan(mini_suite_dir, tmp_path, every_key))
    assert plan.backends[0].sampling.max_tokens == 64


def test_null_rate_limit_in_plan_file_means_no_limit(mini_suite_dir, tmp_path):
    data = json.loads((mini_suite_dir / "plan.json").read_text())
    data["backends"][0]["rate_limit_per_sec"] = None
    data["backends"][1]["rate_limit_per_sec"] = 100
    data["pricing"] = str(mini_suite_dir / data["pricing"])
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    plan = RunPlan.from_json_file(plan_path)
    assert [b.rate_limit_per_sec for b in plan.backends] == [None, 100.0]


# --- execution ---


def test_full_mini_matrix_offline(mini_plan):
    output = execute_plan(mini_plan)
    # 5 cases x 2 backends x 2 repetitions
    assert len(output.episodes) == 20
    assert output.skipped == []
    assert output.unusable_cases == []
    per_backend = {}
    for ep in output.episodes:
        per_backend.setdefault(ep.model, []).append(ep)
    assert len(per_backend["replay-alpha"]) == 10
    assert len(per_backend["replay-beta"]) == 10

    alpha = per_backend["replay-alpha"]
    assert all(ep.indicator == 1 for ep in alpha)
    assert all(ep.outcome == "completed" for ep in alpha)

    beta_by_case = {}
    for ep in per_backend["replay-beta"]:
        beta_by_case.setdefault(ep.case_id, []).append(ep)
    assert all(e.indicator == 1 for e in beta_by_case["orders_count"])
    assert all(
        e.precision == pytest.approx(0.5)
        for e in beta_by_case["orders_count"]
    )
    assert all(e.indicator == 0 for e in beta_by_case["category_quantity"])
    assert all(e.indicator == 0 for e in beta_by_case["top_customer"])
    assert all(e.indicator == 1 for e in beta_by_case["pricey_products"])


# the plan's own $5 ceiling, under which the parent keeps one cell queued
# with each worker, and no ceiling, under which it keeps a share of the cells
# left, two at least
CEILINGS = pytest.mark.parametrize(
    "max_spend_usd", [5.0, None], ids=["plan_ceiling", "no_ceiling"]
)


@CEILINGS
def test_mini_records_match_pinned_untimed_copy(mini_plan, max_spend_usd):
    mini_plan.max_spend_usd = max_spend_usd
    execute_plan(mini_plan)
    assert untimed_records_text(mini_plan.output_dir) == PINNED_RECORDS.read_text()


@CEILINGS
def test_mini_traces_match_pinned_untimed_copy(mini_plan, max_spend_usd):
    mini_plan.max_spend_usd = max_spend_usd
    execute_plan(mini_plan)
    assert untimed_traces_text(mini_plan.output_dir) == PINNED_TRACES.read_text()


def pinned_at_repetitions(repetitions: int) -> tuple[str, str]:
    """The pinned untimed records and traces text of a no-ceiling run at
    `repetitions`: each repetition replays its case's one script, so it reads
    as the pinned repetition 0 under its own number and trace path."""
    records = json.loads(PINNED_RECORDS.read_text())
    records["episodes"] = [
        {**ep, "repetition": rep,
         "trace_path": ep["trace_path"].replace("_r0.", f"_r{rep}.")}
        for ep in records["episodes"] if ep["repetition"] == 0
        for rep in range(repetitions)
    ]
    records["total_spend_usd"] = math.fsum(ep["c_e2e"] for ep in records["episodes"])
    traces = {
        path.replace("_r0.", f"_r{rep}."): text
        for path, text in json.loads(PINNED_TRACES.read_text()).items()
        if "_r0." in path
        for rep in range(repetitions)
    }
    return (json.dumps(records, indent=2) + "\n",
            json.dumps(dict(sorted(traces.items())), indent=2) + "\n")


def count_episode_messages(monkeypatch) -> list[int]:
    """The size of each batch of episodes the parent receives from a worker."""
    main, sizes = os.getpid(), []
    recv = multiprocessing.connection.Connection.recv

    def counting(self):
        message = recv(self)
        if os.getpid() == main and message[0] == "episodes":
            sizes.append(len(message[1]))
        return message

    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", counting)
    return sizes


# a worker sends its episodes once it has run every index it holds, or after
# _SEND_EVERY_S: an hour batches them; 0 sends each alone, as a live run's
# episodes, each longer than the default, are sent
@pytest.mark.parametrize("send_every_s", [3600.0, 0.0], ids=["batched", "each_alone"])
def test_batched_episodes_give_the_pinned_records_and_traces(
    mini_plan, monkeypatch, send_every_s
):
    monkeypatch.setattr(runner, "_SEND_EVERY_S", send_every_s)
    sizes = count_episode_messages(monkeypatch)
    mini_plan.max_spend_usd = None
    mini_plan.repetitions = 10
    mini_plan.concurrency = 2
    execute_plan(mini_plan)
    assert sum(sizes) == 100
    if send_every_s:
        assert len(sizes) <= 100 / 2, sizes
    else:
        assert set(sizes) == {1}
    records, traces = pinned_at_repetitions(10)
    assert untimed_records_text(mini_plan.output_dir) == records
    assert untimed_traces_text(mini_plan.output_dir) == traces


def test_mini_plan_registers_each_database_once(mini_plan, monkeypatch):
    loaded = count_registrations(monkeypatch)
    execute_plan(mini_plan)
    assert sorted(p.name for p in loaded) == ["orders.csv", "products.csv"]


def test_episodes_import_nothing_the_parent_has_not_loaded(mini_suite_dir, tmp_path):
    """The fork rule: importing the runner loads every module an episode
    runs, so no worker compiles one inside a timed episode."""
    modules_after(
        "import sys\n"
        "from pathlib import Path\n"
        "from bigsqlbench import runner\n"
        "loaded = set(sys.modules)\n"
        f"plan = runner.RunPlan.from_json_file({str(mini_suite_dir / 'plan.json')!r})\n"
        f"plan.output_dir = Path({str(tmp_path)!r})\n"
        "with runner.Sessions() as sessions:\n"
        "    checked = runner._preflight(plan, sessions)\n"
        "    specs, _ = runner._plan_episodes(plan, checked, sessions)\n"
        "    run = runner._Run(plan, {}, sessions, runner._make_trace_dirs(specs))\n"
        "    episodes = [runner._run_episode(run, spec) for spec in specs]\n"
        "assert len(episodes) == 20 and all(ep.trace_path for ep in episodes)\n"
        "assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)"
    )


def test_workers_read_the_data_the_goldens_ran_on(mini_copy, monkeypatch):
    orders = mini_copy.suite / "databases" / "shop" / "orders.csv"
    run_episodes = runner._run_episodes

    def rewrite_then_run(run, specs):
        # after the goldens ran, before the workers start: drop five orders
        lines = orders.read_text().splitlines(keepends=True)
        orders.write_text("".join(lines[:-5]))
        return run_episodes(run, specs)

    monkeypatch.setattr(runner, "_run_episodes", rewrite_then_run)
    output = execute_plan(mini_copy)
    alpha = [ep for ep in output.episodes if ep.model == "replay-alpha"]
    assert len(alpha) == 10
    assert all(ep.indicator == 1 for ep in alpha)
    assert untimed_records_text(mini_copy.output_dir) == PINNED_RECORDS.read_text()


def test_no_snapshot_outlives_its_run(mini_plan, tmp_path, monkeypatch):
    before = snapshot_files()
    during = []
    run_episodes = runner._run_episodes

    def recording(run, specs):
        during.append(snapshot_files() - before)
        return run_episodes(run, specs)

    monkeypatch.setattr(runner, "_run_episodes", recording)
    execute_plan(mini_plan)
    assert len(during) == 1 and len(during[0]) == 1
    assert snapshot_files() == before
    # raised by validation, after the suite load registered the data
    mini_plan.backends[0].model_id = "unknown-model"
    with pytest.raises(PlanValidationError, match="pricing"):
        execute_plan(mini_plan)
    assert snapshot_files() == before
    # raised by validation, which parses every script
    mini_plan.backends[0].model_id = "replay-alpha"
    scripts = copy_scripts(mini_plan, 0, tmp_path)
    (scripts / "top_customer.jsonl").write_text("{not json\n")
    with pytest.raises(PlanValidationError, match="failed to load"):
        execute_plan(mini_plan)
    assert snapshot_files() == before
    assert len(during) == 1


def test_mini_run_traces_match_asdict_oracle(mini_plan, monkeypatch, tmp_path):
    serialize = runner.trace_to_jsonl
    log_dir = tmp_path / "pairs"
    log_dir.mkdir()

    def checked(trace):
        text = serialize(trace)
        log_in_process(log_dir, [text, trace_to_jsonl_asdict(trace)])
        return text

    monkeypatch.setattr(runner, "trace_to_jsonl", checked)
    execute_plan(mini_plan)
    pairs = read_process_logs(log_dir)
    assert len(pairs) == 20
    for text, expected in pairs:
        assert text.encode() == expected.encode()


def test_suite_loaded_once_per_scale_factor(mini_plan, monkeypatch):
    loaded_at = []
    explains = []
    real_load_suite = runner.load_suite
    real_explain = EmbeddedEngine.explain

    def recording_load_suite(path, scale_factor, sessions):
        loaded_at.append(scale_factor)
        return real_load_suite(path, scale_factor, sessions)

    def counting_explain(self, sql):
        explains.append(sql)
        return real_explain(self, sql)

    monkeypatch.setattr(runner, "load_suite", recording_load_suite)
    monkeypatch.setattr(EmbeddedEngine, "explain", counting_explain)
    mini_plan.scale_factors = [1.0, 2.0]
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 5 * 2 * 2 * 2
    assert loaded_at == [1.0, 2.0]
    assert len(explains) == 5 * 2  # each golden compiles once per scale factor


def count_script_loads(monkeypatch) -> list[Path]:
    """The path of every replay script loaded from now on in this process."""
    loads = []
    from_path = ReplayBackend.from_path.__func__

    def counting(cls, path, model_id="replay"):
        loads.append(Path(path))
        return from_path(cls, path, model_id)

    monkeypatch.setattr(ReplayBackend, "from_path", classmethod(counting))
    return loads


def test_each_replay_script_loaded_once_per_run(mini_plan, monkeypatch):
    loads = count_script_loads(monkeypatch)
    mini_plan.repetitions = 3
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 2 * 5 * 3
    assert len(loads) == len(set(loads)) == 10
    cells: dict[tuple[str, str], set[str]] = {}
    for ep in output.episodes:
        assert ep.outcome == "completed"
        untimed = untimed_trace((mini_plan.output_dir / ep.trace_path).read_text())
        cells.setdefault((ep.model, ep.case_id), set()).add(untimed)
    assert len(cells) == 10
    assert all(len(texts) == 1 for texts in cells.values())


def test_script_edited_between_runs_is_seen(mini_plan, tmp_path):
    scripts = copy_scripts(mini_plan, 0, tmp_path)

    def generated(output, model):
        return {
            ep.generated_sql for ep in output.episodes
            if ep.model == model and ep.case_id == "category_quantity"
        }

    first = execute_plan(mini_plan)
    assert generated(first, "replay-alpha") != generated(first, "replay-beta")
    shutil.copy(
        mini_plan.backends[1].scripts_dir / "category_quantity.jsonl",
        scripts / "category_quantity.jsonl",
    )
    mini_plan.output_dir = tmp_path / "out2"
    second = execute_plan(mini_plan)
    assert generated(second, "replay-alpha") == generated(first, "replay-beta")


# --- a run's traces replay as a run ---


def test_mini_run_replays_from_its_own_trace_directory(
    mini_plan, tmp_path, monkeypatch
):
    mini_plan.max_spend_usd = None
    recorded = mini_plan.output_dir / "traces"
    execute_plan(mini_plan)
    for backend in mini_plan.backends:
        backend.scripts_dir = recorded / backend.name / "sf1"
    mini_plan.output_dir = tmp_path / "replayed"
    loads = count_script_loads(monkeypatch)
    execute_plan(mini_plan)
    # each repetition replays its own trace, `<case>_r<rep>.jsonl`
    assert sorted(loads) == sorted(recorded.rglob("*.jsonl"))
    assert len(loads) == 2 * 5 * 2
    assert untimed_records_text(mini_plan.output_dir) == PINNED_RECORDS.read_text()
    assert untimed_traces_text(mini_plan.output_dir) == PINNED_TRACES.read_text()


def stub_replies(scripts_dir: Path, case_ids: list[str]) -> list[tuple]:
    """Chat-completions replies that answer each case as its replay script
    does, in case order, with the script's token counts."""
    replies = []
    for case_id in case_ids:
        script = ReplayBackend.from_path(scripts_dir / f"{case_id}.jsonl")
        for entry in script.entries:
            replies.append((200, {
                "choices": [{"message": {"content": entry.response.text}}],
                "usage": {"prompt_tokens": entry.usage.input_tokens,
                          "completion_tokens": entry.usage.output_tokens},
            }))
    return replies


def test_live_run_replays_from_its_traces_and_catches_prompt_drift(
    mini_plan, stub_server, tmp_path, monkeypatch
):
    manifest = json.loads((mini_plan.suite / "manifest.json").read_text())
    case_ids = [case["case_id"] for case in manifest["cases"]]
    live = mini_plan.backends[0]
    stub_server.script.extend(stub_replies(live.scripts_dir, case_ids))
    del stub_server.script[0][1]["usage"]  # one reply without provider counts
    live.kind, live.scripts_dir = "http-api", None
    live.endpoint = f"http://127.0.0.1:{stub_server.server_port}/v1/chat"
    mini_plan.backends = [live]
    # one worker, so that the stub answers the cases in suite order
    mini_plan.repetitions, mini_plan.concurrency = 1, 1
    mini_plan.max_spend_usd = None
    output = execute_plan(mini_plan)
    assert stub_server.script == []
    assert all(ep.outcome == "completed" for ep in output.episodes)
    assert [ep.case_id for ep in output.episodes if ep.estimated_usage] == [
        case_ids[0]
    ]

    # every logged exchange carries the fingerprint of the request it answered
    trace_dir = mini_plan.output_dir / "traces" / live.name / "sf1"
    fingerprints = [
        exchange.fingerprint
        for case_id in case_ids
        for it in trace_from_jsonl(
            (trace_dir / f"{case_id}_r0.jsonl").read_text()
        ).iterations
        for exchange in it.exchanges
    ]
    assert fingerprints == [
        fingerprint_messages(request["messages"]) for request in stub_server.requests
    ]

    # the trace directory replays the run offline, estimates included
    live_records = untimed_records_text(mini_plan.output_dir)
    live.kind, live.endpoint, live.scripts_dir = "replay", None, trace_dir
    mini_plan.output_dir = tmp_path / "replayed"
    execute_plan(mini_plan)
    assert untimed_records_text(mini_plan.output_dir) == live_records

    # a prompt changed since the recording is the harness's fault
    for prompt in ("DEFAULT_SYSTEM_PROMPT", "DEFAULT_CHECKER_PROMPT"):
        with monkeypatch.context() as patch:
            patch.setattr(agent_module, prompt, "A prompt edited since the run.")
            mini_plan.output_dir = tmp_path / prompt
            drifted = execute_plan(mini_plan)
        assert len(drifted.episodes) == len(case_ids)
        for ep in drifted.episodes:
            assert ep.outcome == "harness-error", prompt
            assert "does not match recorded" in ep.error


@pytest.fixture
def mini_copy(mini_suite_dir, tmp_path):
    """A plan over a private copy of the mini suite, free to edit."""
    suite = tmp_path / "mini"
    shutil.copytree(mini_suite_dir, suite)
    plan = RunPlan.from_json_file(suite / "plan.json")
    plan.output_dir = tmp_path / "out"
    return plan


def set_golden(plan, case_id, sql):
    manifest = plan.suite / "manifest.json"
    data = json.loads(manifest.read_text())
    for case in data["cases"]:
        if case["case_id"] == case_id:
            case["SQL"] = sql
    manifest.write_text(json.dumps(data))


def replace_script_sql(plan, index, case_id, old, new):
    script = plan.backends[index].scripts_dir / f"{case_id}.jsonl"
    text = script.read_text()
    assert old in text
    script.write_text(text.replace(old, new))


def by_cell(output):
    return {(ep.model, ep.case_id, ep.repetition): ep for ep in output.episodes}


def test_golden_changed_between_runs_into_one_dir_is_seen(mini_copy):
    golden_file = mini_copy.output_dir / "goldens" / "pricey_products@sf1.json"
    first = by_cell(execute_plan(mini_copy))
    assert first["replay-alpha", "pricey_products", 0].indicator == 1
    set_golden(mini_copy, "pricey_products",
               "SELECT name FROM products WHERE price > 1000")
    second = execute_plan(mini_copy)
    written = json.loads(golden_file.read_text())
    assert written["result"]["rows"] == []
    for ep in second.episodes:
        if ep.case_id == "pricey_products":
            assert ep.golden_sql.endswith("price > 1000")
            assert (ep.indicator, ep.exact) == (0, False)
            assert ep.t_gold == written["t_gold"]
    records = json.loads((mini_copy.output_dir / "records.json").read_text())
    assert {ep["indicator"] for ep in records["episodes"]
            if ep["case_id"] == "pricey_products"} == {0}


def test_golden_failing_at_run_time_is_unusable_and_cases_stay_untouched(
    mini_copy, monkeypatch
):
    set_golden(mini_copy, "orders_count",
               "SELECT abs(-9223372036854775807 - 1) AS x FROM orders")
    assert validate_plan(mini_copy) == []  # EXPLAIN compiles it
    loaded = []
    real_load_suite = runner.load_suite

    def recording_load_suite(*args, **kwargs):
        cases = real_load_suite(*args, **kwargs)
        loaded.extend(cases)
        return cases

    monkeypatch.setattr(runner, "load_suite", recording_load_suite)
    output = execute_plan(mini_copy)
    assert output.unusable_cases == [
        {"case_id": "orders_count", "scale_factor": "1",
         "error": "case orders_count: golden query failed: "
                  "sql execution failed: integer overflow"}
    ]
    assert len(output.episodes) == 4 * 2 * 2
    assert "orders_count" not in {ep.case_id for ep in output.episodes}
    assert all(ep.outcome == "completed" for ep in output.episodes)
    # the runner reads the failure from the exception, not from the case
    assert loaded and all(case.error is None for case in loaded)
    records = json.loads(output.records_path.read_text())
    assert records["unusable_cases"] == output.unusable_cases


def test_golden_naming_a_column_emptily_is_unusable(mini_copy):
    set_golden(mini_copy, "orders_count", 'SELECT COUNT(*) AS "" FROM orders')
    assert validate_plan(mini_copy) == []  # EXPLAIN compiles it
    output = execute_plan(mini_copy)
    assert output.unusable_cases == [
        {"case_id": "orders_count", "scale_factor": "1",
         "error": "case orders_count: golden query failed: "
                  "result column 1 has an empty name: ''"}
    ]
    assert len(output.episodes) == 4 * 2 * 2
    assert all(ep.outcome == "completed" for ep in output.episodes)


def test_blob_results_are_compared_and_logged(mini_copy):
    blob_sql = "select name, x'00ff' as b from products where price > 10"
    set_golden(mini_copy, "pricey_products", blob_sql)
    replace_script_sql(mini_copy, 0, "pricey_products",
                       "select name from products where price > 10", blob_sql)
    # beta answers orders_count with a BLOB where the golden has a count
    replace_script_sql(mini_copy, 1, "orders_count",
                       "SELECT COUNT(*) AS n, 42 AS extra FROM orders",
                       "SELECT x'00' AS n FROM orders")
    output = execute_plan(mini_copy)
    assert len(output.episodes) == 20
    assert output.unusable_cases == []
    cells = by_cell(output)
    for rep in range(2):
        verbatim = cells["replay-alpha", "pricey_products", rep]
        assert verbatim.outcome == "completed"
        assert (verbatim.indicator, verbatim.exact) == (1, True)
        blob = cells["replay-beta", "orders_count", rep]
        assert blob.outcome == "completed"
        assert (blob.indicator, blob.exact) == (0, False)
    assert cells["replay-beta", "pricey_products", 0].indicator == 0
    alpha = cells["replay-alpha", "pricey_products", 0]
    trace = (mini_copy.output_dir / alpha.trace_path).read_text()
    outcome = json.loads(trace.splitlines()[-1])
    assert {row[1] for row in outcome["final_result"]["rows"]} == {"00ff"}
    golden = json.loads(
        (mini_copy.output_dir / "goldens" / "pricey_products@sf1.json").read_text()
    )
    assert golden["result"]["rows"] == outcome["final_result"]["rows"]
    records = json.loads(output.records_path.read_text())
    assert len(records["episodes"]) == 20


def all_lines_plan(data_dir: Path, tmp_path: Path) -> RunPlan:
    """A plan over one `SELECT * FROM lineitem` case on data_dir: `gold`
    replays the golden SQL, `short` returns its first ten rows."""
    suite = tmp_path / "wh"
    (suite / "databases").mkdir(parents=True)
    (suite / "databases" / "wh").symlink_to(data_dir)
    golden = "SELECT * FROM lineitem"
    (suite / "manifest.json").write_text(json.dumps({"cases": [
        {"case_id": "all_lines", "question": "List every line item.",
         "SQL": golden, "db_id": "wh"},
    ]}))
    backends = []
    for name, sql in (("gold", golden), ("short", golden + " LIMIT 10")):
        scripts = suite / "replays" / name
        scripts.mkdir(parents=True)
        entry = {"fingerprint": None,
                 "response": {"text": "Thought: run it.\nAction: run_query\n"
                              f"Action Input: {json.dumps({'sql': sql})}",
                              "tool_call": None},
                 "usage": {"input_tokens": 100, "output_tokens": 10}}
        (scripts / "all_lines.jsonl").write_text(json.dumps(entry) + "\n")
        backends.append({"name": name, "kind": "replay", "model_id": name,
                         "scripts_dir": f"replays/{name}"})
    (suite / "pricing.json").write_text(json.dumps({"models": [
        {"id": name, "input_per_mtok": 1.0, "output_per_mtok": 2.0}
        for name in ("gold", "short")
    ]}))
    (suite / "plan.json").write_text(json.dumps({
        "suite": ".", "backends": backends, "pricing": "pricing.json",
        "output_dir": str(tmp_path / "out"), "scale_factors": [1.0],
        "concurrency": 1,
    }))
    return RunPlan.from_json_file(suite / "plan.json")


def test_large_result_trace_is_cut_and_verdicts_kept(sf_tiny_dir, tmp_path):
    output = execute_plan(all_lines_plan(sf_tiny_dir, tmp_path))
    records = json.loads(output.records_path.read_text())
    verdicts = {(ep["model"], ep["indicator"], ep["exact"], ep["precision"])
                for ep in records["episodes"]}
    assert verdicts == {("gold", 1, True, 1.0), ("short", 0, False, 1.0)}
    gold = by_cell(output)["gold", "all_lines", 0]
    trace = output.records_path.parent / gold.trace_path
    assert trace.stat().st_size < 16 * 1024
    logged = json.loads(trace.read_text().splitlines()[-1])["final_result"]
    assert logged["row_count"] == 6000 and 0 < len(logged["rows"]) < 6000
    # the short result fits, so its trace holds it whole
    short = json.loads(
        (output.records_path.parent / by_cell(output)["short", "all_lines", 0].trace_path)
        .read_text().splitlines()[-1]
    )["final_result"]
    assert "row_count" not in short and len(short["rows"]) == 10


def harness_errors(output) -> dict[int, EpisodeResult]:
    return {ep.repetition: ep for ep in output.episodes
            if ep.outcome == "harness-error"}


def logged_faults(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("harness error in ")]


def test_replay_mismatch_at_the_checker_bills_the_exchanges_made(
    mini_copy, caplog
):
    mismatch_entry(mini_copy.backends[0].scripts_dir / "orders_count.jsonl", 3)
    output = execute_plan(mini_copy)
    faulted = harness_errors(output)
    assert sorted(faulted) == [0, 1]
    for rep, ep in faulted.items():
        assert (ep.model, ep.case_id) == ("replay-alpha", "orders_count")
        assert ep.error.startswith("harness error: request fingerprint ")
        assert "does not match recorded" in ep.error
        # list 0.0036 + schema 0.0043 + the check's controller turn 0.0049
        assert ep.c_e2e == pytest.approx(0.0128)
        assert ep.stage_cost == pytest.approx(
            {"list": 0.0036, "schema": 0.0043, "check": 0.0049}
        )
        lines = [json.loads(line)
                 for line in (mini_copy.output_dir / ep.trace_path).read_text()
                 .splitlines()]
        assert [line["type"] for line in lines] == ["meta"] + ["iteration"] * 3 + [
            "outcome"
        ]
        assert [line["action"] for line in lines[1:4]] == [
            "list_tables", "get_schema", "check_query"
        ]
        assert (lines[-1]["outcome"], lines[-1]["error"]) == (ep.outcome, ep.error)
        # logged once, naming the cell, with the traceback
        [logged] = [message for message in logged_faults(caplog)
                    if f" replay-alpha/orders_count rep {rep} " in message]
        assert "Traceback" in logged and "ReplayMismatchError" in logged
    assert len(logged_faults(caplog)) == 2
    assert all(ep.outcome == "completed" for ep in output.episodes
               if ep.case_id != "orders_count" or ep.model != "replay-alpha")

    # the bill counts toward the ceiling: the two faulted episodes reach it
    mini_copy.concurrency, mini_copy.max_spend_usd = 1, 0.02
    mini_copy.output_dir = mini_copy.output_dir.parent / "capped"
    capped = execute_plan(mini_copy)
    assert sorted(harness_errors(capped)) == [0, 1]
    assert len(capped.episodes) == 2 and len(capped.skipped) == 18


def test_replay_mismatch_at_the_controller_keeps_the_finished_iterations(
    mini_copy,
):
    mismatch_entry(mini_copy.backends[0].scripts_dir / "orders_count.jsonl", 2)
    faulted = harness_errors(execute_plan(mini_copy))
    assert sorted(faulted) == [0, 1]
    for ep in faulted.values():
        assert ep.c_e2e == pytest.approx(0.0036 + 0.0043)
        assert set(ep.stage_cost) == {"list", "schema"}
        trace = trace_from_jsonl((mini_copy.output_dir / ep.trace_path).read_text())
        assert [it.action for it in trace.iterations] == ["list_tables", "get_schema"]
        assert (trace.outcome, trace.error) == (ep.outcome, ep.error)


def test_comparison_fault_is_harness_error_for_that_cell_only(
    mini_plan, monkeypatch, tmp_path, caplog
):
    containment_indicator = runner.containment_indicator

    def containment_raising_once(*args, **kwargs):
        if first_call(tmp_path / "raised"):
            raise RuntimeError("comparison blew up")
        return containment_indicator(*args, **kwargs)

    monkeypatch.setattr(runner, "containment_indicator", containment_raising_once)
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 20
    faulted = [ep for ep in output.episodes if ep.outcome == "harness-error"]
    assert len(faulted) == 1
    assert faulted[0].error == "harness error: comparison blew up"
    assert faulted[0].indicator == 0 and not faulted[0].exact
    assert faulted[0].precision == 0.0 and faulted[0].c_e2e > 0
    # the trace is the agent's account, which finished
    trace = trace_from_jsonl((mini_plan.output_dir / faulted[0].trace_path).read_text())
    assert (trace.outcome, trace.error) == ("completed", None)
    [logged] = logged_faults(caplog)
    assert "Traceback" in logged and "comparison blew up" in logged
    assert all(ep.outcome == "completed" for ep in output.episodes if ep not in faulted)


def test_episode_costs_match_token_stubs(mini_plan):
    output = execute_plan(mini_plan)
    for ep in output.episodes:
        if ep.model == "replay-alpha":
            # 6700 in @ 2.5/M + 320 out @ 10/M
            assert ep.c_e2e == pytest.approx(0.01995)
        else:
            # 4700 in @ 0.5/M + 250 out @ 3/M
            assert ep.c_e2e == pytest.approx(0.00310)
        assert ep.c_e2e == pytest.approx(sum(ep.stage_cost.values()))


def test_records_time_every_stage_and_cost_the_stages_run(mini_plan):
    for ep in execute_plan(mini_plan).episodes:
        trace = trace_from_jsonl((mini_plan.output_dir / ep.trace_path).read_text())
        assert list(ep.stage_seconds) == list(STAGES)
        assert sum(ep.stage_seconds.values()) == pytest.approx(trace.e2e_seconds)
        assert list(ep.stage_cost) == list(stage_tokens_oracle(trace.iterations))
        assert ep.c_e2e == sum(ep.stage_cost.values())


def test_rerun_reproduces_records_modulo_timing(mini_plan, tmp_path):
    first = execute_plan(mini_plan)
    mini_plan.output_dir = tmp_path / "out2"
    second = execute_plan(mini_plan)

    def key(ep):
        return (
            ep.model, ep.case_id, ep.repetition, ep.indicator,
            ep.exact, round(ep.precision, 12),
            round(ep.c_e2e, 12), ep.generated_sql, ep.outcome,
        )

    assert [key(e) for e in first.episodes] == [key(e) for e in second.episodes]


def test_exhausted_episode_records_indicator_zero(mini_plan):
    mini_plan.agent = AgentConfig(max_iterations=2, sample_rows=2)
    output = execute_plan(mini_plan)
    assert all(ep.outcome == "exhausted" for ep in output.episodes)
    assert all(ep.indicator == 0 for ep in output.episodes)
    assert all(ep.generated_sql == "" for ep in output.episodes)


def test_budget_guard_halts_new_episodes(mini_plan):
    mini_plan.max_spend_usd = 0.004
    mini_plan.concurrency = 1
    output = execute_plan(mini_plan)
    assert output.skipped
    assert len(output.episodes) + len(output.skipped) == 20
    assert all("budget" in s["reason"] for s in output.skipped)


# with one worker, exactly the crossing episode runs: a second cell queued
# with the worker under a ceiling would run one past it
@pytest.mark.parametrize("concurrency", [1, 2, 3])
def test_budget_overshoot_is_at_most_concurrency_minus_one(mini_plan, concurrency):
    # one backend, so every episode costs the same 0.01995
    mini_plan.backends = mini_plan.backends[:1]
    mini_plan.repetitions = 6
    mini_plan.concurrency = concurrency
    mini_plan.max_spend_usd = 0.1
    output = execute_plan(mini_plan)
    cost = output.episodes[0].c_e2e
    assert all(ep.c_e2e == cost for ep in output.episodes)
    # the episode that brings spend to the ceiling, counted in completion order
    crossing = math.ceil(mini_plan.max_spend_usd / cost)
    assert crossing == 6
    # episodes still running when it finished are recorded, none start after
    assert crossing <= len(output.episodes) <= crossing + concurrency - 1
    assert len(output.episodes) + len(output.skipped) == 30
    assert all(ep.outcome == "completed" for ep in output.episodes)


def test_records_json_round_trip(mini_plan):
    output = execute_plan(mini_plan)
    loaded = load_records(output.records_path)
    assert loaded == output.episodes
    first = json.loads(output.records_path.read_text())["episodes"][0]
    assert list(first) == [
        "model", "case_id", "repetition", "scale_factor", "indicator", "exact",
        "precision", "t_gold", "t_gen", "t_e2e", "c_e2e", "outcome", "golden_sql",
        "generated_sql", "stage_seconds", "stage_cost",
        "trace_path", "error", "estimated_usage",
    ]
    # `report` reads records.json from outside: a negative cost is refused on load
    negative = output.records_path.with_name("negative.json")
    negative.write_text(json.dumps({"episodes": [{**first, "c_e2e": -0.01}]}))
    with pytest.raises(ValueError, match="`c_e2e` is not a finite number >= 0"):
        load_records(negative)


def test_zero_budget_in_plan_file_runs_nothing(mini_suite_dir, tmp_path):
    data = json.loads((mini_suite_dir / "plan.json").read_text())
    for backend in data["backends"]:
        backend["scripts_dir"] = str(mini_suite_dir / backend["scripts_dir"])
    data.update(
        suite=str(mini_suite_dir),
        pricing=str(mini_suite_dir / data["pricing"]),
        output_dir=str(tmp_path / "out"),
        max_spend_usd=0,
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(data))
    plan = RunPlan.from_json_file(plan_path)
    assert plan.max_spend_usd == 0.0
    output = execute_plan(plan)
    assert output.episodes == []
    assert len(output.skipped) == 20
    assert all(s["reason"] == "budget ceiling $0.0 reached" for s in output.skipped)


def test_rate_limiter_spaces_out_calls():
    import time

    from bigsqlbench.llmclient import ReplayBackend, fingerprint_messages
    from bigsqlbench.runner import _RateLimiter, _ThrottledBackend

    entries = [from_json_object(ExchangeRecord, {
        "response": {"text": "ok", "tool_call": None},
        "usage": {"input_tokens": 1, "output_tokens": 1}})] * 4
    backend = _ThrottledBackend(ReplayBackend(entries), _RateLimiter(50.0))
    started = time.perf_counter()
    for _ in range(4):
        backend.complete([{"role": "user", "content": "x"}])
    elapsed = time.perf_counter() - started
    # bucket starts with 50 credits... capacity equals the rate, so the
    # first burst is free; the limiter only has to not crash or deadlock
    assert elapsed < 1.0


def test_rate_limiter_blocks_beyond_capacity():
    import time

    from bigsqlbench.runner import _RateLimiter

    limiter = _RateLimiter(2.0)
    started = time.perf_counter()
    for _ in range(4):
        limiter.acquire()
    # capacity 2 burst, then 2 more at 2/s: at least ~0.9s of waiting
    assert time.perf_counter() - started >= 0.8


def test_rate_limit_is_shared_by_worker_processes():
    from bigsqlbench.runner import _RateLimiter, _ThrottledBackend

    rate, calls_per_worker = 40.0, 32
    limiter = _RateLimiter(rate)
    entries = [from_json_object(ExchangeRecord, {
        "response": {"text": "ok", "tool_call": None},
        "usage": {"input_tokens": 1, "output_tokens": 1}})] * calls_per_worker

    def worker():
        backend = _ThrottledBackend(ReplayBackend(entries), limiter)
        for _ in range(calls_per_worker):
            backend.complete([{"role": "user", "content": "x"}])

    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=worker) for _ in range(2)]
    started = time.perf_counter()
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=30)
    elapsed = time.perf_counter() - started
    assert [process.exitcode for process in workers] == [0, 0]
    # one bucket for both: 64 calls, 40 of them from the full bucket.  With a
    # bucket each, every call would come from a full bucket at once.
    assert elapsed >= (2 * calls_per_worker - limiter.capacity) / rate


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_that_raises_fails_the_run(mini_plan, monkeypatch):
    def raising(run, spec):
        raise RuntimeError(f"episode {spec.case.case_id} blew up")

    monkeypatch.setattr(runner, "_run_episode", raising)
    with time_limit(30), pytest.raises(RuntimeError, match="failed") as failure:
        execute_plan(mini_plan)
    assert "RuntimeError: episode orders_count blew up" in str(failure.value)
    assert not (mini_plan.output_dir / "records.json").exists()


def test_worker_that_dies_fails_the_run(mini_plan, monkeypatch):
    monkeypatch.setattr(runner, "_run_episode", lambda run, spec: os._exit(1))
    with time_limit(30), pytest.raises(
        RuntimeError, match=r"runner worker \d+ exited with code 1 before it sent"
    ):
        execute_plan(mini_plan)
    assert not (mini_plan.output_dir / "records.json").exists()


# without a ceiling a worker is kept a share of the cells left, here
# thousands of indices, and sends back kilobytes per episode: neither end may
# block on a full pipe while the other does, whether the worker batches its
# episodes or, as in a live run, sends each alone and is topped up each time
@pytest.mark.parametrize("send_every_s", [runner._SEND_EVERY_S, 0.0])
def test_many_cells_without_a_ceiling_finish(monkeypatch, send_every_s):
    monkeypatch.setattr(runner, "_SEND_EVERY_S", send_every_s)
    monkeypatch.setattr(
        runner, "_run_episode",
        lambda run, spec: SimpleNamespace(c_e2e=0.0, cell=spec, trace=bytes(1000)),
    )
    run = SimpleNamespace(  # three workers: more than a 2-CPU host runs at once
        plan=SimpleNamespace(max_spend_usd=None, concurrency=3),
        sessions=SimpleNamespace(close=lambda: None),
    )
    with time_limit(30):
        episodes, unsent = runner._run_episodes(run, list(range(20_000)))
    assert sorted(ep.cell for ep in episodes) == list(range(20_000))
    assert unsent == []


def test_trace_write_failure_is_logged(mini_plan, caplog):
    mini_plan.output_dir.mkdir(parents=True)
    (mini_plan.output_dir / "traces").write_text("not a directory")
    output = execute_plan(mini_plan)
    assert all(ep.trace_path is None for ep in output.episodes)
    warnings = [r for r in caplog.records if r.name == "bigsqlbench.runner"]
    assert len(warnings) == len(output.episodes)
    assert "could not write episode trace" in warnings[0].getMessage()


def test_trace_files_written(mini_plan):
    output = execute_plan(mini_plan)
    for ep in output.episodes:
        assert ep.trace_path is not None
        first_line = (mini_plan.output_dir / ep.trace_path).read_text().splitlines()[0]
        assert json.loads(first_line)["type"] == "meta"


def test_each_trace_directory_created_once_per_run(mini_plan, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def recording(self, *args, **kwargs):
        if kwargs.get("parents"):  # not pathlib's own calls for the parents
            made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", recording)
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 20
    traces = mini_plan.output_dir / "traces"
    assert sorted(p for p in made if p.parent.parent == traces) == [
        traces / "replay-alpha" / "sf1", traces / "replay-beta" / "sf1",
    ]
    assert all(
        (mini_plan.output_dir / ep.trace_path).is_file() for ep in output.episodes
    )


# --- engine sessions ---


def track_sessions(monkeypatch, log_dir: Path):
    """Log every engine session opened and closed, in any process.

    Returns a function that reads the log: ["open", pid, serial, data_dir]
    and ["close", pid, serial] entries.
    """
    log_dir.mkdir()
    init, close = EmbeddedEngine.__init__, EmbeddedEngine.close
    serials = itertools.count()

    def tracking_init(self, config, snapshot):
        init(self, config, snapshot)
        self.tracked = [os.getpid(), next(serials)]
        log_in_process(log_dir, ["open", *self.tracked, str(config.data_dir)])

    def tracking_close(self):
        if self._conn is not None:  # not again for a second close()
            log_in_process(log_dir, ["close", *self.tracked])
        close(self)

    monkeypatch.setattr(EmbeddedEngine, "__init__", tracking_init)
    monkeypatch.setattr(EmbeddedEngine, "close", tracking_close)
    return lambda: read_process_logs(log_dir)


def opens(events) -> list[list]:
    return [event[1:] for event in events if event[0] == "open"]


def all_closed(events) -> bool:
    opened = [tuple(event[1:3]) for event in events if event[0] == "open"]
    closed = [tuple(event[1:3]) for event in events if event[0] == "close"]
    return sorted(opened) == sorted(closed)


def test_mini_run_opens_one_session_per_worker(mini_plan, monkeypatch, tmp_path):
    events = track_sessions(monkeypatch, tmp_path / "sessions")
    run_agent = runner.run_agent

    def slow_run_agent(*args):
        time.sleep(0.005)  # long enough that both workers take episodes
        return run_agent(*args)

    monkeypatch.setattr(runner, "run_agent", slow_run_agent)
    mini_plan.concurrency = 2
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 20
    main = os.getpid()
    opened = opens(events())
    # one session for validation, the suite load and the goldens
    assert [pid for pid, _, _ in opened].count(main) == 1
    workers = Counter((pid, data_dir) for pid, _, data_dir in opened if pid != main)
    assert len({pid for pid, _ in workers}) == 2
    assert set(workers.values()) == {1}
    assert {data_dir for _, data_dir in workers} == {
        str(mini_plan.suite / "databases" / "shop")
    }
    assert all_closed(events())


def test_each_worker_gets_a_cell_before_any_gets_two(mini_plan, monkeypatch, tmp_path):
    events = track_sessions(monkeypatch, tmp_path / "sessions")
    # five cells for five workers, with no ceiling: two cells may be queued
    # with a worker, yet none is idle while another holds two
    mini_plan.backends = mini_plan.backends[:1]
    mini_plan.repetitions = 1
    mini_plan.concurrency = 5
    mini_plan.max_spend_usd = None
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 5
    main = os.getpid()
    assert len({pid for pid, _, _ in opens(events()) if pid != main}) == 5
    assert all_closed(events())


def test_sessions_closed_after_harness_error(
    mini_plan, monkeypatch, tmp_path, caplog
):
    events = track_sessions(monkeypatch, tmp_path / "sessions")
    run_agent = runner.run_agent

    def failing_once(*args):
        if first_call(tmp_path / "raised"):
            raise RuntimeError("agent blew up")
        return run_agent(*args)

    monkeypatch.setattr(runner, "run_agent", failing_once)
    output = execute_plan(mini_plan)
    [faulted] = [ep for ep in output.episodes if ep.outcome == "harness-error"]
    assert faulted.error == "harness error: agent blew up"
    # the trace says so too, with no iteration, and costs nothing
    trace = trace_from_jsonl((mini_plan.output_dir / faulted.trace_path).read_text())
    assert (trace.outcome, trace.error) == (faulted.outcome, faulted.error)
    assert trace.iterations == [] and faulted.c_e2e == 0.0
    [logged] = logged_faults(caplog)
    assert "Traceback" in logged and "agent blew up" in logged
    assert len(opens(events())) >= 2 and all_closed(events())


def test_sessions_closed_after_budget_stop(mini_plan, monkeypatch, tmp_path):
    events = track_sessions(monkeypatch, tmp_path / "sessions")
    mini_plan.max_spend_usd = 0.004
    output = execute_plan(mini_plan)
    assert output.skipped and output.episodes
    assert len(opens(events())) >= 2 and all_closed(events())


def test_sessions_closed_when_planning_fails(mini_plan, tmp_path, monkeypatch):
    events = track_sessions(monkeypatch, tmp_path / "sessions")
    scripts = copy_scripts(mini_plan, 0, tmp_path)
    (scripts / "top_customer.jsonl").write_text("{not json\n")
    with pytest.raises(PlanValidationError):
        execute_plan(mini_plan)
    # the suite load compiled the goldens on a session, now closed
    assert len(opens(events())) == 1 and all_closed(events())


def poison_script(sql: str) -> list[ExchangeRecord]:
    text = f"Thought: try it.\nAction: run_query\nAction Input: {json.dumps({'sql': sql})}"
    return [from_json_object(ExchangeRecord, {
        "fingerprint": None, "response": {"text": text, "tool_call": None},
        "usage": {"input_tokens": 10, "output_tokens": 5}})]


def test_reused_session_gives_fresh_session_results(mini_plan, monkeypatch):
    # a small row cap, so that a recursive CTE overflows in its first fetch
    monkeypatch.setattr(engine_module, "DEFAULT_ROW_CAP", 100)
    with Sessions() as own:
        case = next(c for c in runner.load_suite(mini_plan.suite, None, own)
                    if c.case_id == "pricey_products")
        golden, t_gold = own.get(case.data_dir).execute_timed(case.golden_sql)
    backend = mini_plan.backends[0]
    script = ReplayBackend.from_path(
        backend.scripts_dir / "pricey_products.jsonl"
    ).entries

    def spec(script, name):
        # a record's trace path is relative to the run's output directory
        trace_dir = mini_plan.output_dir / name
        trace_dir.mkdir(parents=True, exist_ok=True)
        return runner._EpisodeSpec(backend, case, 0, 1.0, golden, t_gold,
                                   script, trace_dir)

    def run_on(sessions):
        return runner._Run(mini_plan, {}, sessions, {})

    poisons = [
        "PRAGMA case_sensitive_like=1",
        "CREATE TEMP VIEW products AS SELECT 'ghost' AS name, 99.0 AS price",
        "ATTACH ':memory:' AS products",
        "BEGIN",
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "LIMIT 50000) SELECT x FROM c",
    ]
    with Sessions() as shared:
        for i, sql in enumerate(poisons):
            poisoned = runner._run_episode(
                run_on(shared), spec(poison_script(sql), f"p{i}")
            )
            assert poisoned.outcome == "tool-error"
        assert "row cap" in poisoned.error
        reused = runner._run_episode(run_on(shared), spec(script, "reused"))
        assert len(shared._sessions) == 1
    with Sessions() as fresh_sessions:
        fresh = runner._run_episode(
            run_on(fresh_sessions), spec(script, "fresh")
        )

    def verdict(ep):
        untimed = untimed_trace((mini_plan.output_dir / ep.trace_path).read_text())
        return (ep.outcome, ep.indicator, ep.exact, ep.precision,
                ep.generated_sql, untimed)

    assert fresh.outcome == "completed" and fresh.indicator == 1
    assert verdict(reused) == verdict(fresh)


def test_an_exact_result_compares_its_rows_once(mini_plan, monkeypatch):
    compared = []
    real_rows_equal = resultset_module.rows_equal

    def counting_rows_equal(*args):
        compared.append(args)
        return real_rows_equal(*args)

    monkeypatch.setattr(resultset_module, "rows_equal", counting_rows_equal)
    with Sessions() as own:
        case = next(c for c in runner.load_suite(mini_plan.suite, None, own)
                    if c.case_id == "orders_count")
        golden, t_gold = own.get(case.data_dir).execute_timed(case.golden_sql)
        trace_dir = mini_plan.output_dir / "gold"
        trace_dir.mkdir(parents=True)
        spec = runner._EpisodeSpec(mini_plan.backends[0], case, 0, 1.0, golden,
                                   t_gold, poison_script(case.golden_sql), trace_dir)
        compared.clear()
        episode = runner._run_episode(runner._Run(mini_plan, {}, own, {}), spec)
    assert (episode.outcome, episode.indicator, episode.exact) == ("completed", 1, True)
    assert len(compared) == 1


def test_denied_goldens_become_unusable_cases(mini_copy, tmp_path):
    # denied when the suite compiles it
    set_golden(mini_copy, "orders_count", "PRAGMA case_sensitive_like=1")
    # compiles, and is denied when run
    set_golden(mini_copy, "top_customer", f"VACUUM INTO '{tmp_path}/v.db'")
    output = execute_plan(mini_copy)
    errors = {u["case_id"]: u["error"] for u in output.unusable_cases}
    assert sorted(errors) == ["orders_count", "top_customer"]
    assert errors["orders_count"].endswith("not authorized")
    assert errors["top_customer"].endswith("authorization denied")
    assert len(output.episodes) == 3 * 2 * 2
    assert all(ep.outcome == "completed" for ep in output.episodes)
    assert not (tmp_path / "v.db").exists()


# --- report assembly ---


def test_report_best_model_normalized_to_exactly_one():
    report = build_report(two_model_episodes())
    best_row = report["table2"][0]
    assert best_row["ves_star_norm"] == 1.0
    assert best_row["model"] == "fast"
    for stage_x in report["table2"][0]["time_variation"].values():
        assert stage_x == 1.0


def test_report_table_sort_orders():
    report = build_report(two_model_episodes())
    e2e = [row["e2e_mean"] for row in report["table1"]]
    assert e2e == sorted(e2e, reverse=True)
    ves_star = [row["ves_star"] for row in report["table2"]]
    assert ves_star == sorted(ves_star, reverse=True)
    vces = [row["vces"] for row in report["table3"]]
    assert vces == sorted(vces, reverse=True)


def test_report_single_model_all_ones():
    report = build_report([episode("only", "q1"), episode("only", "q2")])
    row2 = report["table2"][0]
    assert row2["ves_norm"] == 1.0
    assert row2["ves_star_norm"] == 1.0
    assert all(v == 1.0 for v in row2["time_variation"].values())
    row3 = report["table3"][0]
    assert row3["vces_norm"] == 1.0
    assert all(v == 1.0 for v in row3["cost_variation"].values())


def test_report_plotdata_rows_per_scale_factor():
    episodes = []
    for sf in (0.001, 0.01, 0.1):
        for model in ("m1", "m2"):
            episodes.append(episode(model, "q1", sf=sf))
    report = build_report(episodes)
    per_model = {}
    for row in report["plotdata_time"]:
        per_model.setdefault(row["model"], []).append(row["scale_factor"])
    assert per_model == {"m1": [0.001, 0.01, 0.1], "m2": [0.001, 0.01, 0.1]}


def test_report_ranking_invariant_under_common_time_scaling():
    base = two_model_episodes()
    scaled = []
    for ep in base:
        scaled.append(
            episode(
                ep.model, ep.case_id, rep=ep.repetition,
                t_gold=ep.t_gold * 7, t_gen=ep.t_gen * 7, t_e2e=ep.t_e2e * 7,
                c_e2e=ep.c_e2e,
                stage_seconds={k: v * 7 for k, v in ep.stage_seconds.items()},
                stage_cost=ep.stage_cost,
            )
        )
    order_base = [row["model"] for row in build_report(base)["table2"]]
    order_scaled = [row["model"] for row in build_report(scaled)["table2"]]
    assert order_base == order_scaled


def test_report_undefined_cvq_rendered_as_dashes():
    episodes = [
        episode("dud", "q1", indicator=0, exact=False, precision=0.0,
                t_gen=0.0, t_e2e=0.5)
    ]
    report = build_report(episodes)
    assert report["table3"][0]["cvq"] is None
    markdown = render_markdown(report)
    assert "--" in markdown


def test_report_per_query_mean_std_shape():
    episodes = [
        episode("m", "q1", rep=0, indicator=1),
        episode("m", "q1", rep=1, indicator=0, exact=False, precision=0.0,
                t_gen=0.0, t_e2e=0.5),
    ]
    rows = build_report(episodes)["per_query"]
    assert len(rows) == 1
    assert rows[0]["ex_mean"] == pytest.approx(0.5)
    assert rows[0]["ex_std"] == pytest.approx(0.5)


def test_render_report_writes_all_formats(tmp_path):
    episodes = two_model_episodes()
    written = render_report(
        episodes, ["json", "csv", "markdown", "plotdata"], tmp_path
    )
    names = {p.name for p in written}
    assert names == {
        "report.json", "records.csv", "report.md",
        "plotdata_time.csv", "plotdata_cost.csv",
    }
    report = json.loads((tmp_path / "report.json").read_text())
    assert {"table1", "table2", "table3", "per_query"} <= set(report)
    assert len((tmp_path / "records.csv").read_text().splitlines()) == 9


def test_render_report_matches_pinned_files(tmp_path):
    # the CLI's one list of formats names every renderer, in order
    assert tuple(report_module._RENDERERS) == REPORT_FORMATS
    written = render_report(two_model_episodes(), REPORT_FORMATS, tmp_path)
    assert sorted(p.name for p in written) == sorted(
        p.name for p in PINNED_REPORT.iterdir()
    )
    for path in written:
        assert path.read_bytes() == (PINNED_REPORT / path.name).read_bytes(), path.name


def test_render_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        render_report(two_model_episodes(), ["yaml"], tmp_path)
