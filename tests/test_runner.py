from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from bigsqlbench import runner
from bigsqlbench.agent import AgentConfig
from bigsqlbench.costmodel import EnginePricing
from bigsqlbench.metrics import MetricRecord
from bigsqlbench.report import build_report, render_markdown, render_report
from bigsqlbench.runner import (
    EpisodeResult,
    PlanValidationError,
    RunPlan,
    execute_plan,
    load_records,
    validate_plan,
)
from tests.test_engine import count_registrations


PINNED_RECORDS = Path(__file__).parent / "data" / "mini_records_untimed.json"
TIMING_FIELDS = ("t_gold", "t_gen", "t_e2e", "stage_seconds", "stage_percentages")


def untimed_records_text(output_dir: Path) -> str:
    """records.json minus clock-derived fields, trace paths made relative."""
    records = json.loads((output_dir / "records.json").read_text())
    for ep in records["episodes"]:
        for name in TIMING_FIELDS:
            del ep[name]
        ep["trace_path"] = Path(ep["trace_path"]).relative_to(output_dir).as_posix()
    return json.dumps(records, indent=2) + "\n"


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
    assert all(ep.record.indicator == 1 for ep in alpha)
    assert all(ep.outcome == "completed" for ep in alpha)

    beta_by_case = {}
    for ep in per_backend["replay-beta"]:
        beta_by_case.setdefault(ep.case_id, []).append(ep)
    assert all(e.record.indicator == 1 for e in beta_by_case["orders_count"])
    assert all(
        e.record.precision == pytest.approx(0.5)
        for e in beta_by_case["orders_count"]
    )
    assert all(e.record.indicator == 0 for e in beta_by_case["category_quantity"])
    assert all(e.record.indicator == 0 for e in beta_by_case["top_customer"])
    assert all(e.record.indicator == 1 for e in beta_by_case["pricey_products"])


def test_mini_records_match_pinned_untimed_copy(mini_plan):
    mini_plan.max_spend_usd = None
    execute_plan(mini_plan)
    assert untimed_records_text(mini_plan.output_dir) == PINNED_RECORDS.read_text()


def test_mini_plan_registers_each_database_once(mini_plan, monkeypatch):
    loaded = count_registrations(monkeypatch)
    execute_plan(mini_plan)
    assert sorted(p.name for p in loaded) == ["orders.csv", "products.csv"]


def test_comparison_fault_is_harness_error_for_that_cell_only(mini_plan, monkeypatch):
    containment_indicator = runner.containment_indicator
    lock = threading.Lock()
    raised = []

    def containment_raising_once(*args, **kwargs):
        with lock:
            if not raised:
                raised.append(True)
                raise RuntimeError("comparison blew up")
        return containment_indicator(*args, **kwargs)

    monkeypatch.setattr(runner, "containment_indicator", containment_raising_once)
    output = execute_plan(mini_plan)
    assert len(output.episodes) == 20
    faulted = [ep for ep in output.episodes if ep.outcome == "harness-error"]
    assert len(faulted) == 1
    assert "comparison blew up" in faulted[0].error
    assert faulted[0].record.indicator == 0 and not faulted[0].record.exact
    assert all(ep.outcome == "completed" for ep in output.episodes if ep not in faulted)


def test_episode_costs_match_token_stubs(mini_plan):
    output = execute_plan(mini_plan)
    for ep in output.episodes:
        if ep.model == "replay-alpha":
            # 6700 in @ 2.5/M + 320 out @ 10/M
            assert ep.record.c_e2e == pytest.approx(0.01995)
        else:
            # 4700 in @ 0.5/M + 250 out @ 3/M
            assert ep.record.c_e2e == pytest.approx(0.00310)
        assert ep.record.c_e2e == pytest.approx(sum(ep.stage_cost.values()))


def test_rerun_reproduces_records_modulo_timing(mini_plan, tmp_path):
    first = execute_plan(mini_plan)
    mini_plan.output_dir = tmp_path / "out2"
    second = execute_plan(mini_plan)

    def key(ep):
        return (
            ep.model, ep.case_id, ep.repetition, ep.record.indicator,
            ep.record.exact, round(ep.record.precision, 12),
            round(ep.record.c_e2e, 12), ep.generated_sql, ep.outcome,
        )

    assert [key(e) for e in first.episodes] == [key(e) for e in second.episodes]


def test_exhausted_episode_records_indicator_zero(mini_plan):
    mini_plan.agent = AgentConfig(max_iterations=2, sample_rows=2)
    output = execute_plan(mini_plan)
    assert all(ep.outcome == "exhausted" for ep in output.episodes)
    assert all(ep.record.indicator == 0 for ep in output.episodes)
    assert all(ep.generated_sql == "" for ep in output.episodes)


def test_budget_guard_halts_new_episodes(mini_plan):
    mini_plan.max_spend_usd = 0.004
    mini_plan.concurrency = 1
    output = execute_plan(mini_plan)
    assert output.skipped
    assert len(output.episodes) + len(output.skipped) == 20
    assert all("budget" in s["reason"] for s in output.skipped)


def test_records_json_round_trip(mini_plan):
    output = execute_plan(mini_plan)
    loaded = load_records(output.records_path)
    assert len(loaded) == len(output.episodes)
    assert loaded[0].record.t_gold == output.episodes[0].record.t_gold


def test_rate_limiter_spaces_out_calls():
    import time

    from bigsqlbench.llmclient import ReplayBackend
    from bigsqlbench.runner import _RateLimiter, _ThrottledBackend

    entries = [
        {"response": {"text": "ok", "tool_call": None},
         "usage": {"input_tokens": 1, "output_tokens": 1}}
    ] * 4
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
        assert json.loads(
            open(ep.trace_path).readline()
        )["type"] == "meta"


# --- report assembly ---


def episode(model, case_id, rep=0, sf=1.0, indicator=1, precision=1.0,
            t_gold=0.002, t_gen=0.001, t_e2e=0.5, c_e2e=0.01, exact=True,
            stage_seconds=None, stage_cost=None, generated="SELECT 1"):
    record = MetricRecord(
        case_id=case_id, run_id=rep, indicator=indicator, precision=precision,
        t_gold=t_gold, t_gen=t_gen, t_e2e=t_e2e, c_e2e=c_e2e, exact=exact,
    )
    seconds = stage_seconds or {
        "list": 0.1, "schema": 0.1, "check": 0.2, "run": 0.1, "finalize": 0.0,
    }
    total = sum(seconds.values())
    return EpisodeResult(
        model=model, case_id=case_id, repetition=rep, scale_factor=sf,
        record=record, outcome="completed", golden_sql="SELECT 1",
        generated_sql=generated,
        stage_seconds=seconds,
        stage_percentages={k: 100.0 * v / total for k, v in seconds.items()},
        stage_cost=stage_cost or {
            "list": 0.002, "schema": 0.002, "check": 0.004, "run": 0.002,
        },
    )


def two_model_episodes():
    fast = [episode("fast", f"q{i}", t_e2e=0.4, c_e2e=0.01) for i in range(4)]
    slow = [
        episode("slow", f"q{i}", t_e2e=0.9, c_e2e=0.03,
                stage_seconds={"list": 0.2, "schema": 0.2, "check": 0.3,
                               "run": 0.2, "finalize": 0.0},
                stage_cost={"list": 0.006, "schema": 0.006, "check": 0.012,
                            "run": 0.006})
        for i in range(4)
    ]
    return fast + slow


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
        r = ep.record
        scaled.append(
            episode(
                ep.model, ep.case_id, rep=ep.repetition,
                t_gold=r.t_gold * 7, t_gen=r.t_gen * 7, t_e2e=r.t_e2e * 7,
                c_e2e=r.c_e2e,
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


def test_render_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        render_report(two_model_episodes(), ["yaml"], tmp_path)
