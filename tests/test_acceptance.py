"""Acceptance criteria: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import functools
import json
import math
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bigsqlbench.agent import AgentConfig, run_agent, stage_breakdown, trace_to_jsonl
from bigsqlbench.costmodel import EnginePricing, PricingEntry, compose_ledger, llm_cost
from bigsqlbench.engine import Sessions
from bigsqlbench.llmclient import ExchangeRecord, ReplayBackend
from bigsqlbench.metrics import (
    aggregate,
    cvq,
    from_json_object,
    ves_per_query,
    ves_star_per_query,
    vces_per_query,
)
from bigsqlbench.resultset import (
    Column,
    ResultTable,
    column_precision,
    containment_indicator,
    tables_equal_exact,
)
from bigsqlbench.suite import warehouse_schema

from .conftest import episode, untimed_trace
from .oracles import PRICING_SUMMARY_SQL, csv_row_count, pricing_summary_oracle

REPO_ROOT = Path(__file__).resolve().parent.parent


def criterion(number, label):
    """Print one PASS/FAIL line per criterion, whatever pytest captures."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {label}")

        return wrapper

    return decorate


# --- 1: metric formulas against a brute-force transcription ---


def _random_records(rng, n):
    records = []
    for i in range(n):
        indicator = 1 if rng.random() < 0.6 else 0
        t_gen = rng.uniform(1e-3, 10.0)
        measured = dict(
            precision=rng.random(),
            t_gold=rng.uniform(1e-3, 10.0),
            t_e2e=t_gen + rng.uniform(0.0, 100.0),
            c_e2e=rng.uniform(1e-5, 1.0),
            exact=rng.random() < 0.5 and indicator == 1,
        )
        golden = "SELECT " + "".join(rng.choices(string.ascii_lowercase, k=8))
        generated = golden if rng.random() < 0.5 else golden + "_x"
        records.append(
            episode("m", f"c{i % 17}", rep=i, indicator=indicator, t_gen=t_gen,
                    golden=golden, generated=generated, **measured)
        )
    return records


def _reference_suite(records):
    # straight transcription of the metric definitions, summed exactly
    n = len(records)
    em = math.fsum(
        1.0 if r.golden_sql == r.generated_sql else 0.0 for r in records
    ) / n
    ea = math.fsum(1.0 if r.exact else 0.0 for r in records) / n
    ves = math.fsum(
        r.indicator * r.t_gold / r.t_gen if r.indicator else 0.0 for r in records
    ) / n
    ves_star = math.fsum(
        r.indicator * r.precision * r.t_gold / r.t_e2e if r.indicator else 0.0
        for r in records
    ) / n
    vces = math.fsum(
        (r.indicator * r.precision * r.t_gold / r.t_e2e) / r.c_e2e
        if r.indicator
        else 0.0
        for r in records
    ) / n
    p_hat = math.fsum(float(r.indicator) for r in records) / n
    mean_cost = math.fsum(r.c_e2e for r in records) / n
    ref_cvq = mean_cost / p_hat if p_hat > 0 else None
    return em, ea, ves, ves_star, vces, ref_cvq, p_hat


def _close(a, b, rel=1e-12):
    if b == 0.0:
        return a == 0.0
    return abs(a - b) / abs(b) <= rel


@criterion(1, "metric formulas agree with brute-force reference at 1e-12")
def test_acceptance_1_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240601)
    records = _random_records(rng, 1000)
    suite = aggregate(records)
    em, ea, ves, ves_star, vces, ref_cvq, p_hat = _reference_suite(records)

    assert _close(suite.em, em)
    assert _close(suite.ea, ea)
    assert _close(suite.ves, ves)
    assert _close(suite.ves_star, ves_star)
    assert _close(suite.vces, vces)
    assert _close(suite.p_hat, p_hat)
    assert suite.cvq is not None and ref_cvq is not None
    assert _close(suite.cvq, ref_cvq)

    for r in records:
        ref_v = r.indicator * r.t_gold / r.t_gen if r.indicator else 0.0
        ref_vs = (
            r.indicator * r.precision * r.t_gold / r.t_e2e if r.indicator else 0.0
        )
        ref_vc = ref_vs / r.c_e2e if r.indicator else 0.0
        assert _close(ves_per_query(r), ref_v)
        assert _close(ves_star_per_query(r), ref_vs)
        assert _close(vces_per_query(r), ref_vc)

    assert time.perf_counter() - started < 5.0


# --- 2: outcome taxonomy over generated table pairs ---


def _random_truth_table(rng):
    n_cols = rng.randint(1, 4)
    names = rng.sample(
        ["alpha", "bravo", "carol", "delta", "echo", "fox", "golf"], n_cols
    )
    tags = [rng.choice(["integer", "float", "text"]) for _ in range(n_cols)]
    rows = []
    for _ in range(rng.randint(0, 6)):
        row = []
        for tag in tags:
            if tag == "integer":
                row.append(rng.randint(-50, 50))
            elif tag == "float":
                row.append(round(rng.uniform(-100, 100), 3))
            else:
                row.append("".join(rng.choices("abcxyz", k=4)))
        rows.append(tuple(row))
    return ResultTable.build(list(zip(names, tags)), rows)


@criterion(2, "outcome taxonomy holds on 500 generated table pairs")
def test_acceptance_2_outcome_taxonomy():
    started = time.perf_counter()
    rng = random.Random(987654)
    violations = 0
    for _ in range(500):
        truth = _random_truth_table(rng)

        # superfluous generated column: still valid, precision strictly drops
        widened = ResultTable(
            columns=truth.columns + (Column("zulu_extra", "integer"),),
            rows=tuple(row + (rng.randint(0, 9),) for row in truth.rows),
        )
        if containment_indicator(truth, widened) != 1:
            violations += 1
        if not column_precision(truth, widened) < column_precision(truth, truth):
            violations += 1

        # missing truth column: invalid
        narrowed = ResultTable(
            columns=truth.columns[1:], rows=tuple(row[1:] for row in truth.rows)
        )
        if containment_indicator(truth, narrowed) != 0:
            violations += 1

        # row-count mismatch on the truth columns: invalid
        extra_row = tuple(
            rng.randint(1000, 2000) if c.type_tag == "integer"
            else (rng.uniform(1000, 2000) if c.type_tag == "float" else "zzzz")
            for c in truth.columns
        )
        padded = ResultTable(columns=truth.columns, rows=truth.rows + (extra_row,))
        if containment_indicator(truth, padded) != 0:
            violations += 1

    assert violations == 0
    assert time.perf_counter() - started < 5.0


# --- 3: dominance of the end-to-end score by the plain score ---


@criterion(3, "VES* never exceeds VES when T_e2e >= T_gen")
def test_acceptance_3_ves_star_dominated():
    rng = random.Random(13579)
    records = _random_records(rng, 1000)
    violations = sum(
        1 for r in records if ves_star_per_query(r) > ves_per_query(r) + 1e-15
    )
    assert violations == 0


# --- 4: geometric retry model against simulation ---


@criterion(4, "Monte-Carlo retry cost matches C/p within 2% at 100k trials")
def test_acceptance_4_cvq_geometric_model():
    started = time.perf_counter()
    rng = random.Random(24680)
    cost_per_attempt = 0.0125
    for p in (0.2, 0.5, 1.0):
        trials = 100_000
        total = 0.0
        for _ in range(trials):
            attempts = 1
            while rng.random() >= p:
                attempts += 1
            total += attempts * cost_per_attempt
        simulated = total / trials
        expected = cvq(cost_per_attempt, p)
        assert expected is not None
        assert abs(simulated - expected) / expected <= 0.02, p
    assert time.perf_counter() - started < 10.0


# --- 5: deterministic four-tool episode on the bundled database ---


def _shop_episode(mini_suite_dir):
    llm = ReplayBackend.from_path(
        mini_suite_dir / "replays" / "alpha" / "orders_count.jsonl",
        model_id="replay-alpha",
    )
    data_dir = mini_suite_dir / "databases" / "shop"
    with Sessions() as own:
        return run_agent(
            "How many orders have been placed in total?",
            AgentConfig(sample_rows=2),
            llm,
            own.get(data_dir),
        )


@criterion(5, "replay episode: four tools, single run, stable breakdown")
def test_acceptance_5_deterministic_episode(mini_suite_dir):
    trace = _shop_episode(mini_suite_dir)
    assert trace.outcome == "completed"
    assert [it.action for it in trace.iterations] == [
        "list_tables", "get_schema", "check_query", "run_query",
    ]
    assert sum(1 for it in trace.iterations if it.action == "run_query") == 1
    breakdown = stage_breakdown(trace)
    assert list(breakdown) == ["list", "schema", "check", "run"]
    seconds = sum(usage.seconds for usage in breakdown.values())
    assert 100.0 * seconds / trace.e2e_seconds == pytest.approx(100.0, abs=0.1)

    rerun = _shop_episode(mini_suite_dir)
    first = untimed_trace(trace_to_jsonl(trace)).encode()
    second = untimed_trace(trace_to_jsonl(rerun)).encode()
    assert first == second


# --- 6: cost accounting identity ---


@criterion(6, "ledger equals the hand-summed spreadsheet and stage sum")
def test_acceptance_6_cost_accounting(mini_suite_dir):
    trace = _shop_episode(mini_suite_dir)
    pricing = PricingEntry("replay-alpha", input_per_mtok=2.5, output_per_mtok=10.0)
    stage_cost = compose_ledger(
        stage_breakdown(trace), pricing, EnginePricing("free", 0.0)
    )

    # spreadsheet: per-stage token stubs from the recorded dialogue
    expected_stage = {
        "list": 1200 * 2.5 / 1e6 + 60 * 10.0 / 1e6,
        "schema": 1400 * 2.5 / 1e6 + 80 * 10.0 / 1e6,
        "check": 2300 * 2.5 / 1e6 + 110 * 10.0 / 1e6,
        "run": 1800 * 2.5 / 1e6 + 70 * 10.0 / 1e6,
    }
    for stage, expected in expected_stage.items():
        assert stage_cost[stage] == expected
    hand_total = (
        expected_stage["list"] + expected_stage["schema"]
        + expected_stage["check"] + expected_stage["run"]
    )
    assert list(stage_cost) == list(expected_stage)
    assert sum(stage_cost.values()) == hand_total

    # per-million-token price points on one million tokens, exact
    assert llm_cost(PricingEntry("a", 0.5, 3.0), 1_000_000, 1_000_000) == 3.50
    assert llm_cost(PricingEntry("b", 2.5, 10.0), 1_000_000, 1_000_000) == 12.50
    assert llm_cost(PricingEntry("b", 2.5, 10.0), 2_000_000, 0) == 5.00


# --- 7: structural checks on the synthetic warehouse ---


@criterion(7, "synthetic data: fixed/scaled cardinalities and golden oracle")
def test_acceptance_7_structural_checks(sessions, sf_tiny_dir, sf_small_dir):
    for data_dir in (sf_tiny_dir, sf_small_dir):
        assert csv_row_count(data_dir / "region.csv") == 5

    for sf, data_dir in ((0.001, sf_tiny_dir), (0.01, sf_small_dir)):
        for table in warehouse_schema().tables:
            if table.fixed:
                continue
            expected = round(table.base_rows * sf)
            actual = csv_row_count(data_dir / f"{table.name}.csv")
            assert abs(actual - expected) <= 1, (table.name, sf)

    for data_dir in (sf_tiny_dir, sf_small_dir):
        result, _ = sessions.get(data_dir).execute_timed(PRICING_SUMMARY_SQL)
        assert tables_equal_exact(pricing_summary_oracle(data_dir), result)


# --- 8: data scale shifts run share and expected cost ---

_SCALE_SCRIPT = [from_json_object(ExchangeRecord, entry) for entry in [
    {
        "response": {
            "text": "Thought: look around.\nAction: list_tables\nAction Input: {}",
            "tool_call": None,
        },
        "usage": {"input_tokens": 1000, "output_tokens": 40},
    },
    {
        "response": {
            "text": (
                "Thought: run the summary.\nAction: run_query\n"
                f'Action Input: {json.dumps({"sql": PRICING_SUMMARY_SQL})}'
            ),
            "tool_call": None,
        },
        "usage": {"input_tokens": 1200, "output_tokens": 90},
    },
]]


def _scale_episode(engine):
    llm = ReplayBackend(_SCALE_SCRIPT, model_id="fixed-agent")
    trace = run_agent("pricing summary", AgentConfig(), llm, engine)
    assert trace.outcome == "completed"
    stages = stage_breakdown(trace)
    share = 100.0 * stages["run"].seconds / trace.e2e_seconds
    pricing = PricingEntry("fixed-agent", 2.5, 10.0)
    stage_cost = compose_ledger(stages, pricing, EnginePricing("per-second", 0.10))
    return share, sum(stage_cost.values())


@criterion(8, "larger scale grows the run-stage share and the expected cost")
def test_acceptance_8_scale_trend(sessions, sf_tiny_dir, sf_small_dir):
    tiny = sorted(_scale_episode(sessions.get(sf_tiny_dir)) for _ in range(3))[1]
    small = sorted(_scale_episode(sessions.get(sf_small_dir)) for _ in range(3))[1]
    share_tiny, cost_tiny = tiny
    share_small, cost_small = small
    assert share_small > share_tiny
    # validity rate held at 1 on both scales, so the expected cost per
    # valid query is just the episode cost; it must grow with runtime
    cvq_tiny = cvq(cost_tiny, 1.0)
    cvq_small = cvq(cost_small, 1.0)
    assert cvq_small is not None and cvq_tiny is not None
    assert cvq_small > cvq_tiny


# --- 9: offline end-to-end run through the CLI ---


@criterion(9, "CLI run + report over the bundled suite, shaped and sorted")
def test_acceptance_9_end_to_end_cli(mini_suite_dir, tmp_path):
    started = time.perf_counter()
    out_dir = tmp_path / "out"
    run = subprocess.run(
        [
            sys.executable, "-m", "bigsqlbench", "run",
            "--plan", str(mini_suite_dir / "plan.json"),
            "--output-dir", str(out_dir),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert run.returncode == 0, run.stderr

    report_dir = tmp_path / "report"
    report = subprocess.run(
        [
            sys.executable, "-m", "bigsqlbench", "report",
            "--records", str(out_dir / "records.json"),
            "--format", "json,csv,markdown,plotdata",
            "--output-dir", str(report_dir),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert report.returncode == 0, report.stderr

    data = json.loads((report_dir / "report.json").read_text())

    e2e_means = [row["e2e_mean"] for row in data["table1"]]
    assert e2e_means == sorted(e2e_means, reverse=True)

    ves_star = [row["ves_star"] for row in data["table2"]]
    assert ves_star == sorted(ves_star, reverse=True)
    assert data["table2"][0]["ves_star_norm"] == 1.0

    vces = [row["vces"] for row in data["table3"]]
    assert vces == sorted(vces, reverse=True)
    assert data["table3"][0]["vces_norm"] == 1.0

    markdown = (report_dir / "report.md").read_text()
    assert "1.00x" in markdown

    # two replay models over five cases, two repetitions each
    records_csv = (report_dir / "records.csv").read_text()
    assert len(records_csv.strip().splitlines()) == 21

    assert time.perf_counter() - started < 60.0
