from __future__ import annotations

import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from bigsqlbench.metrics import (
    EmptySuiteError,
    EpisodeResult,
    InvalidRateError,
    NormalizationError,
    aggregate,
    canonicalize_sql,
    cvq,
    exact_match,
    load_records,
    normalize_to_best,
    ves_per_query,
    ves_star_per_query,
    vces_per_query,
)

from tests.conftest import episode


def record(case_id="q1", **overrides) -> EpisodeResult:
    """An episode with round timings; `overrides` are `episode()`'s keywords."""
    timings = {"t_gold": 1.0, "t_gen": 1.0, "t_e2e": 2.0}
    return episode("m", case_id, **{**timings, **overrides})


# --- exact match ---


def test_em_identity():
    assert exact_match("SELECT a FROM t", "SELECT a FROM t") == 1


def test_em_whitespace_and_keyword_case():
    assert exact_match("SELECT a FROM t", "select  a from t") == 1


def test_em_distinct_queries():
    assert exact_match("SELECT a FROM t", "SELECT b FROM t") == 0


def test_em_identifier_case_is_significant():
    assert exact_match("SELECT col FROM t", "SELECT COL FROM t") == 0


def test_em_quoted_literals_untouched():
    assert exact_match("SELECT 'From' FROM t", "select 'From' from t") == 1
    assert exact_match("SELECT 'from' FROM t", "SELECT 'FROM' FROM t") == 0


def test_em_blank_query_is_zero():
    assert exact_match("", "SELECT 1") == 0
    assert exact_match("SELECT 1", "  ") == 0
    assert exact_match(" ", "") == 0


def test_canonicalizer_oracle_agreement():
    # both strings canonicalize to the same form, hence EM = 1
    a = "SELECT a FROM t"
    b = "select  a from t"
    assert canonicalize_sql(a) == canonicalize_sql(b) == "SELECT a FROM t"


# --- per-query metrics ---


def test_ves_formula():
    assert ves_per_query(record(t_gold=2.0, t_gen=4.0, t_e2e=5.0)) == 0.5


def test_ves_invalid_is_zero_without_touching_t_gen():
    assert ves_per_query(record(indicator=0, exact=False, t_gen=0.0, t_e2e=0.0)) == 0.0


def test_ves_identity_ratio():
    assert ves_per_query(record(t_gold=3.0, t_gen=3.0, t_e2e=4.0)) == 1.0


def test_ves_above_one_is_not_clamped():
    # generated queries can outrun the golden query; the ratio stays raw
    assert ves_per_query(record(t_gold=4.0, t_gen=2.0, t_e2e=4.0)) == 2.0


def test_ves_degenerate_timing():
    # a valid run ran and timed its query: a zero t_gen is refused on construction
    with pytest.raises(ValueError, match="a valid run must have a positive t_gen"):
        record(t_gen=0.0, t_e2e=0.0)


def test_ves_star_formula():
    r = record(precision=2 / 3, t_gold=2.0, t_gen=1.0, t_e2e=6.0)
    assert ves_star_per_query(r) == pytest.approx(0.222222222, rel=1e-8)


def test_ves_star_invalid_is_zero():
    assert ves_star_per_query(record(indicator=0, exact=False)) == 0.0


def test_ves_star_identity():
    r = record(precision=1.0, t_gold=2.0, t_gen=2.0, t_e2e=2.0)
    assert ves_star_per_query(r) == 1.0


def test_vces_formula():
    r = record(precision=1.0, t_gold=1.0, t_gen=1.0, t_e2e=2.0, c_e2e=0.01)
    assert vces_per_query(r) == pytest.approx(50.0)


def test_vces_halves_when_cost_doubles():
    r1 = record(c_e2e=0.01)
    r2 = record(c_e2e=0.02)
    assert vces_per_query(r1) == pytest.approx(2 * vces_per_query(r2))


def test_vces_degenerate_cost():
    # a valid run that cost $0 has no cost efficiency; an invalid one scores 0
    assert vces_per_query(record(c_e2e=0.0)) is None
    assert vces_per_query(record(indicator=0, exact=False, c_e2e=0.0)) == 0.0
    # a negative cost is refused before any metric sees it
    with pytest.raises(ValueError, match="`c_e2e` is not a finite number >= 0"):
        record(c_e2e=-0.01)


# --- cvq ---


def test_cvq_formula():
    assert cvq(0.01, 0.5) == pytest.approx(0.02)


def test_cvq_perfect_accuracy():
    assert cvq(0.0044, 1.0) == pytest.approx(0.0044)


def test_cvq_zero_rate_undefined():
    assert cvq(0.01, 0.0) is None


def test_cvq_invalid_rate():
    with pytest.raises(InvalidRateError):
        cvq(0.01, 1.5)


def test_cvq_monte_carlo_retry_simulation():
    # retry-until-success with Bernoulli(p) validity and fixed per-attempt
    # cost should, on average, cost cvq(C, p)
    rng = random.Random(12345)
    cost_per_attempt = 0.01
    for p in (0.2, 0.5, 1.0):
        total = 0.0
        trials = 20_000
        for _ in range(trials):
            while True:
                total += cost_per_attempt
                if rng.random() < p:
                    break
        simulated = total / trials
        assert simulated == pytest.approx(cvq(cost_per_attempt, p), rel=0.03)


# --- aggregation ---


def test_aggregate_means_per_query_values():
    records = [
        record(case_id="a", precision=1.0, t_gold=2.0, t_gen=2.0, t_e2e=2.0),
        record(case_id="b", indicator=0, exact=False, t_gen=0.0, t_e2e=0.0,
               golden="SELECT 2", generated="SELECT 3"),
    ]
    suite = aggregate(records)
    assert suite.n == 2
    assert suite.ves_star == pytest.approx(0.5)
    assert suite.em == pytest.approx(0.5)
    assert suite.p_hat == pytest.approx(0.5)


def test_aggregate_p_hat_over_ten_runs():
    records = [
        record(rep=i, indicator=1 if i < 6 else 0, exact=i < 6)
        for i in range(10)
    ]
    suite = aggregate(records)
    assert suite.p_hat == pytest.approx(0.6)


def test_aggregate_empty_suite():
    with pytest.raises(EmptySuiteError):
        aggregate([])


def test_aggregate_missing_generated_sql_counts_zero():
    suite = aggregate([record(generated="")])
    assert suite.em == 0.0


def test_aggregate_cvq_uses_mean_cost_over_all_runs():
    records = [
        record(rep=0, c_e2e=0.02),
        record(rep=1, indicator=0, exact=False, t_gen=0.0, t_e2e=0.0, c_e2e=0.04),
    ]
    suite = aggregate(records)
    # mean cost 0.03 over p_hat 0.5
    assert suite.cvq == pytest.approx(0.06)


def test_aggregate_cvq_undefined_when_all_invalid():
    records = [
        record(indicator=0, exact=False, t_gen=0.0, t_e2e=0.0, generated="SELECT 2")
    ]
    suite = aggregate(records)
    assert suite.cvq is None
    assert suite.p_hat == 0.0


def test_aggregate_vces_undefined_when_a_valid_record_cost_nothing():
    paid = record(c_e2e=0.01)
    assert aggregate([paid, record(c_e2e=0.0)]).vces is None
    # an invalid record that cost nothing scores 0, as any invalid record
    unpaid_invalid = record(indicator=0, exact=False, c_e2e=0.0)
    suite = aggregate([paid, unpaid_invalid])
    assert suite.vces == pytest.approx(vces_per_query(paid) / 2)


def test_aggregate_single_record_equals_per_query():
    r = record(precision=0.5, t_gold=1.0, t_gen=2.0, t_e2e=4.0, c_e2e=0.1)
    suite = aggregate([r])
    assert suite.ves == ves_per_query(r)
    assert suite.ves_star == ves_star_per_query(r)
    assert suite.vces == vces_per_query(r)


# --- normalize_to_best ---


def test_normalize_higher_is_better():
    assert normalize_to_best({"A": 2.0, "B": 1.0}, True) == {"A": 1.0, "B": 0.5}


def test_normalize_lower_is_better_latency_pattern():
    out = normalize_to_best({"A": 6.55, "B": 12.60}, False)
    assert out["A"] == 1.0
    assert out["B"] == pytest.approx(1.92, abs=0.005)


def test_normalize_single_entry():
    assert normalize_to_best({"X": 3.7}, True) == {"X": 1.0}


def test_normalize_degenerate_best():
    with pytest.raises(NormalizationError):
        normalize_to_best({"A": 0.0, "B": 1.0}, False)


def test_normalize_best_maps_to_exactly_one():
    out = normalize_to_best({"A": 0.31, "B": 0.17, "C": 0.05}, True)
    assert out["A"] == 1.0


# --- record validation ---


def test_record_rejects_bad_indicator():
    with pytest.raises(ValueError):
        record(indicator=2)


def test_record_rejects_negative_t_gold():
    with pytest.raises(ValueError):
        record(t_gold=0.0)


def test_record_rejects_t_e2e_below_t_gen():
    with pytest.raises(ValueError):
        record(t_gen=3.0, t_e2e=2.0)


def test_record_valid_property():
    assert record().valid
    assert not record(indicator=0, exact=False, t_gen=0.0, t_e2e=0.0).valid


def reworded(overrides, message, case_id):
    """A case whose refusal was reworded; it keeps its test id."""
    return pytest.param(overrides, message, id=case_id)


@pytest.mark.parametrize(
    "overrides, message",
    [
        reworded(dict(t_gold=math.nan), "`t_gold` is not a finite number > 0",
                 "overrides0-t_gold must be finite: nan"),
        reworded(dict(t_gen=math.nan), "`t_gen` is not a finite number >= 0",
                 "overrides1-t_gen must be finite: nan"),
        reworded(dict(t_e2e=math.inf), "`t_e2e` is not a finite number >= 0",
                 "overrides2-t_e2e must be finite: inf"),
        reworded(dict(c_e2e=math.nan), "`c_e2e` is not a finite number >= 0",
                 "overrides3-c_e2e must be finite: nan"),
        reworded(dict(precision=math.nan), "`precision` is not a number in [0, 1]",
                 "overrides4-precision must be finite: nan"),
        (dict(case_id=7), "`case_id` is not a string"),
        (dict(exact=1), "`exact` is not a boolean"),
        reworded(dict(c_e2e="0.01"), "`c_e2e` is not a finite number >= 0",
                 "overrides7-`c_e2e` is not a number"),
        reworded(dict(stage_cost={"run": math.nan}),
                 "`stage_cost.run` is not a finite number >= 0",
                 "overrides8-stage_cost values must be finite"),
        reworded(dict(stage_seconds={"run": -1.0}),
                 "`stage_seconds.run` is not a finite number >= 0",
                 "overrides9-stage_seconds values must be finite"),
        (dict(indicator=0, exact=True, t_gen=0.0),
         "an exact result must have indicator 1, got 0"),
        (dict(rep=True), "`repetition` is not an int"),
        reworded(dict(indicator=True), "`indicator` is not one of 0, 1",
                 "overrides12-`indicator` is not an int"),
        reworded(dict(sf=True), "`scale_factor` is not a finite number > 0",
                 "overrides13-`scale_factor` is not a number"),
        reworded(dict(t_gold=True), "`t_gold` is not a finite number > 0",
                 "overrides14-`t_gold` is not a number"),
        reworded(dict(c_e2e=False), "`c_e2e` is not a finite number >= 0",
                 "overrides15-`c_e2e` is not a number"),
        reworded(dict(stage_seconds={"run": True}),
                 "`stage_seconds.run` is not a finite number >= 0",
                 "overrides16-`stage_seconds.run` is not a number"),
        reworded(dict(stage_cost={"run": False}),
                 "`stage_cost.run` is not a finite number >= 0",
                 "overrides17-`stage_cost.run` is not a number"),
    ],
)
def test_record_refuses_what_a_report_cannot_render(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        record(**overrides)


def test_load_records_names_the_episode_and_its_missing_and_unknown_fields(tmp_path):
    good = record().to_json_dict()
    bad = {**good, "note": "x"}
    del bad["t_gen"]
    path = tmp_path / "records.json"
    path.write_text(json.dumps({"episodes": [good, bad]}))
    expected = (
        f"records {path}: episode 1: missing key 't_gen'; unknown key 'note'"
    )
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_records(path)
    path.write_text(json.dumps({"episodes": [good, [1, 2]]}))
    with pytest.raises(ValueError, match="episode 1: not a JSON object"):
        load_records(path)
    path.write_text(json.dumps({"episodes": [good]}))
    assert load_records(path) == [record()]


# --- property tests ---

_records = st.builds(
    lambda verdict, **measured: record(
        indicator=verdict[0], exact=verdict[1], **measured
    ),
    # (indicator, exact): strict equality implies containment
    verdict=st.sampled_from([(0, False), (1, False), (1, True)]),
    precision=st.floats(min_value=0.0, max_value=1.0),
    t_gold=st.floats(min_value=1e-3, max_value=100.0),
    t_gen=st.floats(min_value=1e-3, max_value=100.0),
    t_e2e=st.floats(min_value=100.0, max_value=1000.0),
    c_e2e=st.floats(min_value=1e-6, max_value=10.0),
)


@given(_records)
def test_prop_ves_star_at_most_ves(r):
    assert ves_star_per_query(r) <= ves_per_query(r) + 1e-15


@given(_records, st.floats(min_value=0.1, max_value=10.0))
def test_prop_cost_scaling(r, k):
    scaled = dataclasses.replace(r, c_e2e=r.c_e2e * k)
    assert vces_per_query(scaled) == pytest.approx(vces_per_query(r) / k, rel=1e-9)
    assert ves_per_query(scaled) == ves_per_query(r)
    assert ves_star_per_query(scaled) == ves_star_per_query(r)


@given(_records, st.floats(min_value=0.1, max_value=10.0))
def test_prop_joint_time_scaling(r, k):
    scaled = dataclasses.replace(
        r, t_gold=r.t_gold * k, t_gen=r.t_gen * k, t_e2e=r.t_e2e * k
    )
    assert ves_per_query(scaled) == pytest.approx(ves_per_query(r), rel=1e-9)
    assert ves_star_per_query(scaled) == pytest.approx(
        ves_star_per_query(r), rel=1e-9
    )


@given(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-3, max_value=1.0),
)
def test_prop_cvq_times_p_recovers_cost(c, p):
    value = cvq(c, p)
    assert value is not None
    assert math.isclose(value * p, c, rel_tol=1e-12)
