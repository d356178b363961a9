from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from bigsqlbench.agent import AgentTrace, Iteration, stage_breakdown
from bigsqlbench.costmodel import (
    EnginePricing,
    MissingPricingError,
    PricingConfig,
    PricingEntry,
    compose_ledger,
    engine_cost,
    llm_cost,
)
from bigsqlbench.llmclient import ExchangeRecord
from bigsqlbench.metrics import from_json_object

from .oracles import stage_cost_oracle, stage_tokens_oracle

FLASH = PricingEntry("flash", input_per_mtok=0.5, output_per_mtok=3.0)
HEAVY = PricingEntry("heavy", input_per_mtok=2.5, output_per_mtok=10.0)


def billed(in_tok, out_tok):
    """An exchange as `complete` returns one: with both token counts."""
    return from_json_object(ExchangeRecord, {
        "response": {}, "usage": {"input_tokens": in_tok, "output_tokens": out_tok},
    })


def iteration(index, action, in_tok, out_tok, engine_seconds=0.0):
    return Iteration(
        index=index,
        thought="",
        action=action,
        action_input={},
        observation="",
        started_at=float(index),
        ended_at=float(index + 1),
        engine_seconds=engine_seconds,
        exchanges=[billed(in_tok, out_tok)],
    )


# --- llm_cost ---


def test_llm_cost_million_tokens_each_way():
    assert llm_cost(FLASH, 1_000_000, 1_000_000) == 3.50


def test_llm_cost_zero_tokens():
    assert llm_cost(FLASH, 0, 0) == 0.0


def test_llm_cost_input_only():
    assert llm_cost(HEAVY, 2_000_000, 0) == 5.00


def test_llm_cost_linear_in_each_count():
    base = llm_cost(FLASH, 1000, 500)
    assert llm_cost(FLASH, 2000, 500) == pytest.approx(
        base + llm_cost(FLASH, 1000, 0)
    )
    assert llm_cost(FLASH, 1000, 1000) == pytest.approx(
        base + llm_cost(FLASH, 0, 500)
    )


# --- engine_cost ---


def test_engine_cost_per_second():
    assert engine_cost(EnginePricing("per-second", 0.001), 60.0, 0) == pytest.approx(
        0.06
    )


def test_engine_cost_free():
    assert engine_cost(EnginePricing("free", 0.0), 1000.0, 10**12) == 0.0


def test_engine_cost_per_byte():
    per_tb = 5.0 / 1e12
    cost = engine_cost(
        EnginePricing("per-byte-scanned", per_tb), 10.0, int(0.2e12)
    )
    assert cost == pytest.approx(1.00)


def test_engine_cost_per_byte_without_bytes_is_zero():
    assert engine_cost(EnginePricing("per-byte-scanned", 1e-12), 10.0, 0) == 0.0


def test_engine_pricing_validation():
    with pytest.raises(ValueError):
        EnginePricing("free", 1.0)
    with pytest.raises(ValueError):
        EnginePricing("per-hour", 1.0)


# --- pricing config ---


def test_pricing_lookup_missing_model_fails_loudly():
    config = PricingConfig(models={"flash": FLASH})
    with pytest.raises(MissingPricingError):
        config.lookup("unknown-model")


def test_pricing_config_from_json(tmp_path):
    path = tmp_path / "pricing.json"
    path.write_text(
        json.dumps(
            {
                "models": [
                    {"id": "flash", "input_per_mtok": 0.5, "output_per_mtok": 3.0}
                ],
                "engine": {"mode": "per-second", "rate": 0.002},
            }
        )
    )
    config = PricingConfig.from_json_file(path)
    assert config.lookup("flash").output_per_mtok == 3.0
    assert config.engine.mode == "per-second"
    assert config.engine.rate == 0.002


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(engines={}), "unknown key 'engines'"),
        (lambda d: d["models"][0].update(input_per_mtoks=1.0),
         "unknown key 'input_per_mtoks' in models[0]"),
        (lambda d: d["engine"].update(rates=0.5), "unknown key 'rates' in engine"),
    ],
    ids=["top-level", "model", "engine"],
)
def test_pricing_config_rejects_unknown_keys(tmp_path, edit, message):
    data = {
        "models": [{"id": "flash", "input_per_mtok": 0.5, "output_per_mtok": 3.0}],
        "engine": {"mode": "per-second"},
    }
    edit(data)
    path = tmp_path / "pricing.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as raised:
        PricingConfig.from_json_file(path)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["models"][0].update(input_per_mtok=math.nan),
         "`models[0].input_per_mtok` is not a finite number >= 0"),
        (lambda d: d["models"][0].update(output_per_mtok=math.nan),
         "`models[0].output_per_mtok` is not a finite number >= 0"),
        (lambda d: d["models"][0].update(output_per_mtok=-1.0),
         "`models[0].output_per_mtok` is not a finite number >= 0"),
        (lambda d: d["engine"].update(rate=math.nan),
         "`engine.rate` is not a finite number >= 0"),
        (lambda d: d["engine"].update(rate=-0.5), "`engine.rate` is not a finite number >= 0"),
    ],
    ids=["nan-input", "nan-output", "negative-output", "nan-rate", "negative-rate"],
)
def test_pricing_config_rejects_nan_and_negative_prices(tmp_path, edit, message):
    data = {
        "models": [{"id": "flash", "input_per_mtok": 0.5, "output_per_mtok": 3.0}],
        "engine": {"mode": "per-second", "rate": 0.002},
    }
    edit(data)
    path = tmp_path / "pricing.json"
    path.write_text(json.dumps(data))  # json writes and reads NaN as `NaN`
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PricingConfig.from_json_file(path)


# --- compose_ledger ---


def priced(trace, pricing, engine):
    """Each stage's dollars, as an episode record's `stage_cost` holds them."""
    return compose_ledger(stage_breakdown(trace), pricing, engine)


def test_ledger_zero_tokens_free_engine():
    trace = AgentTrace(iterations=[iteration(0, "list_tables", 0, 0)])
    cost = priced(trace, FLASH, EnginePricing())
    assert cost == {"list": 0.0}


def test_ledger_single_stage_equals_stage_cost():
    trace = AgentTrace(iterations=[iteration(0, "run_query", 1000, 200, 2.0)])
    cost = priced(trace, FLASH, EnginePricing("per-second", 0.01))
    assert list(cost) == ["run"]
    assert cost["run"] == pytest.approx(llm_cost(FLASH, 1000, 200) + 0.02)


def test_ledger_four_stage_hand_summed():
    # spreadsheet oracle: token counts chosen for exact decimal arithmetic
    trace = AgentTrace(
        iterations=[
            iteration(0, "list_tables", 1_000_000, 100_000),
            iteration(1, "get_schema", 2_000_000, 200_000),
            iteration(2, "check_query", 3_000_000, 300_000),
            iteration(3, "run_query", 4_000_000, 400_000),
        ]
    )
    cost = priced(trace, HEAVY, EnginePricing())
    # in: 10M * 2.5/M = 25.0; out: 1M * 10/M = 10.0
    assert sum(cost.values()) == 35.0
    assert cost["list"] == 2.5 + 1.0
    assert cost["schema"] == 5.0 + 2.0
    assert cost["check"] == 7.5 + 3.0
    assert cost["run"] == 10.0 + 4.0


def test_ledger_total_equals_sum_of_stage_entries():
    trace = AgentTrace(
        iterations=[
            iteration(0, "list_tables", 123, 45),
            iteration(1, "run_query", 678, 90, 1.5),
            iteration(2, None, 11, 22),
        ]
    )
    cost = priced(trace, FLASH, EnginePricing("per-second", 0.001))
    assert sum(cost.values()) == pytest.approx(
        llm_cost(FLASH, 123 + 678 + 11, 45 + 90 + 22) + 0.001 * 1.5
    )
    assert list(cost) == ["list", "run", "finalize"]


def test_ledger_total_invariant_under_stage_partitioning():
    # billing the same tokens through one stage or four changes nothing
    iterations = [
        iteration(0, "list_tables", 100, 10),
        iteration(1, "get_schema", 200, 20),
        iteration(2, "check_query", 300, 30),
        iteration(3, "run_query", 400, 40),
    ]
    split = priced(AgentTrace(iterations=iterations), FLASH, EnginePricing())
    merged_tokens = llm_cost(FLASH, 1000, 100)
    assert sum(split.values()) == pytest.approx(merged_tokens)


def test_ledger_total_at_least_each_stage():
    trace = AgentTrace(
        iterations=[
            iteration(0, "list_tables", 500, 50),
            iteration(1, "run_query", 700, 70),
        ]
    )
    cost = priced(trace, FLASH, EnginePricing())
    for dollars in cost.values():
        assert sum(cost.values()) >= dollars


def test_ledger_bills_every_token_exactly_once():
    trace = AgentTrace(
        iterations=[iteration(i, "check_query", 100 + i, 10 + i) for i in range(5)]
    )
    stages = stage_breakdown(trace)
    assert stages["check"].input_tokens == sum(100 + i for i in range(5))
    assert stages["check"].output_tokens == sum(10 + i for i in range(5))
    assert compose_ledger(stages, FLASH, EnginePricing()) == {
        "check": llm_cost(FLASH, 510, 60)
    }


ACTIONS = ["list_tables", "get_schema", "check_query", "run_query",
           "final_answer", None, "drop_tables"]


@st.composite
def tiled_traces(draw):
    """Traces whose iterations tile the episode, as `run_agent` times them."""
    clock = draw(st.floats(0, 1e6))
    iterations = []
    for index in range(draw(st.integers(0, 12))):
        ended = clock + draw(st.floats(0, 100))
        iterations.append(Iteration(
            index=index, thought="", action=draw(st.sampled_from(ACTIONS)),
            action_input={}, observation="", started_at=clock, ended_at=ended,
            engine_seconds=draw(st.floats(0, 100)),
            engine_bytes=draw(st.integers(0, 10**12)),
            exchanges=[billed(draw(st.integers(0, 10**7)), draw(st.integers(0, 10**7)))
                       for _ in range(draw(st.integers(0, 2)))],
        ))
        clock = ended
    return AgentTrace(iterations=iterations)


rates = st.floats(0, 100)
engines = st.one_of(
    st.just(EnginePricing()),
    st.builds(EnginePricing, st.just("per-second"), rates),
    st.builds(EnginePricing, st.just("per-byte-scanned"), st.floats(0, 1e-6)),
)


@settings(deadline=None)
@given(
    trace=tiled_traces(),
    pricing=st.builds(PricingEntry, st.just("m"), rates, rates),
    engine=engines,
)
def test_one_walk_bills_each_stage_as_the_brute_force_oracle(trace, pricing, engine):
    stages = stage_breakdown(trace)
    stage_cost = compose_ledger(stages, pricing, engine)
    oracle = stage_cost_oracle(trace.iterations, pricing, engine)

    # every token billed exactly once, to the stage of its iteration
    tokens = {s: (u.input_tokens, u.output_tokens) for s, u in stages.items()}
    assert tokens == stage_tokens_oracle(trace.iterations)
    assert sum(u.input_tokens for u in stages.values()) == sum(
        it.input_tokens for it in trace.iterations
    )
    assert sum(u.output_tokens for u in stages.values()) == sum(
        it.output_tokens for it in trace.iterations
    )
    # the stages in the order they first ran, each priced as the oracle does
    assert list(stage_cost) == list(oracle)
    assert stage_cost == oracle
    # c_e2e, stage_cost summed in that order, is the oracle's to the bit
    assert sum(stage_cost.values()) == sum(oracle.values())
    assert math.isclose(
        sum(u.seconds for u in stages.values()), trace.e2e_seconds, rel_tol=1e-9
    )
