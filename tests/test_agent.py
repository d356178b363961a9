from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from bigsqlbench import agent as agent_module
from bigsqlbench import engine as engine_module
from bigsqlbench.agent import (
    DEFAULT_OBSERVATION_CAP,
    ActionParseError,
    AgentConfig,
    AgentTrace,
    Iteration,
    TOOL_SCHEMAS,
    parse_controller_reply,
    run_agent,
    stage_breakdown,
    stage_for_action,
    tool_check_query,
    tool_get_schema,
    tool_list_tables,
    trace_from_jsonl,
    trace_to_jsonl,
    truncate_observation,
)
from bigsqlbench.engine import Sessions
from bigsqlbench.llmclient import ExchangeRecord, ReplayBackend, ReplayMismatchError
from bigsqlbench.metrics import from_json_object
from bigsqlbench.resultset import ResultTable, json_cell
from tests.conftest import iteration_line
from tests.oracles import trace_to_jsonl_asdict


def entry(text, in_tok=100, out_tok=10, tool_call=None):
    return from_json_object(ExchangeRecord, {
        "fingerprint": None,
        "response": {"text": text, "tool_call": tool_call},
        "usage": {"input_tokens": in_tok, "output_tokens": out_tok},
    })


def action_text(tool, payload):
    return f"Thought: next step.\nAction: {tool}\nAction Input: {json.dumps(payload)}"


FOUR_TOOL_SCRIPT = [
    entry(action_text("list_tables", {})),
    entry(action_text("get_schema", {"tables": ["orders"], "sample_rows": 2})),
    entry(action_text("check_query", {"sql": "SELECT COUNT(*) AS n FROM orders"})),
    entry("query OK"),
    entry(action_text("run_query", {"sql": "SELECT COUNT(*) AS n FROM orders"})),
]


# --- the four tools ---


def test_tool_list_tables_newline_separated(shop_engine):
    assert tool_list_tables(shop_engine) == "orders\nproducts"


def test_tool_list_tables_empty_catalog(sessions, tmp_path):
    assert tool_list_tables(sessions.get(tmp_path)) == ""


def test_tool_list_tables_closed_session(tmp_path):
    with Sessions() as own:
        engine = own.get(tmp_path)
        own.close()
        script = [entry(action_text("list_tables", {}))]
        trace = run_agent("closed", AgentConfig(), ReplayBackend(script), engine)
    assert (trace.outcome, trace.error) == (
        "tool-error", "list_tables failed: engine session is closed"
    )


def test_tool_get_schema_ddl_only(shop_engine):
    text = tool_get_schema(shop_engine, ["products"], sample_rows=0)
    assert "CREATE TABLE" in text
    assert "sample rows" not in text


def test_tool_get_schema_with_samples(shop_engine):
    text = tool_get_schema(shop_engine, ["products"], sample_rows=3)
    assert "sample rows:" in text
    # header plus exactly three data lines after the marker
    grid = text.split("sample rows:\n", 1)[1]
    assert len(grid.splitlines()) == 4


def test_tool_get_schema_unknown_table_inline_error(shop_engine):
    text = tool_get_schema(shop_engine, ["nope", "products"], sample_rows=0)
    assert "table not found: nope" in text
    assert "CREATE TABLE" in text


def test_tool_check_query_verbatim_verdict():
    checker = ReplayBackend([entry("query OK")])
    exchange = tool_check_query(checker, "SELECT 1")
    assert exchange.response.text == "query OK"


def test_tool_check_query_corrected_sql():
    checker = ReplayBackend([entry("SELECT name FROM t WHERE x = 'y'")])
    exchange = tool_check_query(checker, "SELECT name FROM t WHERE x = 'y")
    assert "SELECT name" in exchange.response.text


def test_tool_check_query_empty_sql(shop_engine):
    script = [entry(action_text("check_query", {"sql": "   "}))]
    trace = run_agent("blank", AgentConfig(), ReplayBackend(script), shop_engine)
    assert (trace.outcome, trace.error, trace.final_sql) == (
        "tool-error", "check_query requires a non-empty sql string", None
    )
    assert len(trace.iterations[0].exchanges) == 1  # no checker call was made


def test_tool_run_query_constant(shop_engine):
    script = [entry(action_text("run_query", {"sql": "SELECT 1 AS x"}))]
    trace = run_agent("one", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.final_result.to_json_dict() == {
        "columns": [{"name": "x", "type": "integer"}],
        "rows": [[1]],
    }
    assert trace.generated_runtime > 0


def test_tool_run_query_invalid_sql(shop_engine):
    sql = "SELECT FROM nothing WHERE"
    script = [entry(action_text("run_query", {"sql": sql}))]
    trace = run_agent("bad", AgentConfig(), ReplayBackend(script), shop_engine)
    assert (trace.outcome, trace.final_sql) == ("tool-error", sql)
    assert trace.error == (
        'run_query failed: sql execution failed: near "FROM": syntax error'
    )


# a blank query is refused before it reaches the engine, and a refused run's
# final_sql is still the text the model sent
@pytest.mark.parametrize("sql", ["", "  \n"])
def test_blank_run_query_is_tool_error(shop_engine, sql):
    script = [entry(action_text("run_query", {"sql": sql}))]
    trace = run_agent("blank", AgentConfig(), ReplayBackend(script), shop_engine)
    assert (trace.outcome, trace.error, trace.final_sql) == (
        "tool-error", "run_query requires a non-empty sql string", sql
    )
    assert trace.iterations[0].engine_seconds == 0.0


def test_tool_schemas_are_pinned():
    text = json.dumps(TOOL_SCHEMAS)
    assert [s["function"]["name"] for s in TOOL_SCHEMAS] == [
        "list_tables", "get_schema", "check_query", "run_query"
    ]
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
        941, "00d99789fa970d8d079d42400724d4c2dd9a11e6d1b9a473385b1a4435bc6a33"
    )


# --- reply parsing ---


def test_parse_text_protocol_action():
    step = parse_controller_reply(
        entry(action_text("run_query", {"sql": "SELECT 1"}))
    )
    assert step.action == "run_query"
    assert step.action_input == {"sql": "SELECT 1"}
    assert step.thought == "next step."


def test_parse_final_answer():
    step = parse_controller_reply(
        entry("Thought: done.\nFinal Answer: 42 orders")
    )
    assert step.final_answer == "42 orders"
    assert step.action is None


def test_parse_structured_tool_call_takes_precedence():
    step = parse_controller_reply(
        entry("calling tool", tool_call={"name": "list_tables", "arguments": {}})
    )
    assert step.action == "list_tables"


@pytest.mark.parametrize(
    "arguments", [[1, 2], 5, "orders", ["orders"], [["a", "b"]]],
    ids=["numbers", "number", "string", "tables", "pairs"],
)
@pytest.mark.parametrize("tool", ["get_schema", "run_query"])
def test_structured_arguments_score_as_text_arguments(shop_engine, tool, arguments):
    structured_entry = entry("", tool_call={"name": tool, "arguments": arguments})
    text, structured = (
        run_agent("q", AgentConfig(max_iterations=1), ReplayBackend([e]), shop_engine)
        for e in (entry(action_text(tool, arguments)), structured_entry)
    )
    assert text.outcome != "harness-error"
    assert (structured.outcome, structured.error, structured.final_sql) == (
        text.outcome, text.error, text.final_sql
    )
    [text_step], [structured_step] = text.iterations, structured.iterations
    assert structured_step.action_input == text_step.action_input
    assert structured_step.observation == text_step.observation


def test_parse_malformed_raises():
    with pytest.raises(ActionParseError):
        parse_controller_reply(entry("just some prose"))


def test_parse_raw_action_input_fallback():
    step = parse_controller_reply(
        entry("Thought: t\nAction: run_query\nAction Input: SELECT 1")
    )
    assert step.action_input == {"raw": "SELECT 1"}


# --- the loop ---


def test_four_tool_episode_completes(shop_engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT, model_id="scripted")
    trace = run_agent("how many orders?", AgentConfig(), llm, shop_engine)
    assert trace.outcome == "completed"
    assert [it.action for it in trace.iterations] == [
        "list_tables", "get_schema", "check_query", "run_query",
    ]
    assert trace.final_sql == "SELECT COUNT(*) AS n FROM orders"
    assert trace.final_result is not None
    assert trace.final_result.rows == ((20,),)


def test_final_answer_episode_has_no_result(shop_engine):
    llm = ReplayBackend([entry("Thought: trivial.\nFinal Answer: nothing to run")])
    trace = run_agent("no-op", AgentConfig(), llm, shop_engine)
    assert trace.outcome == "completed"
    assert len(trace.iterations) == 1
    assert trace.final_result is None
    assert trace.final_sql is None
    assert trace.final_answer == "nothing to run"


def test_loop_cap_exhausts_at_config_value(shop_engine):
    script = [entry(action_text("list_tables", {})) for _ in range(40)]
    config = AgentConfig(max_iterations=15)
    trace = run_agent("loop", config, ReplayBackend(script), shop_engine)
    assert trace.outcome == "exhausted"
    assert len(trace.iterations) == config.max_iterations


def test_terminate_after_first_run(shop_engine):
    script = [
        entry(action_text("run_query", {"sql": "SELECT 1 AS x"})),
        entry(action_text("run_query", {"sql": "SELECT 2 AS x"})),
    ]
    trace = run_agent("run twice?", AgentConfig(), ReplayBackend(script), shop_engine)
    runs = [it for it in trace.iterations if it.action == "run_query"]
    assert len(runs) == 1
    assert trace.outcome == "completed"


def test_run_query_error_terminates_episode(shop_engine):
    script = [
        entry(action_text("run_query", {"sql": "SELECT broken FROM nowhere"})),
        entry(action_text("run_query", {"sql": "SELECT 1"})),
    ]
    trace = run_agent("bad sql", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.outcome == "tool-error"
    assert len(trace.iterations) == 1
    assert trace.final_result is None


# a malformed argument is the model's error, not a number of rows to serve
@pytest.mark.parametrize("sample_rows", ["abc", None, float("inf"), True, 2.9, "2"])
def test_non_integer_sample_rows_is_tool_error(shop_engine, sample_rows):
    args = {"tables": ["orders"], "sample_rows": sample_rows}
    script = [entry(action_text("get_schema", args))]
    trace = run_agent("bad args", AgentConfig(), ReplayBackend(script), shop_engine)
    assert (trace.outcome, trace.error) == (
        "tool-error", "get_schema: `sample_rows` is not an int"
    )


def test_tables_argument_string_or_non_list(shop_engine):
    script = [entry(action_text("get_schema", {"tables": "orders", "sample_rows": 0}))]
    config = AgentConfig(max_iterations=1)
    trace = run_agent("string", config, ReplayBackend(script), shop_engine)
    assert trace.iterations[0].observation.startswith('CREATE TABLE "orders"')
    script = [entry(action_text("get_schema", {"tables": 5}))]
    trace = run_agent("number", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.outcome == "tool-error"
    assert "tables is not a list" in trace.error


def test_engine_error_while_sampling_is_tool_error(shop_engine, monkeypatch):
    # three sample rows overflow a one-row cap inside get_schema
    monkeypatch.setattr(engine_module, "DEFAULT_ROW_CAP", 1)
    args = {"tables": ["orders"], "sample_rows": 3}
    script = [entry(action_text("get_schema", args))]
    trace = run_agent("overflow", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.outcome == "tool-error"
    assert "get_schema failed" in trace.error


def test_replay_exhaustion_is_llm_error(shop_engine):
    trace = run_agent("empty", AgentConfig(), ReplayBackend([]), shop_engine)
    assert trace.outcome == "llm-error"
    assert trace.iterations == []


@pytest.mark.parametrize(
    "index, actions",
    [(2, ["list_tables", "get_schema"]),
     (3, ["list_tables", "get_schema", "check_query"])],
    ids=["controller", "checker"],
)
def test_fingerprint_mismatch_is_raised_not_scored(shop_engine, index, actions):
    script = list(FOUR_TOOL_SCRIPT)
    script[index] = dataclasses.replace(script[index], fingerprint="0" * 64)
    trace = run_agent("q", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.outcome == "harness-error"
    assert isinstance(trace.fault, ReplayMismatchError)
    assert trace.error == f"harness error: {trace.fault}"
    assert "does not match recorded" in trace.error
    assert trace.final_result is None
    # the finished iterations, and the check the checker's mismatch cut
    # short, with the one exchange it made
    assert [it.action for it in trace.iterations] == actions
    assert [len(it.exchanges) for it in trace.iterations] == [1] * len(actions)
    assert sum(it.input_tokens for it in trace.iterations) == 100 * len(actions)


def test_harness_bug_in_a_tool_is_harness_error(shop_engine, monkeypatch):
    def broken(engine):
        raise KeyError("bug")

    monkeypatch.setattr(agent_module, "tool_list_tables", broken)
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), llm, shop_engine)
    assert (trace.outcome, trace.error) == ("harness-error", "harness error: 'bug'")
    [open_iteration] = trace.iterations
    assert open_iteration.action == "list_tables"
    assert open_iteration.input_tokens == 100


def test_malformed_reply_is_llm_error(shop_engine):
    trace = run_agent(
        "prose", AgentConfig(), ReplayBackend([entry("no action here")]), shop_engine
    )
    assert trace.outcome == "llm-error"
    # tokens of the malformed reply still count toward cost
    assert sum(it.input_tokens for it in trace.iterations) == 100


def test_unknown_tool_is_llm_error(shop_engine):
    script = [entry(action_text("drop_tables", {}))]
    trace = run_agent("bad tool", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.outcome == "llm-error"


def test_checker_tokens_billed_to_check_iteration(shop_engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), llm, shop_engine)
    check = next(it for it in trace.iterations if it.action == "check_query")
    # controller turn 100/10 plus checker turn 100/10
    assert (check.input_tokens, check.output_tokens) == (200, 20)
    assert len(check.exchanges) == 2


def test_every_iteration_token_lands_in_one_stage(shop_engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), llm, shop_engine)
    stage_tokens: dict[str, int] = {}
    for it in trace.iterations:
        stage_tokens[stage_for_action(it.action)] = (
            stage_tokens.get(stage_for_action(it.action), 0) + it.input_tokens
        )
    assert sum(stage_tokens.values()) == 100 * len(FOUR_TOOL_SCRIPT)


def test_estimated_usage_flag_propagates(shop_engine, tmp_path):
    script = [from_json_object(
        ExchangeRecord, {"response": {"text": "Thought: done.\nFinal Answer: n/a"}}
    )]
    trace = run_agent("q", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.uses_estimated_tokens
    # and survives a replay of the episode's trace, which logs the estimates
    log_path = tmp_path / "episode.jsonl"
    log_path.write_text(trace_to_jsonl(trace))
    replay = ReplayBackend.from_path(log_path)
    replayed = run_agent("q", AgentConfig(), replay, shop_engine)
    assert replayed.uses_estimated_tokens
    assert trace_to_jsonl(replayed, include_timing=False) == trace_to_jsonl(
        trace, include_timing=False
    )

    counted = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), counted, shop_engine)
    assert not trace.uses_estimated_tokens


def test_observation_truncation_marker():
    text = truncate_observation("x" * 5000, cap=4000)
    assert len(text) == 4000 + len("\n...[observation truncated]")
    assert text.endswith("truncated]")
    assert truncate_observation("short") == "short"


def test_durations_tile_the_episode(shop_engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), llm, shop_engine)
    total = sum(it.duration for it in trace.iterations)
    assert total <= trace.e2e_seconds + 1e-9
    assert trace.e2e_seconds <= total + 0.050 * len(trace.iterations)


# --- stage breakdown ---


def stub_iteration(index, action, start, end):
    return Iteration(
        index=index,
        thought="",
        action=action,
        action_input={},
        observation="",
        started_at=start,
        ended_at=end,
    )


def shares(trace):
    """Each stage's percentage of end-to-end time, as a record's
    `stage_percentages` holds them."""
    return {
        stage: 100.0 * usage.seconds / trace.e2e_seconds
        for stage, usage in stage_breakdown(trace).items()
    }


def test_stage_breakdown_stubbed_durations():
    trace = AgentTrace(
        iterations=[
            stub_iteration(0, "list_tables", 0.0, 1.0),
            stub_iteration(1, "get_schema", 1.0, 2.0),
            stub_iteration(2, "check_query", 2.0, 8.0),
            stub_iteration(3, "run_query", 8.0, 10.0),
        ]
    )
    pct = shares(trace)
    assert list(pct) == ["list", "schema", "check", "run"]
    assert pct["list"] == pytest.approx(10.0)
    assert pct["schema"] == pytest.approx(10.0)
    assert pct["check"] == pytest.approx(60.0)
    assert pct["run"] == pytest.approx(20.0)
    assert sum(pct.values()) == pytest.approx(100.0, abs=0.1)


def test_stage_breakdown_single_iteration_is_all_of_e2e():
    trace = AgentTrace(iterations=[stub_iteration(0, "run_query", 0.0, 3.0)])
    assert shares(trace) == {"run": pytest.approx(100.0)}


def test_stage_breakdown_empty_trace():
    assert stage_breakdown(AgentTrace()) == {}


def test_stage_breakdown_live_percentages_sum_to_100(shop_engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    trace = run_agent("q", AgentConfig(), llm, shop_engine)
    assert sum(shares(trace).values()) == pytest.approx(100.0, abs=0.1)


# --- determinism and serialization ---


def run_scripted(engine):
    llm = ReplayBackend(FOUR_TOOL_SCRIPT)
    return run_agent("how many orders?", AgentConfig(), llm, engine)


def test_replay_reruns_identical_without_timestamps(mini_suite_dir):
    data_dir = mini_suite_dir / "databases" / "shop"
    traces = []
    for _ in range(2):
        with Sessions() as own:
            traces.append(run_scripted(own.get(data_dir)))
    a = trace_to_jsonl(traces[0], include_timing=False)
    b = trace_to_jsonl(traces[1], include_timing=False)
    assert a.encode() == b.encode()


def test_trace_jsonl_round_trip(shop_engine):
    trace = run_scripted(shop_engine)
    restored = trace_from_jsonl(trace_to_jsonl(trace))
    assert restored.outcome == trace.outcome
    assert restored.final_sql == trace.final_sql
    assert [it.action for it in restored.iterations] == [
        it.action for it in trace.iterations
    ]
    assert restored.final_result == trace.final_result


def test_blob_result_survives_the_trace_round_trip(shop_engine):
    sql = "SELECT x'00ff' AS b, 1 AS n"
    script = [entry(action_text("run_query", {"sql": sql}))]
    trace = run_agent("a blob", AgentConfig(), ReplayBackend(script), shop_engine)
    assert trace.final_result.rows == ((b"\x00\xff", 1),)
    restored = trace_from_jsonl(trace_to_jsonl(trace))
    assert restored.final_result == trace.final_result


def test_episode_log_replays_as_script(shop_engine, tmp_path):
    trace = run_scripted(shop_engine)
    log_path = tmp_path / "episode.jsonl"
    log_path.write_text(trace_to_jsonl(trace))

    replay = ReplayBackend.from_path(log_path)
    replayed = run_agent("how many orders?", AgentConfig(), replay, shop_engine)
    assert trace_to_jsonl(replayed, include_timing=False) == trace_to_jsonl(
        trace, include_timing=False
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)
json_objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4)
counts = st.integers(0, 10**6)
# every shape of exchange record a script line may hold
exchange_records = st.fixed_dictionaries(
    {
        "response": st.fixed_dictionaries(
            {},
            optional={
                "text": st.text(),
                "tool_call": st.none()
                | st.fixed_dictionaries({"name": st.text(), "arguments": json_objects}),
            },
        )
    },
    optional={
        "fingerprint": st.none() | st.text(),
        "usage": st.none()
        | st.fixed_dictionaries(
            {}, optional={"input_tokens": counts, "output_tokens": counts}
        ),
        "estimated": st.booleans(),
    },
).map(lambda record: from_json_object(ExchangeRecord, record))

iterations = st.builds(
    Iteration,
    index=st.integers(0, 20),
    thought=st.text(),
    action=st.none() | st.sampled_from(["list_tables", "run_query", "final_answer"]),
    action_input=json_objects,
    observation=st.text(),
    started_at=st.floats(),
    ended_at=st.floats(),
    input_tokens=counts,
    output_tokens=counts,
    engine_seconds=st.floats(),
    engine_bytes=st.integers(0, 10**9),
    exchanges=st.lists(exchange_records, max_size=3),
)

traces = st.builds(
    AgentTrace,
    iterations=st.lists(iterations, max_size=4),
    outcome=st.sampled_from(
        ["completed", "exhausted", "tool-error", "llm-error", "harness-error"]
    ),
    final_sql=st.none() | st.text(),
    final_result=st.none()
    | st.just(ResultTable.build([("n", "integer"), ("s", "text")], [(1, "é"), (None, "x")])),
    final_answer=st.none() | st.text(),
    error=st.none() | st.text(),
    question=st.text(),
    model_id=st.text(),
)


@settings(deadline=None)
@given(trace=traces, include_timing=st.booleans())
def test_trace_jsonl_bytes_match_asdict_oracle(trace, include_timing):
    expected = trace_to_jsonl_asdict(trace, include_timing)
    assert trace_to_jsonl(trace, include_timing).encode() == expected.encode()


@settings(deadline=None)
@given(trace=traces)
def test_the_reader_reads_back_whatever_the_writer_writes(trace):
    for include_timing in (True, False):
        text = trace_to_jsonl(trace, include_timing)
        assert trace_to_jsonl(trace_from_jsonl(text), include_timing) == text


META_LINE = '{"type": "meta", "question": "q", "model_id": "m"}'


def outcome_line(**fields):
    line = {"type": "outcome", "outcome": "completed", "final_sql": None,
            "final_answer": None, "error": None, "final_result": None}
    return json.dumps({**line, **fields})


TWO_COLUMNS = {
    "columns": [{"name": "a", "type": "text"}, {"name": "b", "type": "text"}],
    "rows": [["x", "y"]],
}
ROW_COUNT = "`final_result.row_count` is not an int above the 1 rows kept"
# edits to a well-formed `final_result`, and the refusal of each
BAD_RESULTS = {
    "string_row": ({"rows": ["xy"]}, "`final_result.rows[0]` is not a list"),
    "list_cell": ({"rows": [[["x"], "y"]]},
                  "`final_result.rows[0]` is not a list of 2 JSON scalars"),
    "short_row": ({"rows": [["x", "y"], ["x"]]},
                  "`final_result.rows[1]` is not a list of 2 JSON scalars"),
    "unknown_result_key": ({"note": 1}, "unknown key 'note' in final_result"),
    "unknown_column_key": (
        {"columns": [{"name": "a", "type": "text", "width": 3}], "rows": []},
        "unknown key 'width' in final_result.columns[0]"),
    "int_column_name": ({"columns": [{"name": 5, "type": "text"}], "rows": []},
                        "`final_result.columns[0].name` is not a string"),
    **{f"empty_column_name_{i}": (
        {"columns": [{"name": name, "type": "text"}], "rows": []},
        "`final_result.columns[0].name` is empty")
       for i, name in enumerate(["", '""', "   "])},
    "unknown_type_tag": (
        {"columns": [{"name": "a", "type": "varchar"}], "rows": []},
        "`final_result.columns[0].type` is not one of integer, float, text, bool, "
        "date, blob, null"),
    "blob_not_hex": (
        {"columns": [{"name": "a", "type": "text"}, {"name": "b", "type": "blob"}],
         "rows": [["x", "00ff"], ["y", "zz"]]},
        "`final_result.rows[1][1]` is not hex text"),
    "string_row_count": ({"row_count": "5"}, ROW_COUNT),
    "row_count_of_the_rows_kept": ({"row_count": 1}, ROW_COUNT),
    "row_count_zero": ({"row_count": 0}, ROW_COUNT),
}
# line 3 of a trace whose other lines are well formed, and its refusal; a
# `harness-error` trace reads (test_runner) but does not replay (test_cli)
MALFORMED_LINES = {
    "misspelt_type": ('{"type": "iteratoin"}',
                      "`type` is not one of meta, iteration, outcome"),
    "exchanges_not_a_list": (iteration_line(exchanges=5), "`exchanges` is not a list"),
    "no_exchanges": (iteration_line().replace(', "exchanges": []', ""),
                     "missing key 'exchanges'"),
    "string_input_tokens": (iteration_line(input_tokens="5"),
                            "`input_tokens` is not an int"),
    "bool_index": (iteration_line(index=True), "`index` is not an int"),
    "unreplayable_exchange": (
        iteration_line(exchanges=[{"response": {"text": "x"},
                                   "usage": {"input_tokens": -1}}]),
        "`exchanges[0].usage.input_tokens` is not null or an int >= 0"),
    "unknown_field": (iteration_line(note=1),
                      "unknown key 'note'"),
    "int_question": ('{"type": "meta", "question": 7, "model_id": "m"}',
                     "`question` is not a string"),
    "unknown_outcome": (
        outcome_line(outcome="finished"),
        "`outcome` is not one of completed, exhausted, tool-error, "
        "llm-error, harness-error"),
    "bad_final_result": (outcome_line(final_result={"rows": [[1]]}),
                         "missing key 'columns' in final_result"),
    **{name: (outcome_line(final_result={**TWO_COLUMNS, **result}), problem)
       for name, (result, problem) in BAD_RESULTS.items()},
    "not_json": ('{"type": "meta",', "not JSON: Expecting property name enclosed "
                 "in double quotes at column 17"),
    "not_an_object": ("[1]", "not a JSON object"),
}


@pytest.mark.parametrize(
    "line, problem", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys()
)
def test_reading_and_replaying_refuse_a_malformed_line_alike(tmp_path, line, problem):
    text = "\n".join([META_LINE, iteration_line(), line, outcome_line()]) + "\n"
    path = tmp_path / "episode.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError) as read:
        trace_from_jsonl(text)
    with pytest.raises(ValueError) as replayed:
        ReplayBackend.from_path(path)
    assert str(read.value) == str(replayed.value) == f"line 3: {problem}"


# --- large results in the outcome line ---

result_cells = st.none() | st.integers() | st.floats() | st.text() | st.binary()


@st.composite
def result_tables(draw):
    """Tables of 0-400 rows, cycling through a few drawn rows so that big
    tables stay cheap to generate."""
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[result_cells] * width), min_size=1, max_size=6))
    n_rows = draw(st.integers(0, 400))
    return ResultTable.build(
        [(f"c{i}", "text") for i in range(width)],
        [pool[i % len(pool)] for i in range(n_rows)],
    )


@settings(deadline=None, max_examples=150)
@given(table=result_tables())
def test_outcome_line_logs_the_rows_that_fit_the_observation_budget(table):
    trace = AgentTrace(outcome="completed", final_sql="SELECT *", final_result=table)
    text = trace_to_jsonl(trace)
    expected = trace_to_jsonl_asdict(trace)
    if len(json.dumps(list(table.rows), default=json_cell)) <= DEFAULT_OBSERVATION_CAP:
        assert text.encode() == expected.encode()
        return
    *head, line = text.splitlines()
    *expected_head, expected_line = expected.splitlines()
    assert head == expected_head
    outcome = json.loads(line)
    oracle = json.loads(expected_line)
    logged = outcome.pop("final_result")
    oracle_result = oracle.pop("final_result")
    assert outcome == oracle
    kept = logged["rows"]
    assert logged["columns"] == oracle_result["columns"]
    assert logged["row_count"] == table.n_rows
    assert json.dumps(kept) == json.dumps(oracle_result["rows"][: len(kept)])
    assert len(json.dumps(kept)) <= DEFAULT_OBSERVATION_CAP
    one_more = oracle_result["rows"][: len(kept) + 1]
    assert len(json.dumps(one_more)) > DEFAULT_OBSERVATION_CAP
    assert trace_from_jsonl(text).final_result is None


def test_trace_with_a_cut_outcome_line_still_replays(sessions, sf_tiny_dir, tmp_path):
    script = [
        entry(action_text("list_tables", {})),
        entry(action_text("run_query", {"sql": "SELECT * FROM lineitem"})),
    ]
    engine = sessions.get(sf_tiny_dir)
    trace = run_agent("every line item", AgentConfig(), ReplayBackend(script), engine)
    log_path = tmp_path / "episode.jsonl"
    log_path.write_text(trace_to_jsonl(trace))
    logged = json.loads(log_path.read_text().splitlines()[-1])["final_result"]
    assert logged["row_count"] == trace.final_result.n_rows == 6000

    replay = ReplayBackend.from_path(log_path)
    replayed = run_agent("every line item", AgentConfig(), replay, engine)
    assert trace_to_jsonl(replayed, include_timing=False) == trace_to_jsonl(
        trace, include_timing=False
    )
