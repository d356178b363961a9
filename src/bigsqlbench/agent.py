"""ReAct controller/executor loop with four SQL tools and per-stage timing.

The controller LLM reasons in Thought/Action/Observation turns over four
tools (list_tables, get_schema, check_query, run_query).  The episode ends
at the first run_query: on large engines, letting an agent re-run queries at
will is how bills explode.  Every iteration is timed and
token-counted; iterations calling the same tool aggregate into a stage.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

from .engine import EmbeddedEngine, EngineError, SessionClosedError, TableNotFoundError
from .llmclient import (
    ChatExchange,
    LlmBackend,
    LlmTransportError,
    ReplayExhaustedError,
    check_exchange,
    json_lines,
)
from .metrics import STAGES
from .resultset import ResultTable, json_cell

_TOOL_STAGE = {
    "list_tables": "list",
    "get_schema": "schema",
    "check_query": "check",
    "run_query": "run",
}

FINAL_ANSWER_ACTION = "final_answer"

OUTCOME_COMPLETED = "completed"
OUTCOME_EXHAUSTED = "exhausted"
OUTCOME_TOOL_ERROR = "tool-error"
OUTCOME_LLM_ERROR = "llm-error"
# a fault that is not the model's: a replayed request that no longer matches
# its recording, or a bug in the harness
OUTCOME_HARNESS_ERROR = "harness-error"
OUTCOMES = (OUTCOME_COMPLETED, OUTCOME_EXHAUSTED, OUTCOME_TOOL_ERROR,
            OUTCOME_LLM_ERROR, OUTCOME_HARNESS_ERROR)

DEFAULT_OBSERVATION_CAP = 4000
TRUNCATION_MARKER = "\n...[observation truncated]"

DEFAULT_SYSTEM_PROMPT = """\
You answer analytics questions by writing SQL against the connected database.
Work in turns. Reply with either:

Thought: <reasoning>
Action: <one of list_tables, get_schema, check_query, run_query>
Action Input: <JSON arguments>

or, when finished:

Thought: <reasoning>
Final Answer: <answer>

Tools:
- list_tables: {} lists the available tables.
- get_schema: {"tables": ["t1", ...], "sample_rows": n} shows table DDL plus sample rows.
- check_query: {"sql": "..."} has a reviewer validate the query text.
- run_query: {"sql": "..."} executes the SQL. The episode ends after the first run,
  so only run a query you believe is final.
"""

DEFAULT_CHECKER_PROMPT = """\
You review a single SQL query before it is executed. Check identifier and
literal quoting, join columns, function arguments, and casts. If the query
looks correct reply exactly: query OK. Otherwise reply with a corrected query.
"""

TOOL_SCHEMAS: list[dict[str, Any]] = [
    {
        "type": "function",
        "function": {
            "name": "list_tables",
            "description": "List the tables available in the connected database.",
            "parameters": {"type": "object", "properties": {}},
        },
    },
    {
        "type": "function",
        "function": {
            "name": "get_schema",
            "description": "Fetch CREATE TABLE text and sample rows for tables.",
            "parameters": {
                "type": "object",
                "properties": {
                    "tables": {"type": "array", "items": {"type": "string"}},
                    "sample_rows": {"type": "integer"},
                },
                "required": ["tables"],
            },
        },
    },
    {
        "type": "function",
        "function": {
            "name": "check_query",
            "description": "Have a reviewer validate a SQL query before running it.",
            "parameters": {
                "type": "object",
                "properties": {"sql": {"type": "string"}},
                "required": ["sql"],
            },
        },
    },
    {
        "type": "function",
        "function": {
            "name": "run_query",
            "description": "Execute a SQL query; the episode ends after the first run.",
            "parameters": {
                "type": "object",
                "properties": {"sql": {"type": "string"}},
                "required": ["sql"],
            },
        },
    },
]


class ToolError(RuntimeError):
    """A tool invocation failed in a way the episode cannot recover from."""


class ActionParseError(ValueError):
    """The controller reply did not follow the action grammar."""


@dataclass(frozen=True)
class AgentConfig:
    """Episode-level knobs for the controller loop."""

    max_iterations: int = 15
    sample_rows: int = 3

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.sample_rows < 0:
            raise ValueError("sample_rows must be >= 0")


@dataclass
class Iteration:
    """One Thought/Action/Observation turn with timing and token usage."""

    index: int
    thought: str
    action: str | None
    action_input: dict[str, Any]
    observation: str
    started_at: float
    ended_at: float
    input_tokens: int = 0
    output_tokens: int = 0
    engine_seconds: float = 0.0
    engine_bytes: int = 0
    exchanges: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at


@dataclass
class AgentTrace:
    """Ordered iterations of one episode plus its terminal state."""

    iterations: list[Iteration] = field(default_factory=list)
    outcome: str = OUTCOME_EXHAUSTED
    final_sql: str | None = None
    final_result: ResultTable | None = None
    final_answer: str | None = None
    error: str | None = None
    question: str = ""
    model_id: str = ""
    # the exception that ended a harness-error episode; not written to the log
    fault: Exception | None = field(default=None, repr=False, compare=False)

    def end_by_fault(self, exc: Exception) -> None:
        """End the episode as harness-error: the fault is not the model's."""
        self.outcome = OUTCOME_HARNESS_ERROR
        self.error = f"harness error: {exc}"
        self.fault = exc

    @property
    def e2e_seconds(self) -> float:
        if not self.iterations:
            return 0.0
        return self.iterations[-1].ended_at - self.iterations[0].started_at

    @property
    def generated_runtime(self) -> float:
        """Engine runtime of the run_query iteration (T_gen); 0 if none ran."""
        for it in self.iterations:
            if it.action == "run_query":
                return it.engine_seconds
        return 0.0

    @property
    def uses_estimated_tokens(self) -> bool:
        """True when any exchange lacked provider counts and was estimated."""
        return any(
            ex.get("estimated", False)
            for it in self.iterations
            for ex in it.exchanges
        )


@dataclass
class StageBreakdown:
    """Wall-clock seconds and share of end-to-end time per stage."""

    seconds: dict[str, float]
    percentages: dict[str, float]


def stage_for_action(action: str | None) -> str:
    """Stage a tool action belongs to; tool-free turns form the finalize stage."""
    if action is None or action == FINAL_ANSWER_ACTION:
        return "finalize"
    return _TOOL_STAGE.get(action, "finalize")


def truncate_observation(text: str, cap: int = DEFAULT_OBSERVATION_CAP) -> str:
    if len(text) <= cap:
        return text
    return text[:cap] + TRUNCATION_MARKER


# --- tools -----------------------------------------------------------------


def tool_list_tables(engine: EmbeddedEngine) -> str:
    """Newline-separated table names from the session catalog."""
    try:
        return "\n".join(engine.list_tables())
    except (SessionClosedError, EngineError) as exc:
        raise ToolError(f"list_tables failed: {exc}") from exc


def tool_get_schema(
    engine: EmbeddedEngine, tables: Sequence[str], sample_rows: int
) -> str:
    """DDL per table plus up to sample_rows example rows as a text grid.

    An unknown table produces an inline 'table not found' line instead of
    aborting, leaving the controller room to correct itself next turn.
    """
    sections: list[str] = []
    try:
        for table in tables:
            try:
                ddl = engine.get_create_table(table)
            except TableNotFoundError:
                sections.append(f"table not found: {table}")
                continue
            part = ddl
            if sample_rows > 0:
                result, _ = engine.execute_timed(
                    f'SELECT * FROM "{table}" LIMIT {int(sample_rows)}'
                )
                part += "\nsample rows:\n" + _render_grid(result)
            sections.append(part)
    except EngineError as exc:
        raise ToolError(f"get_schema failed: {exc}") from exc
    return "\n\n".join(sections)


def tool_check_query(llm: LlmBackend, sql: str) -> ChatExchange:
    """Send the query to the checker model; its verdict text is the observation."""
    if not sql.strip():
        raise ToolError("check_query requires a non-empty sql string")
    messages = [
        {"role": "system", "content": DEFAULT_CHECKER_PROMPT},
        {"role": "user", "content": sql},
    ]
    try:
        return llm.complete(messages)
    except (LlmTransportError, ReplayExhaustedError) as exc:
        raise ToolError(f"checker llm failed: {exc}") from exc


def tool_run_query(engine: EmbeddedEngine, sql: str) -> tuple[ResultTable, float]:
    """Execute the query, returning the full result and its runtime."""
    if not sql.strip():
        raise ToolError("run_query requires a non-empty sql string")
    try:
        result, seconds = engine.execute_timed(sql)
    except EngineError as exc:
        raise ToolError(f"run_query failed: {exc}") from exc
    return result, seconds


def _render_grid(table: ResultTable) -> str:
    headers = list(table.column_names)
    rows = [[_cell_text(v) for v in row] for row in table.rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell_text(value: Any) -> str:
    if value is None:
        return "NULL"
    return str(value)


# --- controller reply parsing ------------------------------------------------

_ACTION_RE = re.compile(r"^Action:\s*(\S+)\s*$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(r"^Action Input:\s*(.*)$", re.MULTILINE | re.DOTALL)
_FINAL_RE = re.compile(r"^Final Answer:\s*(.*)$", re.MULTILINE | re.DOTALL)
_THOUGHT_RE = re.compile(
    r"Thought:\s*(.*?)(?=^(?:Action|Final Answer):|\Z)", re.MULTILINE | re.DOTALL
)


@dataclass(frozen=True)
class ParsedStep:
    thought: str
    action: str | None
    action_input: dict[str, Any]
    final_answer: str | None


_UNPARSED = ParsedStep("", None, {}, None)  # an open iteration's reply until it parses


def parse_controller_reply(exchange: ChatExchange) -> ParsedStep:
    """Decode a controller reply: structured tool call or the text protocol."""
    if exchange.tool_call is not None:
        arguments = exchange.tool_call.get("arguments")
        return ParsedStep(
            thought=exchange.response_text.strip(),
            action=exchange.tool_call.get("name"),
            action_input={} if arguments is None else _action_arguments(arguments),
            final_answer=None,
        )
    text = exchange.response_text
    thought_match = _THOUGHT_RE.search(text)
    thought = thought_match.group(1).strip() if thought_match else ""
    action_match = _ACTION_RE.search(text)
    final_match = _FINAL_RE.search(text)
    if action_match and (not final_match or action_match.start() < final_match.start()):
        input_match = _ACTION_INPUT_RE.search(text, action_match.end())
        raw = input_match.group(1).strip() if input_match else ""
        return ParsedStep(
            thought=thought,
            action=action_match.group(1),
            action_input=_parse_action_input(raw),
            final_answer=None,
        )
    if final_match:
        return ParsedStep(
            thought=thought,
            action=None,
            action_input={},
            final_answer=final_match.group(1).strip(),
        )
    raise ActionParseError(
        f"reply has neither an Action nor a Final Answer: {text[:200]!r}"
    )


def _parse_action_input(raw: str) -> dict[str, Any]:
    if not raw:
        return {}
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError:
        return {"raw": raw}
    return _action_arguments(parsed)


def _action_arguments(value: Any) -> dict[str, Any]:
    """Tool arguments as an object: an object as it is, an array as the
    `tables` list, anything else as its text under `raw`."""
    if isinstance(value, dict):
        return value
    if isinstance(value, list):
        return {"tables": value}
    return {"raw": str(value)}


def _sql_argument(args: dict[str, Any]) -> str:
    return str(args.get("sql") or args.get("raw") or "")


def _tables_argument(args: dict[str, Any]) -> list[str]:
    tables = args.get("tables")
    if tables is None:
        tables = str(args.get("raw") or "")
    if isinstance(tables, str):
        tables = [t for t in re.split(r"[,\s]+", tables) if t]
    if not isinstance(tables, list):
        raise ToolError(f"get_schema: tables is not a list: {tables!r}")
    return [str(t) for t in tables]


def _sample_rows_argument(args: dict[str, Any], default: int) -> int:
    value = args.get("sample_rows", default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ToolError(
            f"get_schema: sample_rows is not an integer: {value!r}"
        ) from exc


# --- the loop ----------------------------------------------------------------


def run_agent(
    question: str,
    config: AgentConfig,
    llm: LlmBackend,
    engine: EmbeddedEngine,
) -> AgentTrace:
    """Drive one episode: prompt, parse, dispatch, observe, repeat.

    Stops at the final answer, the first run_query, the iteration cap, or an
    unrecoverable error.  The checker shares the controller backend; its
    tokens bill to the check iteration.  A fault that is not the model's (a
    ReplayMismatchError, or a harness bug) ends the trace as harness-error;
    the trace keeps the iteration it interrupted when that one made an
    exchange, so every exchange made is billed.
    """
    trace = AgentTrace(question=question, model_id=llm.model_id)
    messages: list[dict[str, str]] = [
        {"role": "system", "content": DEFAULT_SYSTEM_PROMPT},
        {"role": "user", "content": question},
    ]

    # Iterations tile the episode: each starts where the previous ended, so
    # stage seconds sum to e2e and breakdown percentages sum to 100.
    started = time.perf_counter()
    # the exchanges of the open iteration, whose parsed reply is `step`
    exchanges: list[dict[str, Any]] = []

    def end_iteration(
        action: str | None, observation: str, engine_seconds: float = 0.0
    ) -> None:
        """Append the open iteration, billed with its exchanges' tokens."""
        nonlocal started, exchanges
        ended = time.perf_counter()
        trace.iterations.append(
            Iteration(
                index=len(trace.iterations),
                thought=step.thought,
                action=action,
                action_input=step.action_input,
                observation=observation,
                started_at=started,
                ended_at=ended,
                input_tokens=sum(ex["usage"]["input_tokens"] for ex in exchanges),
                output_tokens=sum(ex["usage"]["output_tokens"] for ex in exchanges),
                engine_seconds=engine_seconds,
                exchanges=exchanges,
            )
        )
        started = ended
        exchanges = []

    try:
        for _ in range(config.max_iterations):
            step = _UNPARSED
            try:
                exchange = llm.complete(messages, TOOL_SCHEMAS)
            except (LlmTransportError, ReplayExhaustedError) as exc:
                trace.outcome, trace.error = OUTCOME_LLM_ERROR, str(exc)
                return trace

            exchanges = [exchange.to_record()]
            try:
                step = parse_controller_reply(exchange)
            except ActionParseError as exc:
                end_iteration(None, f"unparseable reply: {exc}")
                trace.outcome, trace.error = OUTCOME_LLM_ERROR, str(exc)
                return trace

            if step.final_answer is not None:
                end_iteration(FINAL_ANSWER_ACTION, "")
                trace.outcome, trace.final_answer = OUTCOME_COMPLETED, step.final_answer
                return trace

            messages.append({"role": "assistant", "content": exchange.response_text})

            action = step.action or ""
            if action not in _TOOL_STAGE:
                end_iteration(None, f"unknown tool: {action}")
                trace.outcome = OUTCOME_LLM_ERROR
                trace.error = f"unknown tool: {action!r}"
                return trace

            observation = ""
            engine_seconds = 0.0
            failed = False
            run_result: ResultTable | None = None
            run_sql: str | None = None
            try:
                if action == "list_tables":
                    t0 = time.perf_counter()
                    observation = tool_list_tables(engine)
                    engine_seconds = time.perf_counter() - t0
                elif action == "get_schema":
                    tables = _tables_argument(step.action_input)
                    sample_rows = _sample_rows_argument(
                        step.action_input, config.sample_rows
                    )
                    t0 = time.perf_counter()
                    observation = tool_get_schema(engine, tables, sample_rows)
                    engine_seconds = time.perf_counter() - t0
                elif action == "check_query":
                    checker_exchange = tool_check_query(
                        llm, _sql_argument(step.action_input)
                    )
                    exchanges.append(checker_exchange.to_record())
                    observation = checker_exchange.response_text
                elif action == "run_query":
                    run_sql = _sql_argument(step.action_input)
                    run_result, engine_seconds = tool_run_query(engine, run_sql)
                    observation = (
                        f"query returned {run_result.n_rows} row(s), "
                        f"{len(run_result.columns)} column(s)"
                    )
            except ToolError as exc:
                observation = str(exc)
                failed = True

            observation = truncate_observation(observation)
            messages.append({"role": "user", "content": f"Observation: {observation}"})
            end_iteration(action, observation, engine_seconds)

            # A failed tool ends the episode too: re-running queries to
            # self-correct is exactly the loop this harness refuses to pay for.
            if failed:
                trace.outcome, trace.error = OUTCOME_TOOL_ERROR, observation
            elif action == "run_query":
                trace.outcome, trace.final_result = OUTCOME_COMPLETED, run_result
            else:
                continue
            trace.final_sql = run_sql
            return trace
    except Exception as exc:  # not the model's fault; bill what it did
        if exchanges:
            end_iteration(step.action, "")
        trace.end_by_fault(exc)
    return trace


def stage_breakdown(trace: AgentTrace) -> StageBreakdown:
    """Attribute each iteration's wall-clock to its tool's stage.

    An iteration's full duration (LLM thinking plus tool execution) belongs
    to the stage of the tool it called; tool-free turns go to finalize.
    """
    seconds = {stage: 0.0 for stage in STAGES}
    for it in trace.iterations:
        seconds[stage_for_action(it.action)] += it.duration
    e2e = trace.e2e_seconds
    if e2e > 0:
        percentages = {s: 100.0 * v / e2e for s, v in seconds.items()}
    else:
        percentages = {s: 0.0 for s in STAGES}
    return StageBreakdown(seconds=seconds, percentages=percentages)


# --- episode log serialization ------------------------------------------------

_ITERATION_FIELDS = tuple(f.name for f in fields(Iteration))
_CLOCK_FIELDS = ("started_at", "ended_at", "engine_seconds")
_UNTIMED_ITERATION_FIELDS = tuple(
    name for name in _ITERATION_FIELDS if name not in _CLOCK_FIELDS
)


def trace_to_jsonl(trace: AgentTrace, include_timing: bool = True) -> str:
    """Serialize an episode to JSON lines: meta, one line per iteration, outcome.

    With include_timing=False all clock-derived fields are dropped, giving a
    stable byte representation for replay comparison.
    """
    lines = [
        json.dumps(
            {"type": "meta", "question": trace.question, "model_id": trace.model_id},
            sort_keys=True,
        )
    ]
    # json.dumps only reads the nested action_input/exchanges values, so they
    # go in as they are, not deep-copied
    names = _ITERATION_FIELDS if include_timing else _UNTIMED_ITERATION_FIELDS
    for it in trace.iterations:
        record = {name: getattr(it, name) for name in names}
        record["type"] = "iteration"
        lines.append(json.dumps(record, sort_keys=True))
    outcome = {
        "type": "outcome",
        "outcome": trace.outcome,
        "final_sql": trace.final_sql,
        "final_answer": trace.final_answer,
        "error": trace.error,
        "final_result": (
            _logged_result(trace.final_result) if trace.final_result else None
        ),
    }
    lines.append(json.dumps(outcome, sort_keys=True, default=json_cell))
    return "\n".join(lines) + "\n"


# sizes result rows one at a time as json.dumps(rows, default=json_cell) would
_ROW_ENCODER = json.JSONEncoder(default=json_cell)


def _logged_result(table: ResultTable) -> dict[str, Any]:
    """`final_result` as an outcome line logs it.

    A result whose rows' JSON array fits the observation budget is logged
    whole.  A larger one is cut to the longest prefix of rows that fits,
    plus its `row_count`: the data and `final_sql` rebuild the rest, and
    sizing stops at the first row past the budget, so the cost of a cut
    does not grow with the result.
    """
    size = 1  # "["
    kept = 0
    for row in table.rows:
        size += len(_ROW_ENCODER.encode(row)) + (2 if kept else 0)  # ", "
        if size + 1 > DEFAULT_OBSERVATION_CAP:  # "]"
            break
        kept += 1
    else:
        return table.to_json_dict()
    cut = ResultTable(table.columns, table.rows[:kept]).to_json_dict()
    cut["row_count"] = table.n_rows
    return cut


# The fields of each trace line but `type`, each with the JSON type the
# writer gives it; an untimed trace's iterations leave out `_CLOCK_FIELDS`.
_LINE_FIELDS: dict[str, dict[str, str]] = {
    "meta": {"question": "a string", "model_id": "a string"},
    "iteration": {
        "index": "an int", "thought": "a string", "action": "null or a string",
        "action_input": "an object", "observation": "a string",
        "started_at": "a number", "ended_at": "a number",
        "input_tokens": "an int", "output_tokens": "an int",
        "engine_seconds": "a number", "engine_bytes": "an int",
        "exchanges": "a list",
    },
    "outcome": {
        "outcome": "a string", "final_sql": "null or a string",
        "final_answer": "null or a string", "error": "null or a string",
        "final_result": "null or an object",
    },
}
_JSON_TYPES: dict[str, Any] = {
    "a string": str, "null or a string": (str, type(None)), "an int": int,
    "a number": (int, float), "an object": dict,
    "null or an object": (dict, type(None)), "a list": list,
}


def read_trace_line(record: dict[str, Any], number: int) -> tuple[str, dict[str, Any]]:
    """The `type` and other fields of trace line `number`, which must be one
    `trace_to_jsonl` could write, else ValueError naming the line.  The
    fields of an iteration are `Iteration` arguments (an untimed one's clock
    fields read as 0.0); an outcome's `final_result` is a ResultTable, or
    None when the line holds none or a result cut to a prefix of its rows."""
    kind = record.get("type")
    if kind not in _LINE_FIELDS:
        raise ValueError(
            f"line {number}: type {kind!r} is not meta, iteration or outcome"
        )
    types = _LINE_FIELDS[kind]
    values = {name: value for name, value in record.items() if name != "type"}
    optional = _CLOCK_FIELDS if kind == "iteration" else ()
    missing = [n for n in types if n not in values and n not in optional]
    unknown = [n for n in values if n not in types]
    if missing or unknown:
        raise ValueError(
            f"line {number}: missing fields {missing}, unknown fields {unknown}"
        )
    for name, value in values.items():
        expected = types[name]
        # the writer writes no bool, which isinstance would take for an int
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[expected]):
            raise ValueError(f"line {number}: `{name}` is not {expected}")
    if kind == "iteration":
        for exchange in values["exchanges"]:
            check_exchange(exchange, number)
        for name in _CLOCK_FIELDS:
            values.setdefault(name, 0.0)
    elif kind == "outcome":
        if values["outcome"] not in OUTCOMES:
            raise ValueError(
                f"line {number}: `outcome` {values['outcome']!r} is not one of "
                f"{', '.join(OUTCOMES)}"
            )
        table = values["final_result"]
        if table is not None:
            try:
                result = ResultTable.from_json_dict(table)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ValueError(
                    f"line {number}: `final_result` is not a result table: {exc!r}"
                ) from None
            values["final_result"] = None if "row_count" in table else result
    return kind, values


def trace_from_jsonl(text: str) -> AgentTrace:
    """Rebuild an AgentTrace from its episode log, each line read by
    `read_trace_line`.

    A trace holds the whole result only when its rows fit the observation
    budget; an outcome line cut to a prefix (it carries `row_count`) reads
    back with `final_result` None, never as the prefix.
    """
    trace = AgentTrace()
    for number, record in json_lines(text.splitlines()):
        kind, values = read_trace_line(record, number)
        if kind == "iteration":
            trace.iterations.append(Iteration(**values))
        else:  # a meta or outcome line sets the trace fields it names
            for name, value in values.items():
                setattr(trace, name, value)
    return trace
