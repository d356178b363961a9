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
from typing import Any, Literal, Sequence

from .engine import EmbeddedEngine, EngineError, TableNotFoundError
from .llmclient import (
    ExchangeRecord,
    LlmBackend,
    LlmTransportError,
    ReplayExhaustedError,
    json_lines,
)
from .metrics import (
    Count,
    Outcome,
    PositiveInt,
    StageUsage,
    check_fields,
    read_fields,
    read_json,
)
from .resultset import ResultTable, json_cell

FINAL_ANSWER_ACTION = "final_answer"

# the values of `metrics.Outcome`
OUTCOME_COMPLETED = "completed"
OUTCOME_EXHAUSTED = "exhausted"
OUTCOME_TOOL_ERROR = "tool-error"
OUTCOME_LLM_ERROR = "llm-error"
OUTCOME_HARNESS_ERROR = "harness-error"

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

_SQL_PROPERTIES = {"sql": {"type": "string"}}
# each tool's stage, and the description, JSON-schema properties and required
# properties of the function-calling schema that offers it to the model
_TOOLS: dict[str, tuple[str, str, dict[str, Any], tuple[str, ...]]] = {
    "list_tables": (
        "list", "List the tables available in the connected database.", {}, ()
    ),
    "get_schema": (
        "schema", "Fetch CREATE TABLE text and sample rows for tables.",
        {"tables": {"type": "array", "items": {"type": "string"}},
         "sample_rows": {"type": "integer"}},
        ("tables",),
    ),
    "check_query": (
        "check", "Have a reviewer validate a SQL query before running it.",
        _SQL_PROPERTIES, ("sql",),
    ),
    "run_query": (
        "run", "Execute a SQL query; the episode ends after the first run.",
        _SQL_PROPERTIES, ("sql",),
    ),
}

TOOL_SCHEMAS: list[dict[str, Any]] = [
    {"type": "function", "function": {
        "name": name,
        "description": description,
        "parameters": {"type": "object", "properties": properties,
                       **({"required": list(required)} if required else {})},
    }}
    for name, (_, description, properties, required) in _TOOLS.items()
]


class ToolError(RuntimeError):
    """A tool invocation failed in a way the episode cannot recover from."""


class ActionParseError(ValueError):
    """The controller reply did not follow the action grammar."""


@dataclass(frozen=True)
class AgentConfig:
    """Episode-level knobs for the controller loop."""

    max_iterations: PositiveInt = 15
    sample_rows: Count = 3

    def __post_init__(self) -> None:
        check_fields(self)


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
    exchanges: list[ExchangeRecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at


@dataclass
class AgentTrace:
    """Ordered iterations of one episode plus its terminal state."""

    iterations: list[Iteration] = field(default_factory=list)
    outcome: Outcome = OUTCOME_EXHAUSTED
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
        return any(ex.estimated for it in self.iterations for ex in it.exchanges)


def stage_for_action(action: str | None) -> str:
    """Stage a tool action belongs to; tool-free turns form the finalize stage."""
    tool = _TOOLS.get(action)
    return tool[0] if tool else "finalize"


def truncate_observation(text: str, cap: int = DEFAULT_OBSERVATION_CAP) -> str:
    if len(text) <= cap:
        return text
    return text[:cap] + TRUNCATION_MARKER


# --- tools -----------------------------------------------------------------


def tool_list_tables(engine: EmbeddedEngine) -> str:
    """Newline-separated table names from the session catalog."""
    return "\n".join(engine.list_tables())


def tool_get_schema(
    engine: EmbeddedEngine, tables: Sequence[str], sample_rows: int
) -> str:
    """DDL per table plus up to sample_rows example rows as a text grid.

    An unknown table produces an inline 'table not found' line instead of
    aborting, leaving the controller room to correct itself next turn.
    """
    sections: list[str] = []
    for table in tables:
        try:
            part = engine.get_create_table(table)
        except TableNotFoundError:
            sections.append(f"table not found: {table}")
            continue
        if sample_rows > 0:
            result, _ = engine.execute_timed(
                f'SELECT * FROM "{table}" LIMIT {int(sample_rows)}'
            )
            part += "\nsample rows:\n" + _render_grid(result)
        sections.append(part)
    return "\n\n".join(sections)


def tool_check_query(llm: LlmBackend, sql: str) -> ExchangeRecord:
    """Send the query to the checker model; its verdict text is the observation."""
    messages = [
        {"role": "system", "content": DEFAULT_CHECKER_PROMPT},
        {"role": "user", "content": sql},
    ]
    try:
        return llm.complete(messages)
    except (LlmTransportError, ReplayExhaustedError) as exc:
        raise ToolError(f"checker llm failed: {exc}") from exc


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


def parse_controller_reply(exchange: ExchangeRecord) -> ParsedStep:
    """Decode a controller reply: structured tool call or the text protocol."""
    text, tool_call = exchange.response.text, exchange.response.tool_call
    if tool_call is not None:
        arguments = tool_call.arguments
        return ParsedStep(
            thought=text.strip(),
            action=tool_call.name,
            action_input={} if arguments is None else _action_arguments(arguments),
            final_answer=None,
        )
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


def _sql_text(args: dict[str, Any]) -> str:
    return str(args.get("sql") or args.get("raw") or "")


def _sql_argument(args: dict[str, Any], action: str) -> str:
    """The query a check or run sends, refused when blank."""
    sql = _sql_text(args)
    if not sql.strip():
        raise ToolError(f"{action} requires a non-empty sql string")
    return sql


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
    try:
        return read_json(int, args.get("sample_rows", default), "sample_rows")
    except ValueError as exc:
        raise ToolError(f"get_schema: {exc}") from None


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
    exchanges: list[ExchangeRecord] = []

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
                input_tokens=sum(ex.usage.input_tokens for ex in exchanges),
                output_tokens=sum(ex.usage.output_tokens for ex in exchanges),
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

            exchanges = [exchange]
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

            messages.append({"role": "assistant", "content": exchange.response.text})

            action = step.action or ""
            if action not in _TOOLS:
                end_iteration(None, f"unknown tool: {action}")
                trace.outcome = OUTCOME_LLM_ERROR
                trace.error = f"unknown tool: {action!r}"
                return trace

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
                        llm, _sql_argument(step.action_input, action)
                    )
                    exchanges.append(checker_exchange)
                    observation = checker_exchange.response.text
                else:  # run_query; a refused run's final_sql is still the text sent
                    run_sql = _sql_text(step.action_input)
                    run_result, engine_seconds = engine.execute_timed(
                        _sql_argument(step.action_input, action)
                    )
                    observation = (
                        f"query returned {run_result.n_rows} row(s), "
                        f"{len(run_result.columns)} column(s)"
                    )
            except ToolError as exc:
                observation, failed = str(exc), True
            except EngineError as exc:  # any tool's engine failure, named by tool
                observation, failed = f"{action} failed: {exc}", True

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


def stage_breakdown(trace: AgentTrace) -> dict[str, StageUsage]:
    """Each stage's usage, in the order the stages first ran.

    An iteration's duration (LLM thinking plus tool execution), tokens and
    engine use go to the stage of the tool it called, a tool-free turn's to
    finalize; a check iteration's tokens include its checker call.
    """
    stages: dict[str, StageUsage] = {}
    for it in trace.iterations:
        usage = stages.setdefault(stage_for_action(it.action), StageUsage())
        usage.seconds += it.duration
        usage.input_tokens += it.input_tokens
        usage.output_tokens += it.output_tokens
        usage.engine_seconds += it.engine_seconds
        usage.engine_bytes += it.engine_bytes
    return stages


# --- episode log serialization ------------------------------------------------

_ITERATION_FIELDS = tuple(f.name for f in fields(Iteration))
_CLOCK_FIELDS = ("started_at", "ended_at", "engine_seconds")
_UNTIMED_ITERATION_FIELDS = tuple(
    name for name in _ITERATION_FIELDS if name not in _CLOCK_FIELDS
)

# The fields of each trace line but `type`, which `read_trace_line` reads by
# their annotations in the dataclass that holds them; an untimed trace's
# iterations leave out `_CLOCK_FIELDS`.
_LINES: dict[str, tuple[type, tuple[str, ...]]] = {
    "meta": (AgentTrace, ("question", "model_id")),
    "iteration": (Iteration, _ITERATION_FIELDS),
    "outcome": (
        AgentTrace, ("outcome", "final_sql", "final_answer", "error", "final_result")
    ),
}


def trace_to_jsonl(trace: AgentTrace, include_timing: bool = True) -> str:
    """Serialize an episode to JSON lines: meta, one line per iteration, outcome.

    With include_timing=False all clock-derived fields are dropped, giving a
    stable byte representation for replay comparison.
    """
    meta = {name: getattr(trace, name) for name in _LINES["meta"][1]}
    lines = [json.dumps({"type": "meta", **meta}, sort_keys=True)]
    # json.dumps only reads the nested action_input/exchanges values, so they
    # go in as they are, not deep-copied; an exchange is written as its fields
    names = _ITERATION_FIELDS if include_timing else _UNTIMED_ITERATION_FIELDS
    for it in trace.iterations:
        record = {name: getattr(it, name) for name in names}
        record["type"] = "iteration"
        lines.append(json.dumps(record, sort_keys=True, default=vars))
    outcome = {name: getattr(trace, name) for name in _LINES["outcome"][1]}
    outcome.update(type="outcome", final_result=(
        trace.final_result and _logged_result(trace.final_result)
    ))
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


def read_trace_line(record: dict[str, Any], number: int) -> tuple[str, dict[str, Any]]:
    """The `type` and other fields of trace line `number`, which must be one
    `trace_to_jsonl` could write, else ValueError naming the line and path.
    An iteration's fields are `Iteration` arguments (exchanges ExchangeRecords,
    an untimed one's clock fields 0.0); an outcome's `final_result` is a
    ResultTable, or None when the line holds none or a cut result."""
    try:
        kind = read_json(Literal[tuple(_LINES)], record.get("type"), "type")
        cls, names = _LINES[kind]
        raw = {name: value for name, value in record.items() if name != "type"}
        if kind == "iteration":
            values = read_fields(cls, raw, names, _CLOCK_FIELDS)
            for name in _CLOCK_FIELDS:
                values.setdefault(name, 0.0)
        else:
            values = read_fields(cls, raw, names, final_result=_read_final_result)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    return kind, values


def _read_final_result(table: Any) -> ResultTable | None:
    """An outcome line's `final_result`: None for null or a result cut to a
    prefix of its rows, which carries the `row_count` of the whole."""
    table = read_json(dict[str, Any] | None, table, "final_result")
    if table is None:
        return None
    kept = {name: value for name, value in table.items() if name != "row_count"}
    result = ResultTable.from_json_dict(kept, "final_result")
    if "row_count" in table:  # a cut result
        count = table["row_count"]
        if type(count) is not int or count <= result.n_rows:
            raise ValueError(
                f"`final_result.row_count` is not an int above the {result.n_rows} "
                "rows kept"
            )
        return None
    return result


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
