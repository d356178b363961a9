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
    NonNegative,
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
    """One Thought/Action/Observation turn with its timing, and the token
    usage of its exchanges (each billed, so with both counts)."""

    index: Count  # its position in the trace (`read_trace_line`)
    thought: str
    action: str | None
    action_input: dict[str, Any]
    observation: str
    started_at: NonNegative  # where the previous iteration ended
    ended_at: NonNegative  # not before started_at
    engine_seconds: NonNegative = 0.0
    engine_bytes: Count = 0
    exchanges: list[ExchangeRecord] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    @property
    def input_tokens(self) -> int:
        return sum(ex.usage.input_tokens for ex in self.exchanges)

    @property
    def output_tokens(self) -> int:
        return sum(ex.usage.output_tokens for ex in self.exchanges)


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


def tool_list_tables(engine: EmbeddedEngine) -> tuple[str, float]:
    """Newline-separated table names from the session catalog, and the
    seconds spent in the engine."""
    started = time.perf_counter()
    tables = engine.list_tables()
    return "\n".join(tables), time.perf_counter() - started


def tool_get_schema(
    engine: EmbeddedEngine, tables: Sequence[str], sample_rows: int
) -> tuple[str, float]:
    """DDL per table plus up to sample_rows example rows as a text grid, and
    the seconds spent in the engine: its catalog lookups and its sample
    queries' execution, not the rendering.

    An unknown table produces an inline 'table not found' line instead of
    aborting, leaving the controller room to correct itself next turn.
    """
    sections: list[str] = []
    engine_seconds = 0.0
    for table in tables:
        started = time.perf_counter()
        try:
            part = engine.get_create_table(table)
        except TableNotFoundError:
            part = None  # reported below, outside the engine's time
        engine_seconds += time.perf_counter() - started
        if part is None:
            sections.append(f"table not found: {table}")
            continue
        if sample_rows > 0:
            result, seconds = engine.execute_timed(
                f'SELECT * FROM "{table}" LIMIT {int(sample_rows)}'
            )
            engine_seconds += seconds
            part += "\nsample rows:\n" + _render_grid(result)
        sections.append(part)
    return "\n\n".join(sections), engine_seconds


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
    """The header and rows, each cell padded to its column's widest (NULL
    for None)."""
    names = table.column_names
    rows = [["NULL" if v is None else str(v) for v in row] for row in table.rows]
    widths = [max(map(len, column)) for column in zip(names, *rows)]
    lines = ["  ".join(map(str.ljust, names, widths))]
    lines += ["  ".join(map(str.ljust, row, widths)) for row in rows]
    return "\n".join(lines)


# --- controller reply parsing ------------------------------------------------

_ACTION_RE = re.compile(r"^Action:\s*(\S+)\s*$", re.MULTILINE)
# where a thought ends, unless the reply ends first
_THOUGHT_END_RE = re.compile(r"^(?:Action|Final Answer):", re.MULTILINE)


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
    # The thought runs from the first "Thought:" to the next line that starts
    # "Action:" or "Final Answer:"; an action input or final answer runs from
    # the first line that starts with its label, after the action, to the end.
    thought = ""
    start = text.find("Thought:")
    if start >= 0:
        end = _THOUGHT_END_RE.search(text, start + len("Thought:"))
        thought = text[start + len("Thought:"):end.start() if end else None].strip()
    final = _line_starting(text, "Final Answer:", 0)
    action_match = _ACTION_RE.search(text)
    if action_match and (final < 0 or action_match.start() < final):
        raw = ""
        start = _line_starting(text, "Action Input:", action_match.end())
        if start >= 0:
            raw = text[start + len("Action Input:"):].strip()
        return ParsedStep(
            thought=thought,
            action=action_match.group(1),
            action_input=_parse_action_input(raw),
            final_answer=None,
        )
    if final >= 0:
        return ParsedStep(
            thought=thought,
            action=None,
            action_input={},
            final_answer=text[final + len("Final Answer:"):].strip(),
        )
    raise ActionParseError(
        f"reply has neither an Action nor a Final Answer: {text[:200]!r}"
    )


def _line_starting(text: str, label: str, pos: int) -> int:
    """Where the first line at or after `pos` that starts with `label`
    begins, or -1."""
    if text.startswith(label, pos) and (pos == 0 or text[pos - 1] == "\n"):
        return pos
    found = text.find("\n" + label, pos)
    return found + 1 if found >= 0 else -1


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
    """The tables to describe: a list of names, or one string of names
    separated by commas or spaces; anything else is refused, not coerced."""
    tables = args.get("tables")
    if tables is None:
        tables = str(args.get("raw") or "")
    if isinstance(tables, str):
        return [t for t in re.split(r"[,\s]+", tables) if t]
    if not isinstance(tables, list):
        raise ToolError(f"get_schema: tables is not a list: {tables!r}")
    try:
        return read_json(list[str], tables, "tables")
    except ValueError as exc:
        raise ToolError(f"get_schema: {exc}") from None


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
        """Append the open iteration, with its exchanges."""
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
                    observation, engine_seconds = tool_list_tables(engine)
                elif action == "get_schema":
                    tables = _tables_argument(step.action_input)
                    sample_rows = _sample_rows_argument(
                        step.action_input, config.sample_rows
                    )
                    observation, engine_seconds = tool_get_schema(
                        engine, tables, sample_rows
                    )
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

# an iteration line's fields: the Iteration's and its token counts
_TOKEN_FIELDS = ("input_tokens", "output_tokens")
_ITERATION_FIELDS = (*(f.name for f in fields(Iteration)), *_TOKEN_FIELDS)

# The fields of each trace line but `type`, which `read_trace_line` reads by
# their annotations in the dataclass that holds them.
_LINES: dict[str, tuple[type, tuple[str, ...]]] = {
    "meta": (AgentTrace, ("question", "model_id")),
    "iteration": (Iteration, _ITERATION_FIELDS),
    "outcome": (
        AgentTrace, ("outcome", "final_sql", "final_answer", "error", "final_result")
    ),
}


def trace_to_jsonl(trace: AgentTrace) -> str:
    """Serialize an episode to JSON lines: meta, one line per iteration, outcome."""
    meta = {name: getattr(trace, name) for name in _LINES["meta"][1]}
    lines = [json.dumps({"type": "meta", **meta}, sort_keys=True)]
    # json.dumps only reads the nested action_input/exchanges values, so they
    # go in as they are, not deep-copied; an exchange is written as its fields
    for it in trace.iterations:
        record = {name: getattr(it, name) for name in _ITERATION_FIELDS}
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

    A result whose rows' JSON array fits the observation budget and reads
    back cell for cell is logged whole.  Any other is cut to the longest
    prefix of rows that does both, plus its `row_count`: the data and
    `final_sql` rebuild the rest, and sizing stops at the first row past
    the budget, so the cost of a cut does not grow with the result.
    """
    # A column is tagged by its first non-null cell and bytes are logged as
    # hex text, so a text or bytes cell reads back (`_read_final_result`) as
    # it is exactly when it is bytes in a blob column or text elsewhere.
    blob = [column.type_tag == "blob" for column in table.columns]
    size = 1  # "["
    kept = 0
    for row in table.rows:
        if any(isinstance(cell, bytes) != in_blob for cell, in_blob in zip(row, blob)
               if isinstance(cell, (str, bytes))):
            break
        size += len(_ROW_ENCODER.encode(row)) + (2 if kept else 0)  # ", "
        if size + 1 > DEFAULT_OBSERVATION_CAP:  # "]"
            break
        kept += 1
    else:
        return table.to_json_dict()
    cut = ResultTable(table.columns, table.rows[:kept]).to_json_dict()
    cut["row_count"] = table.n_rows
    return cut


def read_trace_line(
    record: dict[str, Any], number: int, before: Sequence[Iteration]
) -> tuple[str, dict[str, Any]]:
    """The `type` and other fields of trace line `number`, which must be one
    `trace_to_jsonl` could write after the iterations `before`, else
    ValueError naming the line and path.  An iteration's fields are
    `Iteration` arguments (exchanges ExchangeRecords); an outcome's
    `final_result` is a ResultTable, or None when the line holds none or a
    cut result."""
    try:
        kind = read_json(Literal[tuple(_LINES)], record.get("type"), "type")
        cls, names = _LINES[kind]
        raw = {name: value for name, value in record.items() if name != "type"}
        if kind == "iteration":
            values = read_fields(cls, raw, names, **{
                name: lambda value, name=name: read_json(Count, value, name)
                for name in _TOKEN_FIELDS
            })
            _check_iteration(values, before)
        else:
            values = read_fields(cls, raw, names, final_result=_read_final_result)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    return kind, values


def _check_iteration(values: dict[str, Any], before: Sequence[Iteration]) -> None:
    """Refuse an iteration line's `values` unless `end_iteration` could have
    written them after the iterations `before`: at its position, starting
    where the last ended, its engine time within its own, with its exchanges'
    token counts (which leave `values`)."""
    if values["index"] != len(before):
        raise ValueError(f"`index` is not {len(before)}, the iteration's position")
    if before and values["started_at"] != before[-1].ended_at:
        raise ValueError("`started_at` is not the previous iteration's `ended_at`")
    if values["ended_at"] < values["started_at"]:
        raise ValueError("`ended_at` is before `started_at`")
    if values["engine_seconds"] > values["ended_at"] - values["started_at"]:
        raise ValueError("`engine_seconds` exceeds `ended_at` - `started_at`")
    for name in _TOKEN_FIELDS:
        counts = [getattr(ex.usage, name, None) for ex in values["exchanges"]]
        if None in counts:
            raise ValueError(f"`exchanges[{counts.index(None)}].usage` has no {name}")
        if values.pop(name) != sum(counts):
            raise ValueError(f"`{name}` is not its exchanges' sum, {sum(counts)}")


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
    `read_trace_line`; ValueError for a trace that cannot be billed, one
    whose stage sums (`stage_breakdown`) leave their range.

    A trace holds the whole result only when its rows fit the observation
    budget and read back (`_logged_result`); an outcome line cut to a prefix
    (it carries `row_count`) reads back with `final_result` None, never as
    the prefix.
    """
    trace = AgentTrace()
    for number, record in json_lines(text.splitlines()):
        kind, values = read_trace_line(record, number, trace.iterations)
        if kind == "iteration":
            trace.iterations.append(Iteration(**values))
        else:  # a meta or outcome line sets the trace fields it names
            for name, value in values.items():
                setattr(trace, name, value)
    # sums of values in range may leave it: counts past 2**53, times past a float
    for stage, usage in stage_breakdown(trace).items():
        check_fields(usage, stage)
    return trace
