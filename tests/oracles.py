"""Independent reference computations used by unit and acceptance tests.

These deliberately avoid the package's engine/metrics code paths: the
group-by oracle works straight off the raw CSV text, so an engine bug
cannot cancel itself out.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sqlite3
from dataclasses import asdict
from pathlib import Path

from bigsqlbench.agent import (
    DEFAULT_OBSERVATION_CAP,
    ActionParseError,
    ParsedStep,
    _action_arguments,
    _parse_action_input,
)
from bigsqlbench.resultset import Column, ResultTable, _infer_tag, json_cell

PRICING_SUMMARY_CUTOFF = "1998-09-02"

PRICING_SUMMARY_SQL = (
    "SELECT l_returnflag, l_linestatus, "
    "SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "AVG(l_quantity) AS avg_qty, "
    "COUNT(*) AS count_order "
    f"FROM lineitem WHERE l_shipdate <= '{PRICING_SUMMARY_CUTOFF}' "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus"
)


def pricing_summary_oracle(data_dir: Path) -> ResultTable:
    """Brute-force group-by over the raw lineitem CSV rows."""
    groups: dict[tuple[str, str], dict[str, float]] = {}
    with open(data_dir / "lineitem.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["l_shipdate"] > PRICING_SUMMARY_CUTOFF:
                continue
            key = (row["l_returnflag"], row["l_linestatus"])
            acc = groups.setdefault(
                key, {"qty": 0.0, "base": 0.0, "disc": 0.0, "count": 0.0}
            )
            quantity = float(row["l_quantity"])
            price = float(row["l_extendedprice"])
            discount = float(row["l_discount"])
            acc["qty"] += quantity
            acc["base"] += price
            acc["disc"] += price * (1 - discount)
            acc["count"] += 1
    rows = []
    for (flag, status), acc in sorted(groups.items()):
        rows.append(
            (
                flag,
                status,
                acc["qty"],
                acc["base"],
                acc["disc"],
                acc["qty"] / acc["count"],
                int(acc["count"]),
            )
        )
    return ResultTable.build(
        [
            ("l_returnflag", "text"),
            ("l_linestatus", "text"),
            ("sum_qty", "float"),
            ("sum_base_price", "float"),
            ("sum_disc_price", "float"),
            ("avg_qty", "float"),
            ("count_order", "integer"),
        ],
        rows,
    )


_TRUE_LITERALS = {"1", "true", "t", "yes"}
_FALSE_LITERALS = {"0", "false", "f", "no"}


def _converter(type_tag: str):
    if type_tag == "integer":
        return lambda cell: int(cell) if cell != "" else None
    if type_tag == "float":
        return lambda cell: float(cell) if cell != "" else None
    if type_tag == "bool":
        return _parse_bool
    return lambda cell: cell if cell != "" else None


def _parse_bool(cell: str) -> int | None:
    if cell == "":
        return None
    lowered = cell.strip().lower()
    if lowered in _TRUE_LITERALS:
        return 1
    if lowered in _FALSE_LITERALS:
        return 0
    raise ValueError(f"not a boolean literal: {cell!r}")


def load_csv_per_cell(
    conn: sqlite3.Connection, table: str, columns: list[tuple[str, str]], csv_path: Path
) -> None:
    """Load a headed CSV into a new table of `conn`, one converter call per cell.

    A copy of the registration the package ran before it generated one
    converter per table; the values and storage classes it stores are the
    reference for `engine.register_snapshot`.  `columns` are (name, type
    tag) pairs, and the SQL types are the engine's.
    """
    sql_types = {"integer": "INTEGER", "float": "REAL", "text": "TEXT",
                 "bool": "INTEGER", "date": "TEXT"}
    columns_sql = ", ".join(f'"{name}" {sql_types[tag]}' for name, tag in columns)
    conn.execute(f'CREATE TABLE "{table}" ({columns_sql})')
    converters = [_converter(tag) for _, tag in columns]
    placeholders = ", ".join("?" for _ in columns)
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [
            tuple(conv(cell) for conv, cell in zip(converters, row)) for row in reader
        ]
    conn.executemany(f'INSERT INTO "{table}" VALUES ({placeholders})', rows)


def csv_row_count(path: Path) -> int:
    with open(path) as handle:
        return sum(1 for _ in handle) - 1


def _tolerant_sort_key(row: tuple) -> tuple:
    key = []
    for v in row:
        if v is None:
            key.append((0, ""))
        elif isinstance(v, (int, float)):
            key.append((1, float(v)))
        else:
            key.append((2, str(v).rstrip()))
    return tuple(key)


def oracle_cells_equal(a, b) -> bool:
    """The README's cell rule, written out: NULL equals only NULL; numbers
    (compared as floats) are equal when `a == b`, or when both are finite and
    |a - b| <= max(1e-9, 1e-6 * max(|a|, |b|)); text ignores trailing spaces;
    bytes compare by value; nothing else is equal."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        a, b = float(a), float(b)
        if a == b:
            return True
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        return abs(a - b) <= max(1e-9, 1e-6 * max(abs(a), abs(b)))
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a == b
    return False


def tolerant_rows_equal(left, right, ordered=False) -> bool:
    """Row comparison by a canonical sort (unless ordered) and a scan with
    `oracle_cells_equal`.

    A copy of the comparison the package ran before it decided exactly equal
    tables by hashing; its verdicts are the reference for the fast path.
    """
    if len(left) != len(right):
        return False
    if not ordered:
        left = sorted(left, key=_tolerant_sort_key)
        right = sorted(right, key=_tolerant_sort_key)
    for lrow, rrow in zip(left, right):
        if len(lrow) != len(rrow):
            return False
        for a, b in zip(lrow, rrow):
            if not oracle_cells_equal(a, b):
                return False
    return True


def logged_result_oracle(table: ResultTable) -> dict:
    """`final_result` as an outcome line must log it, found by writing row
    prefixes and reading them back: the whole table when its rows' JSON
    array fits the observation budget and reads back cell for cell, else the
    longest prefix that does both, with the table's `row_count`."""

    columns = table.to_json_dict()["columns"]

    def logs(kept: int) -> bool:
        rows = table.rows[:kept]
        text = json.dumps([list(row) for row in rows], default=json_cell)
        if len(text) > DEFAULT_OBSERVATION_CAP:
            return False
        try:
            back = ResultTable.from_json_dict({"columns": columns, "rows": json.loads(text)})
        except ValueError:
            return False
        return repr(back.rows) == repr(rows)  # by type too, NaN equal to NaN

    if logs(table.n_rows):
        return table.to_json_dict()
    # a prefix of a prefix that logs also logs: bisect for the longest
    low, high = 0, table.n_rows  # logs(low), not logs(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if logs(middle) else (low, middle)
    cut = ResultTable(table.columns, table.rows[:low]).to_json_dict()
    cut["row_count"] = table.n_rows
    return cut


def trace_to_jsonl_asdict(trace) -> str:
    """Episode log serialized through `dataclasses.asdict` of each iteration.

    A copy of the serializer the package used before it stopped deep-copying
    iterations; its bytes are the reference for `agent.trace_to_jsonl` (BLOB
    cells as hex text, as the package logs them, and the result as
    `logged_result_oracle` logs it).  An iteration's token counts, no longer
    fields, are written as the sums of its exchanges' usage.
    """
    lines = [
        json.dumps(
            {"type": "meta", "question": trace.question, "model_id": trace.model_id},
            sort_keys=True,
        )
    ]
    for it in trace.iterations:
        record = asdict(it)
        for key in ("input_tokens", "output_tokens"):
            record[key] = sum(exchange["usage"][key] for exchange in record["exchanges"])
        lines.append(json.dumps({"type": "iteration", **record}, sort_keys=True))
    outcome = {
        "type": "outcome",
        "outcome": trace.outcome,
        "final_sql": trace.final_sql,
        "final_answer": trace.final_answer,
        "error": trace.error,
        "final_result": (
            logged_result_oracle(trace.final_result) if trace.final_result else None
        ),
    }
    lines.append(json.dumps(outcome, sort_keys=True, default=json_cell))
    return "\n".join(lines) + "\n"


# the stage each tool bills to; any other action, None included, is finalize
_TOOL_STAGES = {"list_tables": "list", "get_schema": "schema",
                "check_query": "check", "run_query": "run"}


def _oracle_stage(action) -> str:
    return _TOOL_STAGES.get(action, "finalize")


def stage_tokens_oracle(iterations) -> dict[str, tuple[int, int]]:
    """(input, output) tokens per stage, in the order the stages first ran,
    each a naive sum over the exchanges of that stage's iterations."""
    order = dict.fromkeys(_oracle_stage(it.action) for it in iterations)
    tokens = {}
    for stage in order:
        mine = [it for it in iterations if _oracle_stage(it.action) == stage]
        usages = [ex.usage for it in mine for ex in it.exchanges]
        tokens[stage] = (
            sum(u.input_tokens for u in usages), sum(u.output_tokens for u in usages)
        )
    return tokens


def stage_cost_oracle(iterations, pricing, engine) -> dict[str, float]:
    """Each stage's dollars by brute force: its naive token sums at the
    per-million rates, plus its engine use, summed left to right as the
    iterations ran, under the engine rule."""
    cost = {}
    for stage, (input_tokens, output_tokens) in stage_tokens_oracle(iterations).items():
        engine_seconds, engine_bytes = 0.0, 0
        for it in iterations:
            if _oracle_stage(it.action) == stage:
                engine_seconds += it.engine_seconds
                engine_bytes += it.engine_bytes
        if engine.mode == "per-second":
            engine_dollars = engine.rate * engine_seconds
        elif engine.mode == "per-byte-scanned" and engine_bytes:
            engine_dollars = engine.rate * engine_bytes
        else:
            engine_dollars = 0.0
        cost[stage] = (
            input_tokens * pricing.input_per_mtok / 1e6
            + output_tokens * pricing.output_per_mtok / 1e6
            + engine_dollars
        )
    return cost


# --- the per-turn helpers as they were before they were made faster ----------
# Kept verbatim (but for their names) as the reference each rewrite must match.

_ACTION_RE = re.compile(r"^Action:\s*(\S+)\s*$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(r"^Action Input:\s*(.*)$", re.MULTILINE | re.DOTALL)
_FINAL_RE = re.compile(r"^Final Answer:\s*(.*)$", re.MULTILINE | re.DOTALL)
_THOUGHT_RE = re.compile(
    r"Thought:\s*(.*?)(?=^(?:Action|Final Answer):|\Z)", re.MULTILINE | re.DOTALL
)


def parse_controller_reply_oracle(exchange) -> ParsedStep:
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


def render_grid_oracle(table: ResultTable) -> str:
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


def _cell_text(value) -> str:
    if value is None:
        return "NULL"
    return str(value)


def from_query_result_oracle(column_names, rows) -> ResultTable:
    """Build from a cursor-style result, inferring type tags from values."""
    materialized = tuple(tuple(r) for r in rows)
    tags = []
    for idx, name in enumerate(column_names):
        tag = "null"
        for row in materialized:
            value = row[idx]
            if value is None:
                continue
            tag = _infer_tag(value)
            break
        tags.append(tag)
    cols = tuple(Column(n, t) for n, t in zip(column_names, tags))
    return ResultTable(cols, materialized)
