"""Independent reference computations used by unit and acceptance tests.

These deliberately avoid the package's engine/metrics code paths: the
group-by oracle works straight off the raw CSV text, so an engine bug
cannot cancel itself out.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from bigsqlbench.resultset import DEFAULT_TOLERANCE, ResultTable, values_equal

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


def tolerant_rows_equal(
    left, right, ordered=False, tolerance=DEFAULT_TOLERANCE
) -> bool:
    """Row comparison by a canonical sort (unless ordered) and a cell-by-cell scan.

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
            if not values_equal(a, b, tolerance):
                return False
    return True


def trace_to_jsonl_asdict(trace, include_timing: bool = True) -> str:
    """Episode log serialized through `dataclasses.asdict` of each iteration.

    A copy of the serializer the package used before it stopped deep-copying
    iterations; its bytes are the reference for `agent.trace_to_jsonl`.
    """
    lines = [
        json.dumps(
            {"type": "meta", "question": trace.question, "model_id": trace.model_id},
            sort_keys=True,
        )
    ]
    for it in trace.iterations:
        record = asdict(it)
        if not include_timing:
            for key in ("started_at", "ended_at", "engine_seconds"):
                record.pop(key, None)
        lines.append(json.dumps({"type": "iteration", **record}, sort_keys=True))
    outcome = {
        "type": "outcome",
        "outcome": trace.outcome,
        "final_sql": trace.final_sql,
        "final_answer": trace.final_answer,
        "error": trace.error,
        "final_result": (
            trace.final_result.to_json_dict() if trace.final_result else None
        ),
    }
    lines.append(json.dumps(outcome, sort_keys=True))
    return "\n".join(lines) + "\n"
