"""Brute-force reference results computed straight from the raw CSV text.

These never touch the package's engine or result-set code, so a defect
there cannot cancel itself out: golden results written by `bigsqlbench run`
must equal what these loops compute.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Callable

Rows = list[tuple[Any, ...]]
REL_TOL = 1e-9


def _read(data_dir: Path, table: str) -> list[dict[str, str]]:
    with open(data_dir / f"{table}.csv", newline="") as handle:
        return list(csv.DictReader(handle))


def _lineitem_rows(data_dir: Path) -> tuple[list[str], Rows]:
    rows = [
        (int(r["l_orderkey"]), int(r["l_linenumber"]), int(r["l_quantity"]),
         float(r["l_extendedprice"]))
        for r in _read(data_dir, "lineitem")
    ]
    return ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"], rows


def _first_lines(data_dir: Path) -> tuple[list[str], Rows]:
    rows = [
        (int(r["l_orderkey"]), int(r["l_partkey"]), int(r["l_suppkey"]),
         int(r["l_quantity"]))
        for r in _read(data_dir, "lineitem")
        if r["l_linenumber"] == "1"
    ]
    return ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity"], rows


def _order_customers(data_dir: Path) -> tuple[list[str], Rows]:
    names = {r["c_custkey"]: r["c_name"] for r in _read(data_dir, "customer")}
    rows = [
        (int(r["o_orderkey"]), names[r["o_custkey"]], float(r["o_totalprice"]))
        for r in _read(data_dir, "orders")
    ]
    return ["o_orderkey", "c_name", "o_totalprice"], rows


ORACLES: dict[str, Callable[[Path], tuple[list[str], Rows]]] = {
    "lineitem_rows": _lineitem_rows,
    "first_lines": _first_lines,
    "order_customers": _order_customers,
}


def _cell_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=REL_TOL)
    return a == b


def _key(row: tuple[Any, ...]) -> tuple:
    # floats sort by rounded value so tolerance-equal rows land side by side
    return tuple(
        (1, round(v, 6)) if isinstance(v, float) else (0, str(v)) for v in row
    )


def compare_golden(golden_path: Path, columns: list[str], rows: Rows) -> str | None:
    """None when the golden result file equals the oracle as a multiset of
    rows, else the difference."""
    data = json.loads(golden_path.read_text())["result"]
    names = [c["name"] for c in data["columns"]]
    if names != columns:
        return f"columns {names} != oracle {columns}"
    golden = [tuple(r) for r in data["rows"]]
    if len(golden) != len(rows):
        return f"{len(golden)} rows != oracle {len(rows)}"
    golden, rows = sorted(golden, key=_key), sorted(rows, key=_key)
    for i, (g, o) in enumerate(zip(golden, rows)):
        if len(g) != len(o) or not all(_cell_equal(a, b) for a, b in zip(g, o)):
            return f"row {i}: {g} != oracle {o}"
    return None
