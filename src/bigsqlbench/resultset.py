"""Tabular result model and the comparison primitives used by every metric.

A query result is a list of typed columns plus a multiset of rows.  Two
primitives drive all accuracy metrics: a containment indicator (is the
ground-truth table recoverable from the generated output?) and column-level
precision (what fraction of generated columns is actually wanted?).
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Iterable, Literal, Sequence

from .metrics import check_fields, from_json_object

logger = logging.getLogger(__name__)

TypeTag = Literal["integer", "float", "text", "bool", "date", "blob", "null"]
# the types json.loads gives a cell that is neither a list nor an object
_JSON_SCALARS = frozenset({type(None), bool, int, float, str})

_IDENTIFIER_RE = re.compile(r"^[a-z_][a-z0-9_]*$")
_WHITESPACE_RE = re.compile(r"\s+")


class InvalidColumnNameError(ValueError):
    """Raised when a column name is empty or whitespace-only."""


# Numbers are equal when `math.isclose` at these tolerances says so: within a
# relative 1e-6, with an absolute floor of 1e-9; an infinity only equals itself.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def normalize_column_name(raw: str) -> str:
    """Canonicalize a column name: lower-case, unquote, whitespace to underscores.

    Idempotent; raises InvalidColumnNameError on empty input.
    """
    name = raw.strip()
    if len(name) >= 2 and name[0] == name[-1] and name[0] in ("'", '"', "`"):
        name = name[1:-1].strip()
    name = _WHITESPACE_RE.sub("_", name)
    name = name.lower()
    if not name:
        raise InvalidColumnNameError(f"empty column name: {raw!r}")
    return name


def is_expression_name(name: str) -> bool:
    """True for expression-shaped names like count(*) that rarely survive aliasing."""
    return not _IDENTIFIER_RE.match(name)


@dataclass(frozen=True)
class Column:
    """A named, typed column descriptor. Name is stored normalized."""

    name: str
    type_tag: TypeTag = "text"

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "name", normalize_column_name(self.name))


@dataclass(frozen=True)
class ResultTable:
    """Columns plus a multiset of rows; the unit every accuracy metric compares.

    Rows are order-insensitive unless a comparison explicitly opts into order.
    Duplicate column names are representable (generated SQL can produce them);
    comparison functions apply the keep-first rule to later duplicates.
    """

    columns: tuple[Column, ...]
    rows: tuple[tuple[Any, ...], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(
                    f"row {i} has {len(row)} cells, expected {width}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @classmethod
    def build(
        cls,
        columns: Sequence[str | tuple[str, str] | Column],
        rows: Iterable[Sequence[Any]] = (),
    ) -> "ResultTable":
        """Construct from loose column specs: names, (name, tag) pairs, or Columns."""
        cols = []
        for spec in columns:
            if isinstance(spec, Column):
                cols.append(spec)
            elif isinstance(spec, tuple):
                cols.append(Column(spec[0], spec[1]))
            else:
                cols.append(Column(spec))
        return cls(tuple(cols), tuple(tuple(r) for r in rows))

    @classmethod
    def from_query_result(
        cls, column_names: Sequence[str], rows: Iterable[Sequence[Any]]
    ) -> "ResultTable":
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
        return cls(cols, materialized)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "columns": [{"name": c.name, "type": c.type_tag} for c in self.columns],
            "rows": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Any, where: str = "") -> "ResultTable":
        """Inverse of to_json_dict for the JSON value at path `where` of its
        file, refusing what it cannot have written with ValueError naming the
        path; a blob column's hex text cells (see `json_cell`) are read back
        as bytes."""
        table = from_json_object(_JsonTable, data, where)
        prefix = f"{where}." if where else ""
        columns: list[Column] = []
        for i, c in enumerate(table.columns):
            try:
                columns.append(Column(c.name, c.type))
            except InvalidColumnNameError:
                raise ValueError(f"`{prefix}columns[{i}].name` is empty") from None
        blob = [j for j, c in enumerate(columns) if c.type_tag == "blob"]
        rows = []
        for i, row in enumerate(table.rows):
            if len(row) != len(columns) or not all(type(v) in _JSON_SCALARS for v in row):
                raise ValueError(
                    f"`{prefix}rows[{i}]` is not a list of {len(columns)} JSON scalars"
                )
            if blob:  # a copy to edit: the reader hands on the file's own lists
                row = list(row)
            for j in blob:
                if isinstance(row[j], str):
                    try:
                        row[j] = bytes.fromhex(row[j])
                    except ValueError:
                        cell = f"{prefix}rows[{i}][{j}]"
                        raise ValueError(f"`{cell}` is not hex text") from None
            rows.append(tuple(row))
        return cls(tuple(columns), tuple(rows))


@dataclass(frozen=True)
class _JsonColumn:
    name: str
    type: TypeTag


@dataclass(frozen=True)
class _JsonTable:
    """A result table as `ResultTable.to_json_dict` writes it."""

    columns: list[_JsonColumn]
    rows: list[list[Any]]


def _infer_tag(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "float"
    if isinstance(value, bytes):
        return "blob"
    return "text"


def values_equal(a: Any, b: Any) -> bool:
    """Cell equality: null==null, numbers within REL_TOL/ABS_TOL, text
    ignoring trailing spaces, bytes by value."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, str) and isinstance(b, str):
        return a.rstrip() == b.rstrip()
    if isinstance(a, bytes) and isinstance(b, bytes):
        return a == b
    return False


def json_cell(value: Any) -> str:
    """`json.dumps` default for result cells: a BLOB is written as hex text."""
    if isinstance(value, bytes):
        return value.hex()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _sort_key(row: tuple[Any, ...]) -> tuple:
    # Total order across mixed cell types so multisets can be compared by
    # canonical sort followed by a tolerant pairwise scan.
    key = []
    for v in row:
        if v is None:
            key.append((0, ""))
        elif isinstance(v, (int, float)):
            key.append((1, float(v)))
        else:
            key.append((2, str(v).rstrip()))
    return tuple(key)


_NUMBER_TYPES = frozenset({bool, int, float})
_PLAIN_TYPES = _NUMBER_TYPES | {type(None), str, bytes}


def _plain_cells(rows: Sequence[tuple[Any, ...]]) -> bool:
    """True when every cell is None, text, bytes, or a number with a non-NaN
    float value.

    For such cells `a == b` implies `values_equal(a, b)`, so rows that are
    exactly equal are equal under `values_equal`.  NaN (never equal to
    anything) and other types fail the check, as do ints too large for a
    float, on which `values_equal` raises.
    """
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _PLAIN_TYPES:
        return False
    if kinds.isdisjoint(_NUMBER_TYPES):
        return True
    numbers = chain.from_iterable(rows)
    if not kinds <= _NUMBER_TYPES:
        kind_of_each = map(type, chain.from_iterable(rows))
        numbers = compress(numbers, map(_NUMBER_TYPES.__contains__, kind_of_each))
    try:
        # NaN when any term is NaN (or +inf meets -inf, a false alarm that
        # only costs the tolerant path); raises on an int too large for a float
        return not math.isnan(sum(numbers, 0.0))
    except OverflowError:
        return False


def rows_equal(
    left: Sequence[tuple[Any, ...]],
    right: Sequence[tuple[Any, ...]],
    ordered: bool = False,
) -> bool:
    """Row collections equal under `values_equal`: as multisets, or
    positionally when ordered.

    Exactly equal rows of plain cells are decided by hashing (by list
    equality when ordered); anything else goes through a canonical sort
    (unless ordered) and a cell-by-cell scan.
    """
    if len(left) != len(right):
        return False
    if _plain_cells(left) and _plain_cells(right):
        if ordered:
            exact = list(left) == list(right)
        else:
            # Counter's own == walks every key in Python; counts built from
            # rows are all positive, so dict equality is multiset equality.
            exact = dict.__eq__(Counter(left), Counter(right))
        if exact:
            return True
    if not ordered:
        left = sorted(left, key=_sort_key)
        right = sorted(right, key=_sort_key)
    for lrow, rrow in zip(left, right):
        if len(lrow) != len(rrow) or not all(map(values_equal, lrow, rrow)):
            return False
    return True


def match_columns(
    truth: ResultTable, generated: ResultTable
) -> tuple[dict[int, int], list[int]]:
    """Pair truth columns with generated columns.

    Matching is by normalized name first.  Leftover columns are then paired
    positionally, but only where at least one side is an expression-shaped
    name (e.g. count(*)); two distinct plain identifiers never match.
    Duplicate generated names keep their first occurrence.

    Returns (truth index -> generated index, unmatched truth indices).
    """
    gen_first_index: dict[str, int] = {}
    for j, col in enumerate(generated.columns):
        gen_first_index.setdefault(col.name, j)

    mapping: dict[int, int] = {}
    used_gen: set[int] = set()
    unmatched_truth: list[int] = []
    for i, col in enumerate(truth.columns):
        j = gen_first_index.get(col.name)
        if j is not None and j not in used_gen:
            mapping[i] = j
            used_gen.add(j)
        else:
            unmatched_truth.append(i)

    remaining_gen = [j for j in range(len(generated.columns)) if j not in used_gen]
    still_unmatched: list[int] = []
    for i, j in zip(unmatched_truth, remaining_gen):
        t_name = truth.columns[i].name
        g_name = generated.columns[j].name
        if is_expression_name(t_name) or is_expression_name(g_name):
            mapping[i] = j
        else:
            still_unmatched.append(i)
    still_unmatched.extend(unmatched_truth[len(remaining_gen):])
    return mapping, sorted(still_unmatched)


def column_precision(truth: ResultTable, generated: ResultTable) -> float:
    """Fraction of generated columns that belong to the ground-truth column set.

    The denominator counts every generated column occurrence, so repeated
    names are penalized as superfluous; the numerator counts matched truth
    columns (by name, with the positional fallback for expression names).
    A generated table with no columns has precision 0; one that repeats a
    name is logged.
    """
    if not generated.columns:
        return 0.0
    dupes = len(generated.columns) - len(set(generated.column_names))
    if dupes:
        logger.warning(
            "generated output repeats %d column name(s); later duplicates "
            "are treated as superfluous",
            dupes,
        )
    mapping, _ = match_columns(truth, generated)
    return len(mapping) / len(generated.columns)


def _project(
    rows: Sequence[tuple[Any, ...]], order: list[int], width: int
) -> Sequence[tuple[Any, ...]]:
    """Rows reduced to the columns at `order`, always as tuples."""
    if order == list(range(width)):
        return rows
    if not order:
        return [()] * len(rows)
    if len(order) == 1:
        # itemgetter of one index returns the bare cell
        return list(zip(map(itemgetter(order[0]), rows)))
    return list(map(itemgetter(*order), rows))


def containment_indicator(
    truth: ResultTable, generated: ResultTable, ordered: bool = False
) -> int:
    """1 iff the truth table is recoverable from the generated output.

    Every truth column must be matched in the generated table, and the
    generated rows projected onto those columns must equal the truth rows as
    a multiset (or positionally when ordered=True).  Superfluous generated
    columns are tolerated.  Raises only where a cell comparison does, such
    as an int too large for a float.
    """
    mapping, unmatched = match_columns(truth, generated)
    if unmatched:
        return 0
    order = [mapping[i] for i in range(len(truth.columns))]
    projected = _project(generated.rows, order, len(generated.columns))
    return 1 if rows_equal(truth.rows, projected, ordered) else 0


def tables_equal_exact(x: ResultTable, y: ResultTable, ordered: bool = False) -> bool:
    """Strict equality: the same normalized column names, none repeated, and
    equal rows.  With nothing superfluous, containment is equality."""
    names = set(x.column_names)
    if names != set(y.column_names):
        return False
    if not len(names) == len(x.columns) == len(y.columns):
        return False
    return containment_indicator(x, y, ordered) == 1
