"""Benchmark-suite ingestion and desk-scale synthetic data generation.

Suites are a JSON manifest of (question, golden SQL, database) triples plus
per-database data directories.  Golden results are executed against the
engine on every call, never read back from files.  The bundled data
generator emits warehouse-shaped tables whose cardinalities scale linearly
with a scale factor, which is what timing and cost trends need; it makes no
claim of matching any official benchmark's value distributions.
"""

from __future__ import annotations

import datetime
import functools
import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .engine import (
    ColumnSchema,
    EmbeddedEngine,
    EngineError,
    Sessions,
    TableSchema,
    write_schema_file,
)
from .metrics import read_json
from .resultset import ResultTable, json_cell

MIN_SCALE_FACTOR = 0.001
MAX_SCALE_FACTOR = 1.0


class ManifestError(ValueError):
    """The suite manifest is missing or malformed."""


class ScaleFactorError(ValueError):
    """Requested scale factor outside the supported desk-scale range."""


class GoldenMaterializationError(RuntimeError):
    """The golden query failed; the case cannot produce ground truth."""


def format_sf(scale_factor: float) -> str:
    return f"{scale_factor:g}"


@dataclass
class QueryCase:
    """One benchmark triple: question, golden SQL, and the database it runs on."""

    case_id: str
    nl_question: str
    golden_sql: str
    database: str
    data_dir: Path | None = None
    ordered: bool = False
    error: str | None = None

    @property
    def usable(self) -> bool:
        return self.error is None


def load_suite(
    path: str | Path, scale_factor: float | None, sessions: Sessions
) -> list[QueryCase]:
    """Parse a suite manifest and validate each golden query against the engine.

    Accepts either a bare JSON array of {question, SQL, db_id} objects or a
    {"cases": [...]} wrapper.  A db_id may carry an "{sf}" placeholder that
    resolves against scale_factor, letting one manifest cover a scale sweep.
    The goldens compile on `sessions`, which keeps each database registered
    for the caller.  Per-case failures (missing database, data that fails to
    register, SQL that does not compile or that the read-only session
    denies) are recorded on the case, never raised; a case id used by two
    cases raises ManifestError.
    """
    root = Path(path)
    manifest_path = root / "manifest.json" if root.is_dir() else root
    suite_dir = manifest_path.parent
    if not manifest_path.exists():
        raise ManifestError(f"manifest not found: {manifest_path}")
    try:
        data = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc

    if isinstance(data, list):
        data = {"cases": data}
    if not (isinstance(data, dict) and isinstance(data.get("cases"), list)):
        raise ManifestError(
            "manifest must be a JSON array of cases or an object with 'cases'"
        )
    try:
        databases_dir = read_json(
            Path, data.get("databases_dir", "databases"), "databases_dir", suite_dir
        )
        cases = [
            _parse_case(raw, i, databases_dir, scale_factor)
            for i, raw in enumerate(data["cases"])
        ]
    except ValueError as exc:  # a value of the wrong JSON type
        raise ManifestError(str(exc)) from None
    # a case id names the case's trace, script and golden files
    for case_id, count in Counter(case.case_id for case in cases).items():
        if count > 1:
            raise ManifestError(f"case id {case_id!r} is used by {count} cases")
    for case in cases:
        if case.error is None:
            _validate_case(case, sessions)
    return cases


def _parse_case(
    raw: dict, index: int, databases_dir: Path, scale_factor: float | None
) -> QueryCase:
    if not isinstance(raw, dict):
        raise ManifestError(f"case {index} is not a JSON object")
    # a text field absent, null or empty is missing
    text = {key: read_json(str | None, raw.get(key), f"cases[{index}].{key}") or ""
            for key in ("case_id", "question", "SQL", "sql", "db_id")}
    ordered = read_json(bool, raw.get("ordered", False), f"cases[{index}].ordered")
    case_id = text["case_id"] or f"q{index + 1:04d}"
    question = text["question"].strip()
    sql = (text["SQL"] or text["sql"]).strip()
    db_id = text["db_id"].strip()
    if "{sf}" in db_id and scale_factor is not None:
        db_id = db_id.replace("{sf}", format_sf(scale_factor))
    case = QueryCase(
        case_id=case_id,
        nl_question=question,
        golden_sql=sql,
        database=db_id,
        ordered=ordered,
    )
    if not question or not sql or not db_id:
        case.error = "case requires question, SQL, and db_id"
        return case
    data_dir = databases_dir / db_id
    if not data_dir.is_dir():
        case.error = f"database directory not found: {data_dir}"
        return case
    case.data_dir = data_dir
    return case


def _validate_case(case: QueryCase, sessions: Sessions) -> None:
    try:
        session = sessions.get(case.data_dir)
    except EngineError as exc:
        case.error = f"database failed to load: {exc}"
        return
    try:
        session.explain(case.golden_sql)
    except EngineError as exc:
        case.error = f"golden {exc}"  # "golden sql does not compile: ..."


def materialize_golden(
    case: QueryCase,
    engine: EmbeddedEngine,
    out_dir: str | Path | None = None,
    scale_factor: float = 1.0,
) -> tuple[ResultTable, float]:
    """Execute the golden query and time it: one warm-up, then median of 3.

    Every call executes the query; nothing is read back from disk.  With an
    out_dir the result is also written there as `<case>@sf<sf>.json`
    (t_gold plus canonical table JSON, BLOB cells as hex) for inspection.
    """
    try:
        engine.execute_timed(case.golden_sql)  # cold-cache warm-up, discarded
        timings = []
        result = None
        for _ in range(3):
            result, seconds = engine.execute_timed(case.golden_sql)
            timings.append(seconds)
    except EngineError as exc:
        raise GoldenMaterializationError(
            f"case {case.case_id}: golden query failed: {exc}"
        ) from exc

    t_gold = statistics.median(timings)
    assert result is not None
    if out_dir is not None:
        path = Path(out_dir) / f"{case.case_id}@sf{format_sf(scale_factor)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"t_gold": t_gold, "result": result.to_json_dict()}
        path.write_text(json.dumps(record, default=json_cell))
    return result, t_gold


# --- synthetic scaled data -----------------------------------------------------

RowBuilder = Callable[[random.Random, int, dict[str, int]], Iterator[list[str]]]


@dataclass(frozen=True)
class TableDef:
    """One generated table: schema, base cardinality, and its row builder."""

    name: str
    columns: tuple[ColumnSchema, ...]
    base_rows: int
    builder: RowBuilder
    fixed: bool = False

    def row_count(self, scale_factor: float) -> int:
        if self.fixed:
            return self.base_rows
        return max(1, round(self.base_rows * scale_factor))


@dataclass(frozen=True)
class DatasetSchema:
    name: str
    tables: tuple[TableDef, ...]


_EPOCH = datetime.date(1992, 1, 1)
_DATE_SPAN_DAYS = 2557  # 1992-01-01 through 1998-12-31

_REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_NATION_NAMES = (
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
)
_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
_SHIP_MODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
_SHIP_INSTRUCT = ("COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN")
_CONTAINERS = ("JUMBO BOX", "LG CASE", "MED BAG", "SM PKG", "WRAP JAR")
_PART_TYPES = ("ANODIZED BRASS", "BURNISHED COPPER", "ECONOMY TIN",
               "PLATED STEEL", "POLISHED NICKEL", "STANDARD PLATED")
_WORDS = ("quick", "silent", "amber", "crates", "along", "dockside", "pending",
          "express", "furious", "ledger", "beyond", "carefully", "final")
_HUNDREDTHS = tuple(f"{i / 100:.2f}" for i in range(11))


# Every draw below is the one `random.Random` makes for the same call
# (`randrange`, `choice` and `uniform` as `a + (b - a) * random()`), in the
# same order, so a (schema, scale factor, seed) writes the same bytes; the
# draws are spelled out because the stdlib calls cost three frames each.


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), as `random.Random.randrange(n)` makes it."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@functools.cache
def _iso_dates() -> tuple[str, ...]:
    """ISO text of _EPOCH + i days, built on first use rather than at import.

    A shipment's commit and receipt dates fall up to 30 days after its ship
    date, hence the 31 days past the span.
    """
    return tuple(
        (_EPOCH + datetime.timedelta(days=i)).isoformat()
        for i in range(_DATE_SPAN_DAYS + 31)
    )


def _rng_comment(getrandbits) -> str:
    return " ".join([
        _WORDS[_below(getrandbits, len(_WORDS))]
        for _ in range(2 + _below(getrandbits, 3))
    ])


def _rng_phone(getrandbits) -> str:
    return (
        f"{10 + _below(getrandbits, 25)}-{100 + _below(getrandbits, 900)}"
        f"-{1000 + _below(getrandbits, 9000)}"
    )


def _build_region(rng, count, counts):
    for i in range(count):
        yield [
            str(i), _REGION_NAMES[i % len(_REGION_NAMES)], _rng_comment(rng.getrandbits)
        ]


def _build_nation(rng, count, counts):
    for i in range(count):
        yield [
            str(i),
            _NATION_NAMES[i % len(_NATION_NAMES)],
            str(i % counts["region"]),
            _rng_comment(rng.getrandbits),
        ]


def _build_supplier(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    n_nation = counts["nation"]
    for i in range(1, count + 1):
        yield [
            str(i),
            f"Supplier#{i:09d}",
            _rng_comment(getrandbits),
            str(_below(getrandbits, n_nation)),
            _rng_phone(getrandbits),
            f"{-999.99 + (9999.99 - -999.99) * random():.2f}",
            _rng_comment(getrandbits),
        ]


def _build_customer(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    n_nation = counts["nation"]
    for i in range(1, count + 1):
        yield [
            str(i),
            f"Customer#{i:09d}",
            _rng_comment(getrandbits),
            str(_below(getrandbits, n_nation)),
            _rng_phone(getrandbits),
            f"{-999.99 + (9999.99 - -999.99) * random():.2f}",
            _SEGMENTS[_below(getrandbits, len(_SEGMENTS))],
            _rng_comment(getrandbits),
        ]


def _build_part(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    for i in range(1, count + 1):
        yield [
            str(i),
            " ".join([_WORDS[_below(getrandbits, len(_WORDS))] for _ in range(3)]),
            f"Manufacturer#{1 + _below(getrandbits, 5)}",
            f"Brand#{1 + _below(getrandbits, 5)}{1 + _below(getrandbits, 5)}",
            _PART_TYPES[_below(getrandbits, len(_PART_TYPES))],
            str(1 + _below(getrandbits, 50)),
            _CONTAINERS[_below(getrandbits, len(_CONTAINERS))],
            f"{900.0 + (2000.0 - 900.0) * random():.2f}",
            _rng_comment(getrandbits),
        ]


def _build_partsupp(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    n_part = counts["part"]
    n_supp = counts["supplier"]
    for idx in range(count):
        partkey = idx % n_part + 1
        suppkey = (partkey + (idx // n_part) * 13) % n_supp + 1
        yield [
            str(partkey),
            str(suppkey),
            str(1 + _below(getrandbits, 9999)),
            f"{1.0 + (1000.0 - 1.0) * random():.2f}",
            _rng_comment(getrandbits),
        ]


def _build_orders(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    dates = _iso_dates()
    n_customer = counts["customer"]
    for i in range(1, count + 1):
        yield [
            str(i),
            str(_below(getrandbits, n_customer) + 1),
            "OFP"[_below(getrandbits, 3)],
            f"{800.0 + (500000.0 - 800.0) * random():.2f}",
            dates[_below(getrandbits, _DATE_SPAN_DAYS)],
            _PRIORITIES[_below(getrandbits, len(_PRIORITIES))],
            f"Clerk#{1 + _below(getrandbits, 999):09d}",
            "0",
            _rng_comment(getrandbits),
        ]


def _build_lineitem(rng, count, counts):
    getrandbits, random = rng.getrandbits, rng.random
    dates = _iso_dates()
    n_orders = counts["orders"]
    n_part = counts["part"]
    n_supp = counts["supplier"]
    for idx in range(count):
        orderkey = idx % n_orders + 1
        linenumber = idx // n_orders + 1
        quantity = 1 + _below(getrandbits, 50)
        price = 900.0 + (2000.0 - 900.0) * random()
        ship = _below(getrandbits, _DATE_SPAN_DAYS - 60)
        commit = ship + 1 + _below(getrandbits, 30)
        receipt = ship + 1 + _below(getrandbits, 30)
        yield [
            str(orderkey),
            str(_below(getrandbits, n_part) + 1),
            str(_below(getrandbits, n_supp) + 1),
            str(linenumber),
            str(quantity),
            f"{quantity * price:.2f}",
            _HUNDREDTHS[_below(getrandbits, 11)],
            _HUNDREDTHS[_below(getrandbits, 9)],
            "RAN"[_below(getrandbits, 3)],
            "OF"[_below(getrandbits, 2)],
            dates[ship],
            dates[commit],
            dates[receipt],
            _SHIP_INSTRUCT[_below(getrandbits, len(_SHIP_INSTRUCT))],
            _SHIP_MODES[_below(getrandbits, len(_SHIP_MODES))],
            _rng_comment(getrandbits),
        ]


def _cols(*pairs: tuple[str, str]) -> tuple[ColumnSchema, ...]:
    return tuple(ColumnSchema(name, tag) for name, tag in pairs)


def warehouse_schema() -> DatasetSchema:
    """The built-in warehouse-shaped schema: 8 tables, 2 fixed, 6 scalable."""
    return DatasetSchema(
        name="warehouse",
        tables=(
            TableDef(
                "region",
                _cols(("r_regionkey", "integer"), ("r_name", "text"),
                      ("r_comment", "text")),
                base_rows=5,
                fixed=True,
                builder=_build_region,
            ),
            TableDef(
                "nation",
                _cols(("n_nationkey", "integer"), ("n_name", "text"),
                      ("n_regionkey", "integer"), ("n_comment", "text")),
                base_rows=25,
                fixed=True,
                builder=_build_nation,
            ),
            TableDef(
                "supplier",
                _cols(("s_suppkey", "integer"), ("s_name", "text"),
                      ("s_address", "text"), ("s_nationkey", "integer"),
                      ("s_phone", "text"), ("s_acctbal", "float"),
                      ("s_comment", "text")),
                base_rows=10_000,
                builder=_build_supplier,
            ),
            TableDef(
                "customer",
                _cols(("c_custkey", "integer"), ("c_name", "text"),
                      ("c_address", "text"), ("c_nationkey", "integer"),
                      ("c_phone", "text"), ("c_acctbal", "float"),
                      ("c_mktsegment", "text"), ("c_comment", "text")),
                base_rows=150_000,
                builder=_build_customer,
            ),
            TableDef(
                "part",
                _cols(("p_partkey", "integer"), ("p_name", "text"),
                      ("p_mfgr", "text"), ("p_brand", "text"),
                      ("p_type", "text"), ("p_size", "integer"),
                      ("p_container", "text"), ("p_retailprice", "float"),
                      ("p_comment", "text")),
                base_rows=200_000,
                builder=_build_part,
            ),
            TableDef(
                "partsupp",
                _cols(("ps_partkey", "integer"), ("ps_suppkey", "integer"),
                      ("ps_availqty", "integer"), ("ps_supplycost", "float"),
                      ("ps_comment", "text")),
                base_rows=800_000,
                builder=_build_partsupp,
            ),
            TableDef(
                "orders",
                _cols(("o_orderkey", "integer"), ("o_custkey", "integer"),
                      ("o_orderstatus", "text"), ("o_totalprice", "float"),
                      ("o_orderdate", "date"), ("o_orderpriority", "text"),
                      ("o_clerk", "text"), ("o_shippriority", "integer"),
                      ("o_comment", "text")),
                base_rows=1_500_000,
                builder=_build_orders,
            ),
            TableDef(
                "lineitem",
                _cols(("l_orderkey", "integer"), ("l_partkey", "integer"),
                      ("l_suppkey", "integer"), ("l_linenumber", "integer"),
                      ("l_quantity", "integer"), ("l_extendedprice", "float"),
                      ("l_discount", "float"), ("l_tax", "float"),
                      ("l_returnflag", "text"), ("l_linestatus", "text"),
                      ("l_shipdate", "date"), ("l_commitdate", "date"),
                      ("l_receiptdate", "date"), ("l_shipinstruct", "text"),
                      ("l_shipmode", "text"), ("l_comment", "text")),
                base_rows=6_000_000,
                builder=_build_lineitem,
            ),
        ),
    )


def generate_scaled_data(
    schema: DatasetSchema,
    scale_factor: float,
    seed: int,
    out_dir: str | Path,
) -> dict[str, int]:
    """Write CSV + schema sidecar files for every table at the given scale,
    and return each table's row count.

    Scalable table cardinalities are round(base * scale_factor); fixed tables
    keep their base count at every scale.  Generation is deterministic in
    (schema, scale_factor, seed).
    """
    if not MIN_SCALE_FACTOR <= scale_factor <= MAX_SCALE_FACTOR:
        raise ScaleFactorError(
            f"scale factor {scale_factor} outside "
            f"[{MIN_SCALE_FACTOR}, {MAX_SCALE_FACTOR}]"
        )
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    counts = {t.name: t.row_count(scale_factor) for t in schema.tables}
    for table in schema.tables:
        rng = random.Random(f"{seed}:{table.name}")
        csv_path = out_path / f"{table.name}.csv"
        with open(csv_path, "w", newline="") as handle:
            handle.write(",".join(c.name for c in table.columns) + "\n")
            for row in table.builder(rng, counts[table.name], counts):
                handle.write(",".join(row) + "\n")
        write_schema_file(
            out_path / f"{table.name}.schema",
            TableSchema(table.name, table.columns),
        )
    return counts
