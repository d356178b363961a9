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
import json
import random
import statistics
from dataclasses import dataclass, field
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
from .resultset import ResultTable, json_cell

MIN_SCALE_FACTOR = 0.001
MAX_SCALE_FACTOR = 1.0


class ManifestError(ValueError):
    """The suite manifest is missing or malformed."""


class ScaleFactorError(ValueError):
    """Requested scale factor outside the supported desk-scale range."""


class SchemaAnnotationError(ValueError):
    """Generator schema lacks the key annotations needed for integrity."""


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
    path: str | Path, scale_factor: float | None = None, sessions: Sessions | None = None
) -> list[QueryCase]:
    """Parse a suite manifest and validate each golden query against the engine.

    Accepts either a bare JSON array of {question, SQL, db_id} objects or a
    {"cases": [...]} wrapper.  A db_id may carry an "{sf}" placeholder that
    resolves against scale_factor, letting one manifest cover a scale sweep.
    The goldens compile on `sessions`, which keeps each database registered
    for the caller; without it, on sessions of the load's own.  Per-case
    failures (missing database, data that fails to register, SQL that does
    not compile or that the read-only session denies) are recorded on the
    case, never raised.
    """
    if sessions is None:
        with Sessions() as own:
            return load_suite(path, scale_factor, own)
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
        raw_cases = data
        databases_dir = suite_dir / "databases"
    elif isinstance(data, dict) and isinstance(data.get("cases"), list):
        raw_cases = data["cases"]
        databases_dir = suite_dir / data.get("databases_dir", "databases")
    else:
        raise ManifestError(
            "manifest must be a JSON array of cases or an object with 'cases'"
        )

    cases: list[QueryCase] = []
    for i, raw in enumerate(raw_cases):
        case = _parse_case(raw, i, databases_dir, scale_factor)
        if case.error is None:
            _validate_case(case, sessions)
        cases.append(case)
    return cases


def _parse_case(
    raw: dict, index: int, databases_dir: Path, scale_factor: float | None
) -> QueryCase:
    case_id = str(raw.get("case_id") or f"q{index + 1:04d}")
    question = str(raw.get("question", "")).strip()
    sql = str(raw.get("SQL") or raw.get("sql") or "").strip()
    db_id = str(raw.get("db_id", "")).strip()
    if "{sf}" in db_id and scale_factor is not None:
        db_id = db_id.replace("{sf}", format_sf(scale_factor))
    case = QueryCase(
        case_id=case_id,
        nl_question=question,
        golden_sql=sql,
        database=db_id,
        ordered=bool(raw.get("ordered", False)),
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
    """One generated table: schema, base cardinality, and key annotations."""

    name: str
    columns: tuple[ColumnSchema, ...]
    base_rows: int
    fixed: bool = False
    foreign_keys: dict[str, str] = field(default_factory=dict)
    builder: RowBuilder | None = None

    def row_count(self, scale_factor: float) -> int:
        if self.fixed:
            return self.base_rows
        return max(1, round(self.base_rows * scale_factor))


@dataclass(frozen=True)
class DatasetSchema:
    name: str
    tables: tuple[TableDef, ...]

    def table(self, name: str) -> TableDef:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


@dataclass(frozen=True)
class ScaledDataset:
    """Provenance of one generated dataset; identical inputs give identical files."""

    schema_name: str
    scale_factor: float
    seed: int
    row_counts: dict[str, int]
    out_dir: Path


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


def _rng_date(rng: random.Random) -> str:
    return (_EPOCH + datetime.timedelta(days=rng.randrange(_DATE_SPAN_DAYS))).isoformat()


def _rng_comment(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(2, 5)))


def _build_region(rng, count, counts):
    for i in range(count):
        yield [str(i), _REGION_NAMES[i % len(_REGION_NAMES)], _rng_comment(rng)]


def _build_nation(rng, count, counts):
    for i in range(count):
        yield [
            str(i),
            _NATION_NAMES[i % len(_NATION_NAMES)],
            str(i % counts["region"]),
            _rng_comment(rng),
        ]


def _build_supplier(rng, count, counts):
    for i in range(1, count + 1):
        yield [
            str(i),
            f"Supplier#{i:09d}",
            _rng_comment(rng),
            str(rng.randrange(counts["nation"])),
            f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}",
            f"{rng.uniform(-999.99, 9999.99):.2f}",
            _rng_comment(rng),
        ]


def _build_customer(rng, count, counts):
    for i in range(1, count + 1):
        yield [
            str(i),
            f"Customer#{i:09d}",
            _rng_comment(rng),
            str(rng.randrange(counts["nation"])),
            f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}",
            f"{rng.uniform(-999.99, 9999.99):.2f}",
            rng.choice(_SEGMENTS),
            _rng_comment(rng),
        ]


def _build_part(rng, count, counts):
    for i in range(1, count + 1):
        yield [
            str(i),
            " ".join(rng.choice(_WORDS) for _ in range(3)),
            f"Manufacturer#{rng.randrange(1, 6)}",
            f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
            rng.choice(_PART_TYPES),
            str(rng.randrange(1, 51)),
            rng.choice(_CONTAINERS),
            f"{rng.uniform(900.0, 2000.0):.2f}",
            _rng_comment(rng),
        ]


def _build_partsupp(rng, count, counts):
    n_part = counts["part"]
    n_supp = counts["supplier"]
    for idx in range(count):
        partkey = idx % n_part + 1
        suppkey = (partkey + (idx // n_part) * 13) % n_supp + 1
        yield [
            str(partkey),
            str(suppkey),
            str(rng.randrange(1, 10000)),
            f"{rng.uniform(1.0, 1000.0):.2f}",
            _rng_comment(rng),
        ]


def _build_orders(rng, count, counts):
    for i in range(1, count + 1):
        yield [
            str(i),
            str(rng.randrange(counts["customer"]) + 1),
            rng.choice("OFP"),
            f"{rng.uniform(800.0, 500000.0):.2f}",
            _rng_date(rng),
            rng.choice(_PRIORITIES),
            f"Clerk#{rng.randrange(1, 1000):09d}",
            "0",
            _rng_comment(rng),
        ]


def _build_lineitem(rng, count, counts):
    n_orders = counts["orders"]
    for idx in range(count):
        orderkey = idx % n_orders + 1
        linenumber = idx // n_orders + 1
        quantity = rng.randrange(1, 51)
        price = rng.uniform(900.0, 2000.0)
        ship = _EPOCH + datetime.timedelta(days=rng.randrange(_DATE_SPAN_DAYS - 60))
        commit = ship + datetime.timedelta(days=rng.randrange(1, 31))
        receipt = ship + datetime.timedelta(days=rng.randrange(1, 31))
        yield [
            str(orderkey),
            str(rng.randrange(counts["part"]) + 1),
            str(rng.randrange(counts["supplier"]) + 1),
            str(linenumber),
            str(quantity),
            f"{quantity * price:.2f}",
            f"{rng.randrange(0, 11) / 100:.2f}",
            f"{rng.randrange(0, 9) / 100:.2f}",
            rng.choice("RAN"),
            rng.choice("OF"),
            ship.isoformat(),
            commit.isoformat(),
            receipt.isoformat(),
            rng.choice(_SHIP_INSTRUCT),
            rng.choice(_SHIP_MODES),
            _rng_comment(rng),
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
                foreign_keys={"n_regionkey": "region.r_regionkey"},
                builder=_build_nation,
            ),
            TableDef(
                "supplier",
                _cols(("s_suppkey", "integer"), ("s_name", "text"),
                      ("s_address", "text"), ("s_nationkey", "integer"),
                      ("s_phone", "text"), ("s_acctbal", "float"),
                      ("s_comment", "text")),
                base_rows=10_000,
                foreign_keys={"s_nationkey": "nation.n_nationkey"},
                builder=_build_supplier,
            ),
            TableDef(
                "customer",
                _cols(("c_custkey", "integer"), ("c_name", "text"),
                      ("c_address", "text"), ("c_nationkey", "integer"),
                      ("c_phone", "text"), ("c_acctbal", "float"),
                      ("c_mktsegment", "text"), ("c_comment", "text")),
                base_rows=150_000,
                foreign_keys={"c_nationkey": "nation.n_nationkey"},
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
                foreign_keys={
                    "ps_partkey": "part.p_partkey",
                    "ps_suppkey": "supplier.s_suppkey",
                },
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
                foreign_keys={"o_custkey": "customer.c_custkey"},
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
                foreign_keys={
                    "l_orderkey": "orders.o_orderkey",
                    "l_partkey": "part.p_partkey",
                    "l_suppkey": "supplier.s_suppkey",
                },
                builder=_build_lineitem,
            ),
        ),
    )


def generate_scaled_data(
    schema: DatasetSchema,
    scale_factor: float,
    seed: int,
    out_dir: str | Path,
) -> ScaledDataset:
    """Write CSV + schema sidecar files for every table at the given scale.

    Scalable table cardinalities are round(base * scale_factor); fixed tables
    keep their base count at every scale.  Generation is deterministic in
    (schema, scale_factor, seed).
    """
    if not MIN_SCALE_FACTOR <= scale_factor <= MAX_SCALE_FACTOR:
        raise ScaleFactorError(
            f"scale factor {scale_factor} outside "
            f"[{MIN_SCALE_FACTOR}, {MAX_SCALE_FACTOR}]"
        )
    if not any(t.foreign_keys for t in schema.tables):
        raise SchemaAnnotationError(
            f"schema {schema.name!r} declares no key relationships"
        )

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    counts = {t.name: t.row_count(scale_factor) for t in schema.tables}
    for table in schema.tables:
        if table.builder is None:
            raise SchemaAnnotationError(f"table {table.name!r} has no row builder")
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
    return ScaledDataset(
        schema_name=schema.name,
        scale_factor=scale_factor,
        seed=seed,
        row_counts=counts,
        out_dir=out_path,
    )
