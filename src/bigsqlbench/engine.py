"""Query engine: catalog introspection, timed execution, result capture.

The engine embeds sqlite3 in-process and registers suite tables from CSV
files with sidecar schemas.  Each data directory is registered once per
process into a sqlite snapshot file in a temporary directory; every session
over it opens that file read-only, under an authorizer that allows reading
and nothing else, so a session keeps no state from one statement to the next.
"""

from __future__ import annotations

import atexit
import csv
import functools
import itertools
import os
import sqlite3
import tempfile
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .resultset import ResultTable

DEFAULT_ROW_CAP = 1_000_000

_SQLITE_TYPES = {
    "integer": "INTEGER",
    "float": "REAL",
    "text": "TEXT",
    "bool": "INTEGER",
    "date": "TEXT",
}

_TRUE_LITERALS = {"1", "true", "t", "yes"}
_FALSE_LITERALS = {"0", "false", "f", "no"}

# The only actions a session over suite data may take; sqlite asks when it
# prepares each statement (https://www.sqlite.org/c3ref/set_authorizer.html).
_READ_ACTIONS = frozenset({
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
})
# Pragmas that only describe the catalog, whatever their argument.
_INTROSPECTION_PRAGMAS = frozenset({
    "table_info", "table_xinfo", "index_list", "index_info", "index_xinfo",
    "foreign_key_list",
})


class EngineError(RuntimeError):
    """SQL execution failed; the message carries the engine diagnostic."""


class TableNotFoundError(EngineError):
    """A catalog operation referenced a table that does not exist."""


class RegistrationError(EngineError):
    """A data file could not be loaded into the session catalog."""


class ResultOverflowError(EngineError):
    """A query produced more rows than the materialization cap allows."""


class SessionClosedError(EngineError):
    """Operation attempted on a closed session."""


@dataclass(frozen=True)
class EngineConfig:
    """Where the engine finds its data and how much it may materialize."""

    data_dir: str | Path | None = None
    row_cap: int = DEFAULT_ROW_CAP


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    type_tag: str


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSchema, ...] = field(default_factory=tuple)


class EmbeddedEngine:
    """In-process sqlite-backed session over a CSV + sidecar-schema data dir.

    Sessions over a data dir can only read: an authorizer denies writes,
    ATTACH/DETACH, TEMP objects, VACUUM, transactions, savepoints and every
    pragma that sets a value, so one session can serve any number of
    queries without one changing what the next sees.  Without a data dir
    the session is a writable, empty in-memory database.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self._conn: sqlite3.Connection | None = None
        if config.data_dir is None:
            self._conn = sqlite3.connect(":memory:", check_same_thread=False)
        else:
            snapshot = self._snapshot(Path(config.data_dir))
            self._conn = sqlite3.connect(
                snapshot.as_uri() + "?mode=ro&immutable=1",
                uri=True,
                check_same_thread=False,
            )
            # Load the schema now, so the first timed query does not pay it.
            self._conn.execute("SELECT count(*) FROM sqlite_master").fetchall()
            self._conn.set_authorizer(_read_only)

    def __enter__(self) -> "EmbeddedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise SessionClosedError("engine session is closed")
        return self._conn

    def _snapshot(self, data_dir: Path) -> Path:
        """The directory's snapshot file, registering it on the first open.

        Registration runs in a scratch in-memory session that is then backed
        up to the file.  A failed registration is not cached, so every open
        raises again.
        """
        key = _snapshot_key(data_dir)
        with _snapshot_lock:
            snapshot = _snapshots.get(key)
            if snapshot is None:
                snapshot = _snapshot_dir() / f"{next(_snapshot_ids)}.sqlite"
                self._conn = sqlite3.connect(":memory:")
                try:
                    self._register_data_dir(data_dir)
                    with closing(sqlite3.connect(snapshot)) as target:
                        self._conn.backup(target)
                finally:
                    self.close()
                _snapshots[key] = snapshot
        return snapshot

    def _register_data_dir(self, data_dir: Path) -> None:
        for schema_path in sorted(data_dir.glob("*.schema")):
            table = schema_path.stem
            csv_path = data_dir / f"{table}.csv"
            if not csv_path.exists():
                raise RegistrationError(f"missing data file: {csv_path}")
            schema = read_schema_file(schema_path)
            try:
                self._create_and_load(schema, csv_path)
            except (sqlite3.Error, ValueError) as exc:
                raise RegistrationError(
                    f"failed to register {csv_path}: {exc}"
                ) from exc

    def _create_and_load(self, schema: TableSchema, csv_path: Path) -> None:
        columns_sql = ", ".join(
            f'"{c.name}" {_SQLITE_TYPES[c.type_tag]}' for c in schema.columns
        )
        self.conn.execute(f'CREATE TABLE "{schema.name}" ({columns_sql})')
        converters = [_converter(c.type_tag) for c in schema.columns]
        placeholders = ", ".join("?" for _ in schema.columns)
        insert_sql = f'INSERT INTO "{schema.name}" VALUES ({placeholders})'
        with open(csv_path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return
            expected = [c.name for c in schema.columns]
            if [h.strip().lower() for h in header] != expected:
                raise RegistrationError(
                    f"{csv_path}: header {header} does not match schema {expected}"
                )
            batch = []
            for row in reader:
                if len(row) != len(converters):
                    raise RegistrationError(
                        f"{csv_path}: row width {len(row)} != {len(converters)}"
                    )
                batch.append(tuple(conv(cell) for conv, cell in zip(converters, row)))
                if len(batch) >= 10_000:
                    self.conn.executemany(insert_sql, batch)
                    batch.clear()
            if batch:
                self.conn.executemany(insert_sql, batch)
        self.conn.commit()

    def list_tables(self) -> list[str]:
        cursor = self.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [row[0] for row in cursor.fetchall()]

    def get_create_table(self, table: str) -> str:
        cursor = self.conn.execute(
            "SELECT sql FROM sqlite_master WHERE type = 'table' AND name = ?",
            (table,),
        )
        row = cursor.fetchone()
        if row is None or row[0] is None:
            raise TableNotFoundError(f"table not found: {table}")
        return row[0]

    def execute_timed(self, sql: str) -> tuple[ResultTable, float]:
        """Run one statement, returning the full result and wall-clock seconds.

        Results above the row cap abort with an overflow error; metric
        comparison needs complete materialization, so truncation would be
        silently wrong.
        """
        conn = self.conn
        started = time.perf_counter()
        try:
            cursor = conn.execute(sql)
            rows: list[tuple[Any, ...]] = []
            while True:
                chunk = cursor.fetchmany(10_000)
                if not chunk:
                    break
                rows.extend(chunk)
                if len(rows) > self.config.row_cap:
                    cursor.close()  # reset the statement now, not when collected
                    raise ResultOverflowError(
                        f"result exceeded the {self.config.row_cap}-row cap"
                    )
        except sqlite3.Error as exc:
            raise EngineError(f"sql execution failed: {exc}") from exc
        elapsed = time.perf_counter() - started
        if cursor.description is None:
            return ResultTable.build([]), elapsed
        names = [d[0] for d in cursor.description]
        return ResultTable.from_query_result(names, rows), elapsed

    def explain(self, sql: str) -> None:
        """Compile without executing; raises EngineError on invalid SQL."""
        try:
            self.conn.execute(f"EXPLAIN {sql}").fetchall()
        except sqlite3.Error as exc:
            raise EngineError(f"sql does not compile: {exc}") from exc


def _read_only(action: int, arg1: str | None, *_: Any) -> int:
    """Authorizer of sessions over suite data: reading and introspection only."""
    if action in _READ_ACTIONS or (
        action == sqlite3.SQLITE_PRAGMA and arg1.lower() in _INTROSPECTION_PRAGMAS
    ):
        return sqlite3.SQLITE_OK
    return sqlite3.SQLITE_DENY


def read_schema_file(path: str | Path) -> TableSchema:
    """Parse a sidecar schema: one 'column_name type_tag' pair per line."""
    path = Path(path)
    columns = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise RegistrationError(f"{path}:{lineno}: expected 'name type'")
        name, tag = parts[0].lower(), parts[1].lower()
        if tag not in _SQLITE_TYPES:
            raise RegistrationError(f"{path}:{lineno}: unknown type {tag!r}")
        columns.append(ColumnSchema(name, tag))
    return TableSchema(path.stem, tuple(columns))


def write_schema_file(path: str | Path, schema: TableSchema) -> None:
    lines = [f"{c.name} {c.type_tag}" for c in schema.columns]
    Path(path).write_text("\n".join(lines) + "\n")


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


# Snapshot cache: one sqlite file per data-directory state, per process.
# Module-level because sessions are opened from many call sites that share
# no owner object, and each must find the one registration.
_snapshots: dict[tuple, Path] = {}
_snapshot_lock = threading.Lock()
_snapshot_ids = itertools.count()


@functools.cache
def _snapshot_dir() -> Path:
    """Holds the snapshot files; removed when the process exits."""
    holder = tempfile.TemporaryDirectory(prefix="bigsqlbench-")
    atexit.register(holder.cleanup)
    return Path(holder.name)


def _snapshot_key(data_dir: Path) -> tuple:
    """Resolved path plus (name, size, mtime_ns) of every data file.

    Runs on every session open, so it lists the directory with os.scandir
    and builds no Path object per file.
    """
    try:
        entries = os.scandir(data_dir)
    except (FileNotFoundError, NotADirectoryError):
        raise RegistrationError(f"data directory not found: {data_dir}") from None
    files = []
    with entries:
        for entry in entries:
            if os.path.splitext(entry.name)[1] in (".schema", ".csv"):
                stat = entry.stat()
                files.append((entry.name, stat.st_size, stat.st_mtime_ns))
    files.sort()
    return (os.path.realpath(data_dir), tuple(files))
