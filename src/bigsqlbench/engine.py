"""Query engine: catalog introspection, timed execution, result capture.

The engine embeds sqlite3 in-process and registers suite tables from CSV
files with sidecar schemas.  `Sessions` is the one owner: it registers each
data directory into a sqlite snapshot file, opens every session over it
read-only, under an authorizer that allows reading and nothing else (so a
session keeps no state from one statement to the next), and removes the
snapshot when its block ends.
"""

from __future__ import annotations

import atexit
import csv
import functools
import shutil
import sqlite3
import tempfile
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .resultset import InvalidColumnNameError, ResultTable

# the most rows a query may materialize; read at each query
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
    """Where the engine finds its data."""

    data_dir: Path


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    type_tag: str


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSchema, ...] = field(default_factory=tuple)


class EmbeddedEngine:
    """In-process sqlite session over a registered data dir; `Sessions.get`
    opens it over the snapshot it owns.

    A session can only read: an authorizer denies writes, ATTACH/DETACH,
    TEMP objects, VACUUM, transactions, savepoints and every pragma that
    sets a value, so one session can serve any number of queries without
    one changing what the next sees.
    """

    def __init__(self, config: EngineConfig, snapshot: Path):
        self.config = config
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            snapshot.as_uri() + "?mode=ro&immutable=1", uri=True
        )
        # Load the schema now, so the first timed query does not pay it.
        self._conn.execute("SELECT count(*) FROM sqlite_master").fetchall()
        self._conn.set_authorizer(_read_only)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise SessionClosedError("engine session is closed")
        return self._conn

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
        """Run one statement, returning the full result and the wall-clock
        seconds it took to execute and fetch.

        Results above the row cap abort with an overflow error; metric
        comparison needs complete materialization, so truncation would be
        silently wrong.  A result column with an empty name is an
        EngineError too: it is the query's fault, not the harness's.
        """
        conn = self.conn
        started = time.perf_counter()
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchmany(DEFAULT_ROW_CAP + 1)
            if len(rows) > DEFAULT_ROW_CAP:
                cursor.close()  # reset the statement now, not when collected
                raise ResultOverflowError(f"result exceeded the {DEFAULT_ROW_CAP}-row cap")
        except sqlite3.Error as exc:
            raise EngineError(f"sql execution failed: {exc}") from exc
        elapsed = time.perf_counter() - started
        if cursor.description is None:
            return ResultTable.build([]), elapsed
        names = [d[0] for d in cursor.description]
        try:
            return ResultTable.from_query_result(names, rows), elapsed
        except InvalidColumnNameError as exc:
            raise EngineError(str(exc)) from None

    def explain(self, sql: str) -> None:
        """Compile without executing; raises EngineError on invalid or denied SQL."""
        try:
            self.conn.execute(f"EXPLAIN {sql}").fetchall()
        except sqlite3.Error as exc:
            # sqlite's fixed message when the authorizer denies a statement
            problem = "is denied" if str(exc) == "not authorized" else "does not compile"
            raise EngineError(f"sql {problem}: {exc}") from exc


class Sessions:
    """The registrations and sessions of one run, one each per data directory.

    get() registers a directory on first use and keeps its snapshot until
    the `with` block ends, so every session over it reads the same data,
    even one reopened after close() in a forked worker process, and even if
    the directory's files change meanwhile.  A directory that fails to
    register fails every later get() with the same error, without reading
    it again.  Sessions over suite data hold no state between statements
    (the authorizer denies everything but reading), so one session can serve
    any number of queries in turn without one changing what the next sees.
    """

    def __init__(self) -> None:
        self._snapshots: dict[Path, Path | RegistrationError] = {}
        self._sessions: dict[Path, EmbeddedEngine] = {}

    def __enter__(self) -> "Sessions":
        return self

    def __exit__(self, *exc_info) -> None:
        """Close every session and remove the snapshots."""
        self.close()
        for snapshot in self._snapshots.values():
            if isinstance(snapshot, Path):
                snapshot.unlink(missing_ok=True)
        self._snapshots.clear()

    def get(self, data_dir: Path) -> EmbeddedEngine:
        if data_dir not in self._sessions:
            if data_dir not in self._snapshots:
                try:
                    self._snapshots[data_dir] = register_snapshot(data_dir)
                except RegistrationError as exc:
                    self._snapshots[data_dir] = exc
            snapshot = self._snapshots[data_dir]
            if isinstance(snapshot, RegistrationError):
                raise snapshot
            self._sessions[data_dir] = EmbeddedEngine(EngineConfig(data_dir), snapshot)
        return self._sessions[data_dir]

    def close(self) -> None:
        """Close every session opened; a later get() reopens the same snapshot."""
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()


def _read_only(action: int, arg1: str | None, *_: Any) -> int:
    """Authorizer of sessions over suite data: reading and introspection only."""
    if (
        action in _READ_ACTIONS
        or (action == sqlite3.SQLITE_PRAGMA and arg1.lower() in _INTROSPECTION_PRAGMAS)
        # A table-valued pragma such as pragma_table_info('t') reports an
        # update of sqlite_master's columns when it is prepared.  No statement
        # can really change that table: sqlite refuses it ("may not be
        # modified") before asking, and the session is opened read-only.
        or (action == sqlite3.SQLITE_UPDATE and arg1 == "sqlite_master")
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


# How each type tag turns one CSV cell, bound to `{c}`, into the value
# stored: conversion happens here and never through sqlite's column
# affinity, whose text-to-REAL rounding and integer rules differ from
# float() and int().  An empty cell is NULL for every tag.
_CELL_EXPRESSIONS = {
    "integer": "int({c}) if {c} else None",
    "float": "float({c}) if {c} else None",
    "bool": "_parse_bool({c})",
    "text": "{c} or None",
    "date": "{c} or None",
}


def _row_converter(type_tags: tuple[str, ...]):
    """A function from one CSV row of len(type_tags) cells to its stored values.

    It is generated from the tags, as `dataclasses` generates methods, so a
    row costs one Python call, not one per cell (a bool cell still calls
    `_parse_bool`): the cells are bound to the names c0..cN and each value
    is its tag's expression over its name.  Only those names and the fixed
    expressions above enter the source, no text from a data file.
    """
    names = [f"c{i}" for i in range(len(type_tags))]
    values = [
        _CELL_EXPRESSIONS[tag].format(c=name) for name, tag in zip(names, type_tags)
    ]
    source = (
        "def convert(row):\n"
        f"    [{', '.join(names)}] = row\n"
        f"    return ({''.join(value + ', ' for value in values)})\n"
    )
    namespace = {"_parse_bool": _parse_bool}
    exec(source, namespace)
    return namespace["convert"]


def _parse_bool(cell: str) -> int | None:
    if cell == "":
        return None
    lowered = cell.strip().lower()
    if lowered in _TRUE_LITERALS:
        return 1
    if lowered in _FALSE_LITERALS:
        return 0
    raise ValueError(f"not a boolean literal: {cell!r}")


@functools.cache
def _snapshot_dir() -> Path:
    """Holds the snapshot files; removed when the process that made it
    exits.  No object owns it: a forked worker drops the exit handlers (as
    of Python 3.13), and an owner only they kept alive would remove it."""
    path = tempfile.mkdtemp(prefix="bigsqlbench-")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return Path(path)


def register_snapshot(data_dir: Path) -> Path:
    """Parse a data directory into a new snapshot file; returns its path.

    Registration runs in a scratch in-memory database that is then backed up
    to the file.  The caller owns the file and removes it; a registration
    that fails leaves none.
    """
    if not data_dir.is_dir():
        raise RegistrationError(f"data directory not found: {data_dir}")
    with closing(sqlite3.connect(":memory:")) as scratch:
        _register_data_dir(scratch, data_dir)
        with tempfile.NamedTemporaryFile(
            suffix=".sqlite", dir=_snapshot_dir(), delete=False
        ) as handle:
            snapshot = Path(handle.name)
        try:
            with closing(sqlite3.connect(snapshot)) as target:
                scratch.backup(target)
        except BaseException:
            snapshot.unlink()
            raise
    return snapshot


def _register_data_dir(conn: sqlite3.Connection, data_dir: Path) -> None:
    for schema_path in sorted(data_dir.glob("*.schema")):
        table = schema_path.stem
        csv_path = data_dir / f"{table}.csv"
        if not csv_path.exists():
            raise RegistrationError(f"missing data file: {csv_path}")
        schema = read_schema_file(schema_path)
        try:
            _create_and_load(conn, schema, csv_path)
        except (sqlite3.Error, ValueError, OverflowError) as exc:
            raise RegistrationError(f"failed to register {csv_path}: {exc}") from exc


def _create_and_load(
    conn: sqlite3.Connection, schema: TableSchema, csv_path: Path
) -> None:
    columns_sql = ", ".join(
        f'"{c.name}" {_SQLITE_TYPES[c.type_tag]}' for c in schema.columns
    )
    conn.execute(f'CREATE TABLE "{schema.name}" ({columns_sql})')
    width = len(schema.columns)
    convert = _row_converter(tuple(c.type_tag for c in schema.columns))
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

        def rows():
            for row in reader:
                if len(row) != width:
                    raise RegistrationError(
                        f"{csv_path}: row width {len(row)} != {width}"
                    )
                yield convert(row)

        conn.executemany(insert_sql, rows())
    conn.commit()
