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
import io
import os
import shutil
import sqlite3
import tempfile
import time
import traceback
from contextlib import closing, contextmanager
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
                # without the frames of earlier raises, which would pile up
                raise snapshot.with_traceback(None)
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
    """Holds the snapshot and piece files; removed when the process that
    made it exits.  No object owns it: a forked worker drops the exit
    handlers (as of Python 3.13), and an owner only they kept alive would
    remove it."""
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


# CSV bytes loaded as one piece: a longer CSV is cut at line ends into
# pieces of about this size, and the pieces load on up to one process per CPU
_PIECE_BYTES = 1 << 20
# the fewest host parameters a statement may bind on any sqlite build
# (SQLITE_MAX_VARIABLE_NUMBER before 3.32); an INSERT binds as many rows
# as fit, which costs less per row than one execution each
_PARAMETERS_PER_INSERT = 999


class _Table:
    """One table of a data directory: its schema, CSV and row converter."""

    def __init__(self, schema: TableSchema, csv_path: Path) -> None:
        self.schema = schema
        self.csv_path = csv_path
        self.width = len(schema.columns)
        self.convert = _row_converter(tuple(c.type_tag for c in schema.columns))

    def create_sql(self, name: str) -> str:
        columns_sql = ", ".join(
            f'"{c.name}" {_SQLITE_TYPES[c.type_tag]}' for c in self.schema.columns
        )
        return f'CREATE TABLE "{name}" ({columns_sql})'

    def insert_sql(self, name: str, rows: int) -> str:
        row = f"({', '.join('?' * self.width)})"
        return f'INSERT INTO "{name}" VALUES {", ".join([row] * rows)}'


@dataclass(frozen=True)
class _Piece:
    """Bytes [start, stop) of a table's CSV: whole rows, the header only in
    the piece at 0.  `whole` marks the one piece of a CSV never cut."""

    table: _Table
    start: int
    stop: int
    whole: bool


@contextmanager
def _blamed(csv_path: Path):
    """Turns a cell, decoding, CSV parsing or sqlite failure into a
    RegistrationError naming the CSV."""
    try:
        yield
    except (sqlite3.Error, ValueError, OverflowError, csv.Error) as exc:
        raise RegistrationError(f"failed to register {csv_path}: {exc}") from exc


def _register_data_dir(conn: sqlite3.Connection, data_dir: Path) -> None:
    pieces: list[_Piece] = []
    for schema_path in sorted(data_dir.glob("*.schema")):
        csv_path = data_dir / f"{schema_path.stem}.csv"
        if not csv_path.exists():
            raise RegistrationError(f"missing data file: {csv_path}")
        table = _Table(read_schema_file(schema_path), csv_path)
        with _blamed(csv_path):
            pieces += _create_table(conn, table)
    _load_pieces(conn, pieces)


def _create_table(conn: sqlite3.Connection, table: _Table) -> list[_Piece]:
    """Create `table` in `conn` and check its CSV's header; returns the
    pieces of its CSV, none for an empty file."""
    conn.execute(table.create_sql(table.schema.name))
    with open(table.csv_path, newline="") as handle:
        header = next(csv.reader(handle), None)
    if header is None:
        return []
    expected = [c.name for c in table.schema.columns]
    if [h.strip().lower() for h in header] != expected:
        raise RegistrationError(
            f"{table.csv_path}: header {header} does not match schema {expected}"
        )
    cuts = _cut_points(table.csv_path)
    return [
        _Piece(table, start, stop, len(cuts) == 2)
        for start, stop in zip(cuts, cuts[1:])
    ]


def _cut_points(csv_path: Path) -> list[int]:
    """Byte offsets that cut a CSV into pieces of about _PIECE_BYTES: 0, then
    offsets each just after a line feed, then its size.  A CSV with a `"`
    is not cut, as a quoted field may hold a line end."""
    with open(csv_path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        cuts = [0]
        if size > _PIECE_BYTES and not any(
            b'"' in chunk for chunk in iter(lambda: raw.read(_PIECE_BYTES), b"")
        ):
            while cuts[-1] + _PIECE_BYTES < size:
                raw.seek(cuts[-1] + _PIECE_BYTES)
                raw.readline()
                if raw.tell() >= size:
                    break
                cuts.append(raw.tell())
    return cuts + [size]


def usable_cpus() -> int:
    """The CPUs this process may run on: how many processes a stage that
    forks one per CPU forks at most."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS


def _load_pieces(conn: sqlite3.Connection, pieces: list[_Piece]) -> None:
    """Insert every piece's rows into its table of `conn`, in file order.

    The pieces are divided into one contiguous share per process, up to one
    per CPU and one per _PIECE_BYTES of data.  This process loads the first
    share; each other share is loaded by a forked child into tables p0, p1,
    ... of a piece file of its own, which this process then copies in,
    share by share.  A failure raises the error of the earliest piece that
    failed; no child and no piece file outlives the call.
    """
    total = sum(piece.stop - piece.start for piece in pieces)
    shares = _shares(pieces, min(usable_cpus(), len(pieces), total // _PIECE_BYTES))
    if len(shares) > 1:
        import multiprocessing  # here, so that small data pays nothing

        ctx = multiprocessing.get_context("fork")
    children = []  # (share, piece file, the parent's end of its pipe, process)
    try:
        for share in shares[1:]:
            with tempfile.NamedTemporaryFile(
                prefix="pieces-", suffix=".sqlite", dir=_snapshot_dir(), delete=False
            ) as handle:
                path = Path(handle.name)
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_load_share, args=(share, path, writer), daemon=True
            )
            children.append((share, path, reader, process))
            process.start()
            writer.close()  # so that the pipe reads EOF once the child is gone
        for piece in shares[0]:
            _load_piece(conn, piece, piece.table.schema.name)
        conn.commit()
        for share, path, reader, process in children:
            try:
                kind, text = reader.recv()
            except EOFError:
                process.join()
                csvs = ", ".join(dict.fromkeys(str(p.table.csv_path) for p in share))
                raise RegistrationError(
                    f"failed to register {csvs}: loading process {process.pid} "
                    f"exited with code {process.exitcode} before it reported"
                ) from None
            if kind == "error":
                raise RegistrationError(text)
            if kind == "failed":
                raise RuntimeError(f"loading process {process.pid} failed:\n{text}")
            conn.execute("ATTACH DATABASE ? AS share", (str(path),))
            for i, piece in enumerate(share):
                conn.execute(
                    f'INSERT INTO main."{piece.table.schema.name}" '
                    f'SELECT * FROM share."p{i}" ORDER BY rowid'
                )
            conn.commit()
            conn.execute("DETACH DATABASE share")
    finally:
        for _, path, reader, process in children:
            if process.pid is not None:  # started
                process.terminate()  # no-op once it exited
                process.join()
            reader.close()
            path.unlink(missing_ok=True)


def _shares(pieces: list[_Piece], count: int) -> list[list[_Piece]]:
    """`pieces` in `count` contiguous shares of about equal bytes, none
    empty, or in one share for a count under 2."""
    total = sum(piece.stop - piece.start for piece in pieces)
    shares: list[list[_Piece]] = [[]]
    done = 0  # bytes placed
    for i, piece in enumerate(pieces):
        size = piece.stop - piece.start
        # a new share once the piece's middle is past the current share's
        # end, or when each piece left must start one
        if shares[-1] and len(shares) < count and (
            done + size / 2 >= total * len(shares) / count
            or len(pieces) - i == count - len(shares)
        ):
            shares.append([])
        shares[-1].append(piece)
        done += size
    return shares


def _load_share(share: list[_Piece], path: Path, report) -> None:
    """A loading child: the pieces of `share` into tables p0, p1, ... of the
    piece file at `path`.  Sends ("done", ""), ("error", the
    RegistrationError's message) or ("failed", a traceback)."""
    try:
        with closing(sqlite3.connect(path)) as conn:
            # a scratch file that only its parent reads, once the child is done
            conn.execute("PRAGMA journal_mode = OFF")
            conn.execute("PRAGMA synchronous = OFF")
            for i, piece in enumerate(share):
                conn.execute(piece.table.create_sql(f"p{i}"))
                _load_piece(conn, piece, f"p{i}")
            conn.commit()
        report.send(("done", ""))
    except RegistrationError as exc:
        report.send(("error", str(exc)))
    except Exception:
        report.send(("failed", traceback.format_exc()))


def _load_piece(conn: sqlite3.Connection, piece: _Piece, into: str) -> None:
    """Insert the rows of `piece` into table `into` of `conn`, in order."""
    table = piece.table
    width = table.width
    per_insert = max(1, _PARAMETERS_PER_INSERT // width)
    insert_sql = table.insert_sql(into, per_insert)
    convert = table.convert
    values: list[Any] = []
    with _open_piece(piece) as text, _blamed(table.csv_path):
        reader = csv.reader(text)
        if piece.start == 0:
            next(reader)  # the header, checked when the table was created
        try:
            for row in reader:
                if len(row) != width:
                    raise RegistrationError(
                        f"{table.csv_path}: row width {len(row)} != {width}"
                    )
                values += convert(row)
                if len(values) == per_insert * width:
                    batch, values = values, []
                    conn.execute(insert_sql, batch)
        finally:
            # also before an error: the rows ahead of a bad one go in first,
            # so that one of them that fails to bind is the error raised, as
            # when each row was inserted in turn
            if values:
                conn.execute(table.insert_sql(into, len(values) // width), values)


def _open_piece(piece: _Piece) -> io.TextIOWrapper:
    """The text of `piece`, decoded as `open(csv_path, newline="")` decodes
    it; a CSV never cut is read as it is, a cut piece into memory first."""
    raw = open(piece.table.csv_path, "rb")
    if piece.whole:
        return io.TextIOWrapper(raw, newline="")
    with raw:
        raw.seek(piece.start)
        data = raw.read(piece.stop - piece.start)
    return io.TextIOWrapper(io.BytesIO(data), newline="")
