from __future__ import annotations

import atexit
import csv
import json
import math
import os
import shutil
import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bigsqlbench import engine as engine_module
from bigsqlbench.agent import tool_get_schema, tool_list_tables
from bigsqlbench.engine import (
    ColumnSchema,
    EngineError,
    RegistrationError,
    ResultOverflowError,
    SessionClosedError,
    Sessions,
    TableNotFoundError,
    TableSchema,
    read_schema_file,
    write_schema_file,
)
from bigsqlbench.resultset import tables_equal_exact

from .conftest import count_registrations, snapshot_files
from .oracles import load_csv_per_cell

WAREHOUSE_TABLES = [
    "customer", "lineitem", "nation", "orders",
    "part", "partsupp", "region", "supplier",
]


@pytest.fixture
def tiny_engine(sessions, sf_tiny_dir):
    return sessions.get(sf_tiny_dir)


def test_open_session_registers_all_tables(tiny_engine):
    assert tiny_engine.list_tables() == WAREHOUSE_TABLES


def test_open_session_empty_dir(sessions, tmp_path):
    assert sessions.get(tmp_path).list_tables() == []


def test_open_session_missing_dir(sessions, tmp_path):
    with pytest.raises(RegistrationError):
        sessions.get(tmp_path / "nope")


def test_malformed_data_file_names_the_file(sessions, tmp_path):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("a\nnot_a_number\n")
    with pytest.raises(RegistrationError, match="t.csv"):
        sessions.get(tmp_path)


def test_header_mismatch_rejected(sessions, tmp_path):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("wrong\n1\n")
    with pytest.raises(RegistrationError):
        sessions.get(tmp_path)


def test_single_table_catalog(sessions, tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n7\n")
    assert sessions.get(tmp_path).list_tables() == ["t"]


def test_get_create_table_contains_columns(tiny_engine):
    ddl = tiny_engine.get_create_table("lineitem")
    assert "l_extendedprice" in ddl
    assert ddl.upper().startswith("CREATE TABLE")


def test_get_create_table_unknown(tiny_engine):
    with pytest.raises(TableNotFoundError):
        tiny_engine.get_create_table("no_such_table")


def test_ddl_round_trips_column_list(tiny_engine):
    ddl = tiny_engine.get_create_table("region")
    with closing(sqlite3.connect(":memory:")) as fresh:
        fresh.execute(ddl)
        cursor = fresh.execute("SELECT * FROM region")
        names = tuple(d[0] for d in cursor.description)
    original, _ = tiny_engine.execute_timed("SELECT * FROM region LIMIT 0")
    assert names == original.column_names


def test_fixed_region_has_five_rows(tiny_engine):
    result, _ = tiny_engine.execute_timed("SELECT COUNT(*) FROM region")
    assert result.rows[0][0] == 5


def test_select_one_has_positive_finite_runtime(tiny_engine):
    result, seconds = tiny_engine.execute_timed("SELECT 1")
    assert result.rows == ((1,),)
    assert seconds > 0 and math.isfinite(seconds)


def test_invalid_sql_carries_engine_diagnostic(tiny_engine):
    with pytest.raises(EngineError, match="syntax"):
        tiny_engine.execute_timed("SELEC broken")


# the query names a result column it cannot have: the query's fault, never
# the harness's
@pytest.mark.parametrize("alias", ['""', '"   "', "' '", """"''" """])
def test_a_result_column_with_an_empty_name_is_an_engine_error(tiny_engine, alias):
    with pytest.raises(EngineError, match=r"^result column 2 has an empty name: "):
        tiny_engine.execute_timed(f"SELECT 1 AS a, 2 AS {alias}")


def test_repeated_execution_is_deterministic(tiny_engine):
    sql = "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey"
    first, _ = tiny_engine.execute_timed(sql)
    second, _ = tiny_engine.execute_timed(sql)
    assert tables_equal_exact(first, second)


def test_row_cap_overflow(sessions, tmp_path, monkeypatch):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n" + "\n".join(str(i) for i in range(50)) + "\n")
    monkeypatch.setattr(engine_module, "DEFAULT_ROW_CAP", 10)
    with pytest.raises(ResultOverflowError):
        sessions.get(tmp_path).execute_timed("SELECT * FROM t")


def test_closed_session_raises(tmp_path):
    with Sessions() as own:
        engine = own.get(tmp_path)
        own.close()
        with pytest.raises(SessionClosedError):
            engine.list_tables()


def test_catalog_ops_do_not_reread_data_files(sessions, tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n1\n2\n")
    engine = sessions.get(tmp_path)
    (tmp_path / "t.csv").unlink()
    (tmp_path / "t.schema").unlink()
    assert engine.list_tables() == ["t"]
    assert "x" in engine.get_create_table("t")


def test_runtime_nondecreasing_in_data_size(sessions, tmp_path):
    sql = "SELECT SUM(v * 1.5), COUNT(*) FROM t WHERE v > 0.1"
    timings = {}
    for k in (1, 10):
        data_dir = tmp_path / f"x{k}"
        data_dir.mkdir()
        (data_dir / "t.schema").write_text("v float\n")
        values = (repr((i % 997) / 997.0) for i in range(10_000 * k))
        (data_dir / "t.csv").write_text("v\n" + "\n".join(values) + "\n")
        engine = sessions.get(data_dir)
        engine.execute_timed(sql)  # warm
        timings[k] = min(engine.execute_timed(sql)[1] for _ in range(5))
    assert timings[10] >= timings[1]


def test_explain_validates_without_running(tiny_engine):
    tiny_engine.explain("SELECT COUNT(*) FROM region")
    with pytest.raises(EngineError, match="^sql does not compile: no such table"):
        tiny_engine.explain("SELECT * FROM missing_table")


def test_empty_cells_become_nulls(tmp_path):
    (tmp_path / "t.schema").write_text("a integer\nb text\n")
    (tmp_path / "t.csv").write_text("a,b\n1,x\n,\n")
    assert rows_of(tmp_path, "SELECT * FROM t ORDER BY a") == ((None, None), (1, "x"))


def test_bool_literals_load_as_ints(tmp_path):
    (tmp_path / "t.schema").write_text("flag bool\n")
    (tmp_path / "t.csv").write_text("flag\ntrue\nfalse\n1\n")
    rows = rows_of(tmp_path, "SELECT flag FROM t ORDER BY flag")
    assert [r[0] for r in rows] == [0, 1, 1]


# --- CSV cells to stored values ---


def _padded(cells):
    """Each cell as is, or inside the blanks that int() and float() skip."""
    blanks = st.sampled_from(["", " ", "\t", "\n"])
    return st.tuples(blanks, cells, blanks).map("".join)


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_INT_CELLS = st.one_of(
    st.just(""),
    _padded(_INT64.map(str)),
    _padded(_INT64.filter(lambda n: n >= 0).map(lambda n: f"+{n}")),
    _padded(_INT64.map(lambda n: f"{n:_}")),
)
_FLOAT_CELLS = st.one_of(
    st.just(""),
    _padded(st.floats().map(repr)),
    _padded(st.floats(allow_nan=False).map(lambda x: f"{x:.16e}")),
    _padded(st.floats(allow_infinity=False, allow_nan=False).map(lambda x: f"{x:.17g}")),
    # sqlite's own text-to-REAL conversion rounds this one differently
    _padded(st.integers(-400, 400).map(lambda e: f"3.372874562926353e{e}")),
    _padded(st.sampled_from([
        "nan", "NaN", "-nan", "inf", "-Infinity", "+inf", "1_000.5", "1e5", ".5", "5.",
    ])),
)
_BOOL_WORDS = st.sampled_from(["1", "true", "t", "yes", "0", "false", "f", "no"])
_BOOL_CELLS = st.one_of(
    st.just(""),
    _padded(_BOOL_WORDS.flatmap(
        lambda word: st.sampled_from([word, word.upper(), word.title()])
    )),
)
_TEXT_CELLS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    st.sampled_from(["a,b", '"q"', "x\ny", "\r\n", " ", '""']),
)
_CELLS = {
    "integer": _INT_CELLS, "float": _FLOAT_CELLS, "bool": _BOOL_CELLS,
    "text": _TEXT_CELLS, "date": _TEXT_CELLS,
}


@st.composite
def csv_tables(draw):
    """(type tags, rows of CSV cells) of a random table, every cell valid."""
    tags = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=6))
    return tags, draw(st.lists(st.tuples(*(_CELLS[tag] for tag in tags)), max_size=8))


def _stored(conn, width):
    """(storage class, value) of every cell of table t, row by row."""
    columns = ", ".join(f"typeof(c{i}), c{i}" for i in range(width))
    return conn.execute(f"SELECT {columns} FROM t ORDER BY rowid").fetchall()


@settings(deadline=None, max_examples=200)
@given(table=csv_tables())
def test_registration_stores_what_a_per_cell_conversion_stores(table):
    tags, rows = table
    columns = [(f"c{i}", tag) for i, tag in enumerate(tags)]
    schema = TableSchema("t", tuple(ColumnSchema(name, tag) for name, tag in columns))
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        write_schema_file(data_dir / "t.schema", schema)
        with open(data_dir / "t.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(name for name, _ in columns)
            writer.writerows(rows)
        with Sessions() as own:
            stored = _stored(own.get(data_dir).conn, len(tags))
        with closing(sqlite3.connect(":memory:")) as oracle:
            load_csv_per_cell(oracle, "t", columns, data_dir / "t.csv")
            expected = _stored(oracle, len(tags))
    assert len(stored) == len(rows)
    assert stored == expected


@pytest.mark.parametrize(
    "schema, text, message",
    [
        ("a integer\n", "a\n1\n1.0\n",
         "failed to register {csv}: invalid literal for int() with base 10: '1.0'"),
        ("a integer\n", "a\n9223372036854775808\n",
         "failed to register {csv}: Python int too large to convert to SQLite INTEGER"),
        ("a float\n", "a\n1.5\nabc\n",
         "failed to register {csv}: could not convert string to float: 'abc'"),
        ("a bool\n", "a\nyes\nmaybe\n",
         "failed to register {csv}: not a boolean literal: 'maybe'"),
        ("a integer\nb text\n", "a,b\n1,x\n2\n", "{csv}: row width 1 != 2"),
        ("a integer\nb text\n", "a,c\n1,x\n",
         "{csv}: header ['a', 'c'] does not match schema ['a', 'b']"),
    ],
    ids=["int", "int-range", "float", "bool", "width", "header"],
)
def test_registration_errors_keep_their_messages(
    sessions, tmp_path, schema, text, message
):
    (tmp_path / "t.schema").write_text(schema)
    (tmp_path / "t.csv").write_text(text)
    with pytest.raises(RegistrationError) as caught:
        sessions.get(tmp_path)
    assert str(caught.value) == message.format(csv=tmp_path / "t.csv")


def test_schema_file_round_trip(tmp_path):
    schema = TableSchema(
        "orders_like",
        (ColumnSchema("id", "integer"), ColumnSchema("placed", "date")),
    )
    path = tmp_path / "orders_like.schema"
    write_schema_file(path, schema)
    assert read_schema_file(path) == schema


# --- snapshots and their owners ---


def rows_of(data_dir, sql):
    """The rows of `sql` on a registration of its own of `data_dir`."""
    with Sessions() as own:
        return own.get(data_dir).execute_timed(sql)[0].rows


def test_rewritten_csv_is_seen_by_next_session(tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("x\n1\n2\n")
    assert rows_of(tmp_path, "SELECT x FROM t ORDER BY x") == ((1,), (2,))
    csv_path.write_text("x\n7\n8\n9\n")
    assert rows_of(tmp_path, "SELECT x FROM t ORDER BY x") == ((7,), (8,), (9,))
    # same size, later mtime
    mtime_ns = csv_path.stat().st_mtime_ns
    csv_path.write_text("x\n4\n5\n6\n")
    os.utime(csv_path, ns=(mtime_ns + 10**9, mtime_ns + 10**9))
    assert rows_of(tmp_path, "SELECT x FROM t ORDER BY x") == ((4,), (5,), (6,))
    assert sorted(os.listdir(tmp_path)) == ["t.csv", "t.schema"]


def test_broken_csv_fails_every_open(tmp_path):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("a\nnot_a_number\n")
    before = snapshot_files()
    for _ in range(3):
        with Sessions() as own, pytest.raises(RegistrationError, match="t.csv"):
            own.get(tmp_path)
    assert snapshot_files() == before


def test_sessions_pin_the_data_until_the_owner_exits(tmp_path, monkeypatch):
    (tmp_path / "t.schema").write_text("x integer\n")
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("x\n1\n2\n")
    loaded = count_registrations(monkeypatch)
    before = snapshot_files()
    with Sessions() as sessions:
        first = sessions.get(tmp_path)
        assert sessions.get(tmp_path) is first
        csv_path.write_text("x\n7\n")
        sessions.close()
        with pytest.raises(SessionClosedError):
            first.list_tables()
        # reopened after close(), as in a forked worker: the same snapshot
        reopened = sessions.get(tmp_path)
        assert reopened is not first
        assert reopened.execute_timed("SELECT x FROM t ORDER BY x")[0].rows == (
            (1,), (2,),
        )
        assert len(snapshot_files() - before) == 1
    assert snapshot_files() == before
    assert len(loaded) == 1
    with pytest.raises(SessionClosedError):
        reopened.list_tables()


def test_a_forked_worker_that_drops_its_exit_handlers_keeps_the_snapshots():
    # a worker forked by Python 3.13's multiprocessing clears the exit
    # handlers it inherits before it runs
    snapshot_dir = engine_module._snapshot_dir()
    pid = os.fork()
    if pid == 0:
        atexit._clear()
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert snapshot_dir.is_dir()


def test_sessions_fail_a_broken_directory_without_rereading_it(tmp_path, monkeypatch):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("a\nnot_a_number\n")
    loaded = count_registrations(monkeypatch)
    before = snapshot_files()
    with Sessions() as sessions:
        errors = []
        for _ in range(2):
            with pytest.raises(RegistrationError, match="t.csv") as caught:
                sessions.get(tmp_path)
            errors.append(str(caught.value))
        with pytest.raises(RegistrationError, match="data directory not found"):
            sessions.get(tmp_path / "nope")
    assert errors[0] == errors[1]
    assert len(loaded) == 1
    assert snapshot_files() == before


def test_agent_sql_cannot_write_shared_data(sessions, shop_copy):
    with pytest.raises(EngineError, match="not authorized"):
        sessions.get(shop_copy).execute_timed("DROP TABLE orders")
    with Sessions() as fresh:
        assert fresh.get(shop_copy).list_tables() == ["orders", "products"]


# --- read-only authorizer ---


@pytest.fixture
def shop_copy(mini_suite_dir, tmp_path):
    data_dir = tmp_path / "shop"
    shutil.copytree(mini_suite_dir / "databases" / "shop", data_dir)
    return data_dir


def files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


@pytest.mark.parametrize(
    "statements",
    [
        ["ATTACH '{out}/m.db' AS m", "CREATE TABLE m.z AS SELECT * FROM orders"],
        ["ATTACH '{out}/m.db' AS m; CREATE TABLE m.z AS SELECT * FROM orders"],
        ["VACUUM INTO '{out}/v.db'"],
        ["VACUUM"],
        ["CREATE TEMP TABLE t AS SELECT 1 AS x"],
        ["CREATE TEMP VIEW orders AS SELECT 1 AS x"],
        ["PRAGMA writable_schema=1"],
        ["PRAGMA case_sensitive_like=1"],
        ["BEGIN", "SAVEPOINT s"],
    ],
    ids=["attach", "attach-create", "vacuum-into", "vacuum", "temp-table",
         "temp-view", "writable-schema", "case-sensitive-like", "transaction"],
)
def test_sql_that_writes_or_sets_state_is_a_tool_error(
    sessions, shop_copy, tmp_path, statements
):
    before = files_under(tmp_path)
    denied, *after = (sql.format(out=tmp_path) for sql in statements)
    engine = sessions.get(shop_copy)
    with pytest.raises(EngineError, match="not authorized|authorization denied"):
        engine.execute_timed(denied)
    for sql in after:  # e.g. "unknown database m" once ATTACH was denied
        with pytest.raises(EngineError):
            engine.execute_timed(sql)
    # the same session still reads the suite data, with default settings
    rows, _ = engine.execute_timed(
        "SELECT count(*) AS n, 'A' LIKE 'a' AS ci FROM orders"
    )
    assert rows.rows == ((20, 1),)
    assert engine.list_tables() == ["orders", "products"]
    assert files_under(tmp_path) == before


def test_reading_and_introspection_still_work(sessions, mini_suite_dir, shop_copy):
    manifest = json.loads((mini_suite_dir / "manifest.json").read_text())
    engine = sessions.get(shop_copy)
    assert tool_list_tables(engine)[0] == "orders\nproducts"
    schema, _ = tool_get_schema(engine, ["orders", "products"], sample_rows=2)
    assert schema.count("sample rows:") == 2
    for case in manifest["cases"]:
        engine.explain(case["SQL"])
    counted, _ = engine.execute_timed(
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
        "WHERE x < 5) SELECT sum(x) AS s FROM c"
    )
    assert counted.rows == ((15,),)
    plan, _ = engine.execute_timed("EXPLAIN QUERY PLAN SELECT * FROM orders")
    assert plan.n_rows >= 1
    info, _ = engine.execute_timed("PRAGMA table_info(orders)")
    assert [row[1] for row in info.rows][:2] == ["order_id", "product_id"]


@pytest.mark.parametrize(
    "pragma, argument",
    [("table_info", "orders"), ("table_xinfo", "orders"), ("index_list", "orders"),
     ("index_info", "no_index"), ("index_xinfo", "no_index"),
     ("foreign_key_list", "orders")],
)
def test_table_valued_introspection_pragmas_work(sessions, shop_copy, pragma, argument):
    engine = sessions.get(shop_copy)
    statement, _ = engine.execute_timed(f"PRAGMA {pragma}({argument})")
    function, _ = engine.execute_timed(f"SELECT * FROM pragma_{pragma}('{argument}')")
    assert function.rows == statement.rows
    assert pragma not in ("table_info", "table_xinfo") or function.n_rows == 5


@pytest.mark.parametrize(
    "sql",
    ["UPDATE sqlite_master SET sql = 'x'", "UPDATE sqlite_schema SET sql = 'x'",
     "UPDATE main.sqlite_master SET name = 'x' WHERE name = 'orders'",
     "DELETE FROM sqlite_master"],
)
def test_schema_table_cannot_be_modified(sessions, shop_copy, sql):
    engine = sessions.get(shop_copy)
    schema = engine.get_create_table("orders")
    with pytest.raises(EngineError, match="table sqlite_master may not be modified"):
        engine.execute_timed(sql)
    assert engine.list_tables() == ["orders", "products"]
    assert engine.get_create_table("orders") == schema
    rows, _ = engine.execute_timed("SELECT count(*) AS n FROM orders")
    assert rows.rows == ((20,),)


def test_empty_data_dir_reopens_as_empty_catalog(tmp_path, monkeypatch):
    loaded = count_registrations(monkeypatch)
    for _ in range(2):
        with Sessions() as own:
            assert own.get(tmp_path).list_tables() == []
    assert loaded == []
