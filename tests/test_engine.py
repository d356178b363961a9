from __future__ import annotations

import json
import math
import os
import shutil

import pytest

from bigsqlbench import engine as engine_module
from bigsqlbench.agent import ToolError, tool_get_schema, tool_list_tables, tool_run_query
from bigsqlbench.engine import (
    ColumnSchema,
    EmbeddedEngine,
    EngineConfig,
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

WAREHOUSE_TABLES = [
    "customer", "lineitem", "nation", "orders",
    "part", "partsupp", "region", "supplier",
]


@pytest.fixture
def tiny_engine(sessions, sf_tiny_dir):
    return sessions.get(sf_tiny_dir)


def test_open_session_registers_all_tables(tiny_engine):
    assert tiny_engine.list_tables() == WAREHOUSE_TABLES


def test_open_session_empty_dir(tmp_path):
    with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
        assert engine.list_tables() == []


def test_open_session_missing_dir(tmp_path):
    with pytest.raises(RegistrationError):
        EmbeddedEngine(EngineConfig(data_dir=tmp_path / "nope"))


def test_malformed_data_file_names_the_file(tmp_path):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("a\nnot_a_number\n")
    with pytest.raises(RegistrationError, match="t.csv"):
        EmbeddedEngine(EngineConfig(data_dir=tmp_path))


def test_header_mismatch_rejected(tmp_path):
    (tmp_path / "t.schema").write_text("a integer\n")
    (tmp_path / "t.csv").write_text("wrong\n1\n")
    with pytest.raises(RegistrationError):
        EmbeddedEngine(EngineConfig(data_dir=tmp_path))


def test_single_table_catalog(tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n7\n")
    with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
        assert engine.list_tables() == ["t"]


def test_get_create_table_contains_columns(tiny_engine):
    ddl = tiny_engine.get_create_table("lineitem")
    assert "l_extendedprice" in ddl
    assert ddl.upper().startswith("CREATE TABLE")


def test_get_create_table_unknown(tiny_engine):
    with pytest.raises(TableNotFoundError):
        tiny_engine.get_create_table("no_such_table")


def test_ddl_round_trips_column_list(tiny_engine):
    ddl = tiny_engine.get_create_table("region")
    with EmbeddedEngine(EngineConfig()) as fresh:
        fresh.conn.execute(ddl)
        result, _ = fresh.execute_timed("SELECT * FROM region")
        original, _ = tiny_engine.execute_timed("SELECT * FROM region LIMIT 0")
        assert result.column_names == original.column_names


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


def test_repeated_execution_is_deterministic(tiny_engine):
    sql = "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey"
    first, _ = tiny_engine.execute_timed(sql)
    second, _ = tiny_engine.execute_timed(sql)
    assert tables_equal_exact(first, second)


def test_row_cap_overflow(tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n" + "\n".join(str(i) for i in range(50)) + "\n")
    config = EngineConfig(data_dir=tmp_path, row_cap=10)
    with EmbeddedEngine(config) as engine:
        with pytest.raises(ResultOverflowError):
            engine.execute_timed("SELECT * FROM t")


def test_closed_session_raises(tmp_path):
    engine = EmbeddedEngine(EngineConfig(data_dir=tmp_path))
    engine.close()
    with pytest.raises(SessionClosedError):
        engine.list_tables()


def test_catalog_ops_do_not_reread_data_files(tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n1\n2\n")
    with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
        (tmp_path / "t.csv").unlink()
        (tmp_path / "t.schema").unlink()
        assert engine.list_tables() == ["t"]
        assert "x" in engine.get_create_table("t")


def test_runtime_nondecreasing_in_data_size():
    sql = "SELECT SUM(v * 1.5), COUNT(*) FROM t WHERE v > 0.1"
    timings = {}
    for k in (1, 10):
        with EmbeddedEngine(EngineConfig()) as engine:
            engine.conn.execute("CREATE TABLE t (v REAL)")
            rows = [((i % 997) / 997.0,) for i in range(10_000 * k)]
            engine.conn.executemany("INSERT INTO t VALUES (?)", rows)
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
    with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
        result, _ = engine.execute_timed("SELECT * FROM t ORDER BY a")
        assert result.rows == ((None, None), (1, "x"))


def test_bool_literals_load_as_ints(tmp_path):
    (tmp_path / "t.schema").write_text("flag bool\n")
    (tmp_path / "t.csv").write_text("flag\ntrue\nfalse\n1\n")
    with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
        result, _ = engine.execute_timed("SELECT flag FROM t ORDER BY flag")
        assert [r[0] for r in result.rows] == [0, 1, 1]


def test_schema_file_round_trip(tmp_path):
    schema = TableSchema(
        "orders_like",
        (ColumnSchema("id", "integer"), ColumnSchema("placed", "date")),
    )
    path = tmp_path / "orders_like.schema"
    write_schema_file(path, schema)
    assert read_schema_file(path) == schema


# --- snapshots and their owners ---


def count_registrations(monkeypatch) -> list:
    """Record every CSV that registration parses."""
    loaded = []
    original = engine_module._create_and_load

    def counting(conn, schema, csv_path):
        loaded.append(csv_path)
        original(conn, schema, csv_path)

    monkeypatch.setattr(engine_module, "_create_and_load", counting)
    return loaded


def snapshot_files() -> set:
    return set(engine_module._snapshot_dir().iterdir())


def rows_of(data_dir, sql):
    with EmbeddedEngine(EngineConfig(data_dir=data_dir)) as engine:
        return engine.execute_timed(sql)[0].rows


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
        with pytest.raises(RegistrationError, match="t.csv"):
            EmbeddedEngine(EngineConfig(data_dir=tmp_path))
    assert snapshot_files() == before


def test_closed_direct_session_removes_its_snapshot(tmp_path):
    (tmp_path / "t.schema").write_text("x integer\n")
    (tmp_path / "t.csv").write_text("x\n1\n")
    before = snapshot_files()
    engine = EmbeddedEngine(EngineConfig(data_dir=tmp_path))
    assert len(snapshot_files() - before) == 1
    engine.close()
    assert snapshot_files() == before
    engine.close()  # a second close is a no-op


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


def test_agent_sql_cannot_write_shared_data(mini_suite_dir, tmp_path):
    data_dir = tmp_path / "shop"
    shutil.copytree(mini_suite_dir / "databases" / "shop", data_dir)
    with EmbeddedEngine(EngineConfig(data_dir=data_dir)) as engine:
        with pytest.raises(ToolError, match="not authorized"):
            tool_run_query(engine, "DROP TABLE orders")
    with EmbeddedEngine(EngineConfig(data_dir=data_dir)) as engine:
        assert engine.list_tables() == ["orders", "products"]


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
def test_sql_that_writes_or_sets_state_is_a_tool_error(shop_copy, tmp_path, statements):
    before = files_under(tmp_path)
    denied, *after = (sql.format(out=tmp_path) for sql in statements)
    with EmbeddedEngine(EngineConfig(data_dir=shop_copy)) as engine:
        with pytest.raises(ToolError, match="not authorized|authorization denied"):
            tool_run_query(engine, denied)
        for sql in after:  # e.g. "unknown database m" once ATTACH was denied
            with pytest.raises(ToolError):
                tool_run_query(engine, sql)
        # the same session still reads the suite data, with default settings
        rows, _ = tool_run_query(
            engine, "SELECT count(*) AS n, 'A' LIKE 'a' AS ci FROM orders"
        )
        assert rows.rows == ((20, 1),)
        assert engine.list_tables() == ["orders", "products"]
    assert files_under(tmp_path) == before


def test_reading_and_introspection_still_work(mini_suite_dir, shop_copy):
    manifest = json.loads((mini_suite_dir / "manifest.json").read_text())
    with EmbeddedEngine(EngineConfig(data_dir=shop_copy)) as engine:
        assert tool_list_tables(engine) == "orders\nproducts"
        schema = tool_get_schema(engine, ["orders", "products"], sample_rows=2)
        assert schema.count("sample rows:") == 2
        for case in manifest["cases"]:
            engine.explain(case["SQL"])
        counted, _ = tool_run_query(
            engine,
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c "
            "WHERE x < 5) SELECT sum(x) AS s FROM c",
        )
        assert counted.rows == ((15,),)
        plan, _ = tool_run_query(engine, "EXPLAIN QUERY PLAN SELECT * FROM orders")
        assert plan.n_rows >= 1
        info, _ = tool_run_query(engine, "PRAGMA table_info(orders)")
        assert [row[1] for row in info.rows][:2] == ["order_id", "product_id"]


@pytest.mark.parametrize(
    "pragma, argument",
    [("table_info", "orders"), ("table_xinfo", "orders"), ("index_list", "orders"),
     ("index_info", "no_index"), ("index_xinfo", "no_index"),
     ("foreign_key_list", "orders")],
)
def test_table_valued_introspection_pragmas_work(shop_copy, pragma, argument):
    with EmbeddedEngine(EngineConfig(data_dir=shop_copy)) as engine:
        statement, _ = tool_run_query(engine, f"PRAGMA {pragma}({argument})")
        function, _ = tool_run_query(
            engine, f"SELECT * FROM pragma_{pragma}('{argument}')"
        )
        assert function.rows == statement.rows
    assert pragma not in ("table_info", "table_xinfo") or function.n_rows == 5


@pytest.mark.parametrize(
    "sql",
    ["UPDATE sqlite_master SET sql = 'x'", "UPDATE sqlite_schema SET sql = 'x'",
     "UPDATE main.sqlite_master SET name = 'x' WHERE name = 'orders'",
     "DELETE FROM sqlite_master"],
)
def test_schema_table_cannot_be_modified(shop_copy, sql):
    with EmbeddedEngine(EngineConfig(data_dir=shop_copy)) as engine:
        schema = engine.get_create_table("orders")
        with pytest.raises(ToolError, match="table sqlite_master may not be modified"):
            tool_run_query(engine, sql)
        assert engine.list_tables() == ["orders", "products"]
        assert engine.get_create_table("orders") == schema
        rows, _ = tool_run_query(engine, "SELECT count(*) AS n FROM orders")
        assert rows.rows == ((20,),)


def test_empty_data_dir_reopens_as_empty_catalog(tmp_path, monkeypatch):
    loaded = count_registrations(monkeypatch)
    for _ in range(2):
        with EmbeddedEngine(EngineConfig(data_dir=tmp_path)) as engine:
            assert engine.list_tables() == []
    assert loaded == []
