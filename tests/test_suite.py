from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from bigsqlbench.resultset import tables_equal_exact
from bigsqlbench.suite import (
    GoldenMaterializationError,
    ManifestError,
    ScaleFactorError,
    _below,
    format_sf,
    generate_scaled_data,
    load_suite,
    materialize_golden,
    warehouse_schema,
)

from .conftest import REPO_ROOT
from .oracles import PRICING_SUMMARY_SQL, csv_row_count, pricing_summary_oracle
from .test_engine import count_registrations


# --- the bundled mini suite ---


def test_make_mini_suite_regenerates_the_bundled_suite(mini_suite_dir, tmp_path):
    # the tool writes suites/mini next to its own tools/ directory
    (tmp_path / "tools").mkdir()
    tool = shutil.copy(REPO_ROOT / "tools" / "make_mini_suite.py", tmp_path / "tools")
    subprocess.run([sys.executable, tool], check=True, capture_output=True, timeout=60)

    def files(root):
        return {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()
        }

    generated = files(tmp_path / "suites" / "mini")
    bundled = files(mini_suite_dir)
    assert sorted(generated) == sorted(bundled)
    assert generated == bundled


# --- manifest loading ---


def test_load_bundled_mini_suite(sessions, mini_suite_dir):
    cases = load_suite(mini_suite_dir, None, sessions)
    assert len(cases) == 5
    assert all(case.usable for case in cases)
    ordered = {case.case_id: case.ordered for case in cases}
    assert ordered["top_customer"] is True
    assert ordered["orders_count"] is False


def test_load_bare_list_manifest(sessions, tmp_path, mini_suite_dir):
    shop_src = mini_suite_dir / "databases" / "shop"
    db_dir = tmp_path / "databases" / "shop"
    db_dir.mkdir(parents=True)
    for item in shop_src.iterdir():
        (db_dir / item.name).write_text(item.read_text())
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [{"question": "how many orders?",
              "SQL": "SELECT COUNT(*) FROM orders", "db_id": "shop"}]
        )
    )
    cases = load_suite(tmp_path, None, sessions)
    assert len(cases) == 1
    assert cases[0].usable
    assert cases[0].case_id == "q0001"


def test_missing_database_fails_per_case(sessions, tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [
                {"question": "q", "SQL": "SELECT 1", "db_id": "missing_db"},
            ]
        )
    )
    cases = load_suite(tmp_path, None, sessions)
    assert len(cases) == 1
    assert not cases[0].usable
    assert "missing_db" in cases[0].error


def test_database_that_fails_to_register_makes_each_case_unusable(
    sessions, tmp_path, monkeypatch
):
    db_dir = tmp_path / "databases" / "broken"
    db_dir.mkdir(parents=True)
    (db_dir / "t.schema").write_text("a integer\n")
    (db_dir / "t.csv").write_text("a\nnot_a_number\n")
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [
                {"question": "how many?", "SQL": "SELECT COUNT(*) FROM t",
                 "db_id": "broken"},
                {"question": "which?", "SQL": "SELECT a FROM t", "db_id": "broken"},
            ]
        )
    )
    loaded = count_registrations(monkeypatch)
    cases = load_suite(tmp_path, None, sessions)
    assert [case.usable for case in cases] == [False, False]
    for case in cases:
        assert case.error == (
            f"database failed to load: failed to register {db_dir / 't.csv'}: "
            "invalid literal for int() with base 10: 'not_a_number'"
        )
    assert loaded == [db_dir / "t.csv"]


def test_partial_failure_leaves_other_cases_usable(sessions, tmp_path, mini_suite_dir):
    db_dir = tmp_path / "databases" / "shop"
    db_dir.mkdir(parents=True)
    for item in (mini_suite_dir / "databases" / "shop").iterdir():
        (db_dir / item.name).write_text(item.read_text())
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [
                {"question": "ok", "SQL": "SELECT COUNT(*) FROM orders",
                 "db_id": "shop"},
                {"question": "bad", "SQL": "SELECT FROM WHERE", "db_id": "shop"},
                {"question": "gone", "SQL": "SELECT 1", "db_id": "nope"},
            ]
        )
    )
    cases = load_suite(tmp_path, None, sessions)
    assert [c.usable for c in cases] == [True, False, False]


def test_golden_denied_by_read_only_session_is_unusable(
    sessions, tmp_path, mini_suite_dir
):
    shutil.copytree(mini_suite_dir / "databases", tmp_path / "databases")
    escape = tmp_path / "escape.db"
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [
                {"question": "attach", "SQL": f"ATTACH '{escape}' AS m",
                 "db_id": "shop"},
                {"question": "temp", "SQL": "CREATE TEMP TABLE t AS SELECT 1",
                 "db_id": "shop"},
                {"question": "ok", "SQL": "SELECT COUNT(*) FROM orders",
                 "db_id": "shop"},
            ]
        )
    )
    cases = load_suite(tmp_path, None, sessions)
    assert [c.usable for c in cases] == [False, False, True]
    for case in cases[:2]:
        assert case.error == "golden sql is denied: not authorized"
    assert not escape.exists()


def test_four_case_warehouse_manifest(sessions, tmp_path, sf_tiny_dir):
    db_dir = tmp_path / "databases" / "wh"
    db_dir.mkdir(parents=True)
    for item in sf_tiny_dir.iterdir():
        (db_dir / item.name).write_bytes(item.read_bytes())
    questions = {
        "q1": "Summarize pricing per return flag and line status.",
        "q17": "How much revenue comes from small-quantity orders?",
        "q18": "Which large-volume customers placed the biggest orders?",
        "q21": "Which suppliers kept orders waiting?",
    }
    cases = [
        {"case_id": cid, "question": text,
         "SQL": "SELECT COUNT(*) FROM lineitem", "db_id": "wh"}
        for cid, text in questions.items()
    ]
    (tmp_path / "manifest.json").write_text(json.dumps({"cases": cases}))
    loaded = load_suite(tmp_path, None, sessions)
    assert len(loaded) == 4
    assert [c.case_id for c in loaded] == ["q1", "q17", "q18", "q21"]
    assert all(c.usable for c in loaded)


def test_manifest_parse_error(sessions, tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(ManifestError):
        load_suite(tmp_path, None, sessions)


@pytest.mark.parametrize(
    "ids, repeated",
    [(["a", "b", "a"], "a"), (["q0002", None], "q0002")],
    ids=["given_twice", "given_and_defaulted"],
)
def test_manifest_repeating_a_case_id_is_refused(sessions, tmp_path, ids, repeated):
    cases = [{"question": "q", "SQL": "SELECT 1", "db_id": "shop"} for _ in ids]
    for case, case_id in zip(cases, ids):
        if case_id is not None:
            case["case_id"] = case_id
    (tmp_path / "manifest.json").write_text(json.dumps({"cases": cases}))
    message = f"^case id '{repeated}' is used by 2 cases$"
    with pytest.raises(ManifestError, match=message):
        load_suite(tmp_path, None, sessions)


@pytest.mark.parametrize("manifest", [{"cases": ["x"]}, [5]], ids=["cases", "bare"])
def test_manifest_case_that_is_not_an_object_is_refused(sessions, tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="^case 0 is not a JSON object$"):
        load_suite(tmp_path, None, sessions)


def test_manifest_missing(sessions, tmp_path):
    with pytest.raises(ManifestError):
        load_suite(tmp_path / "absent", None, sessions)


def test_scale_factor_placeholder_resolution(sessions, tmp_path, sf_tiny_dir):
    db_dir = tmp_path / "databases" / "wh_0.001"
    db_dir.mkdir(parents=True)
    for item in sf_tiny_dir.iterdir():
        (db_dir / item.name).write_bytes(item.read_bytes())
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            [{"question": "regions?", "SQL": "SELECT COUNT(*) FROM region",
              "db_id": "wh_{sf}"}]
        )
    )
    cases = load_suite(tmp_path, 0.001, sessions)
    assert cases[0].usable
    assert cases[0].database == "wh_0.001"


# --- synthetic data generation ---


def test_lineitem_scales_to_sixty_thousand(sf_small_dir):
    assert abs(csv_row_count(sf_small_dir / "lineitem.csv") - 60_000) <= 1


def test_fixed_tables_keep_cardinality_across_scales(sf_tiny_dir, sf_small_dir):
    for data_dir in (sf_tiny_dir, sf_small_dir):
        assert csv_row_count(data_dir / "region.csv") == 5
        assert csv_row_count(data_dir / "nation.csv") == 25


def test_scalable_row_counts_track_scale_factor(sf_tiny_dir):
    schema = warehouse_schema()
    for table in schema.tables:
        if table.fixed:
            continue
        expected = round(table.base_rows * 0.001)
        actual = csv_row_count(sf_tiny_dir / f"{table.name}.csv")
        assert abs(actual - expected) <= 1, table.name


def test_generation_is_deterministic(tmp_path):
    schema = warehouse_schema()
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_scaled_data(schema, 0.001, seed=7, out_dir=a)
    generate_scaled_data(schema, 0.001, seed=7, out_dir=b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


def _sha256_by_name(data_dir):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(data_dir.iterdir())
    }


def test_generated_files_are_pinned_byte_for_byte(tmp_path, sf_small_dir):
    """Every generated file keeps its bytes for a given (scale factor, seed)."""
    pinned = json.loads(
        (REPO_ROOT / "tests" / "data" / "generated_sha256.json").read_text()
    )
    generate_scaled_data(warehouse_schema(), 0.001, seed=7, out_dir=tmp_path)
    assert _sha256_by_name(tmp_path) == pinned["sf 0.001, seed 7"]
    assert _sha256_by_name(sf_small_dir) == pinned["sf 0.01, seed 42"]


@given(
    seed=st.integers(0, 2**32),
    bounds=st.lists(st.integers(1, 2**70), min_size=1, max_size=20),
)
def test_below_draws_what_randrange_draws(seed, bounds):
    ours, stdlib = random.Random(seed), random.Random(seed)
    assert [_below(ours.getrandbits, n) for n in bounds] == [
        stdlib.randrange(n) for n in bounds
    ]


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _below(random.Random(0).getrandbits, n)


def test_different_seeds_differ(tmp_path):
    schema = warehouse_schema()
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_scaled_data(schema, 0.001, seed=1, out_dir=a)
    generate_scaled_data(schema, 0.001, seed=2, out_dir=b)
    assert (a / "lineitem.csv").read_bytes() != (b / "lineitem.csv").read_bytes()


def test_foreign_key_integrity(sessions, sf_tiny_dir):
    joins = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("nation", "n_regionkey", "region", "r_regionkey"),
        ("partsupp", "ps_partkey", "part", "p_partkey"),
        ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ]
    engine = sessions.get(sf_tiny_dir)
    for fact, fk, dim, pk in joins:
        result, _ = engine.execute_timed(
            f"SELECT COUNT(*) FROM {fact} f LEFT JOIN {dim} d "
            f"ON f.{fk} = d.{pk} WHERE d.{pk} IS NULL"
        )
        assert result.rows[0][0] == 0, f"{fact}.{fk} dangles"


def test_unsupported_scale_factor(tmp_path):
    with pytest.raises(ScaleFactorError):
        generate_scaled_data(warehouse_schema(), 2.0, seed=0, out_dir=tmp_path)
    with pytest.raises(ScaleFactorError):
        generate_scaled_data(warehouse_schema(), 0.0001, seed=0, out_dir=tmp_path)


def test_format_sf():
    assert format_sf(0.001) == "0.001"
    assert format_sf(1.0) == "1"
    assert format_sf(0.01) == "0.01"


# --- golden materialization ---


def _case_for(data_dir, sql, case_id="pricing_summary"):
    from bigsqlbench.suite import QueryCase

    return QueryCase(
        case_id=case_id,
        nl_question="summary",
        golden_sql=sql,
        database="wh",
        data_dir=data_dir,
    )


def test_golden_aggregate_matches_brute_force_oracle(sessions, sf_tiny_dir):
    case = _case_for(sf_tiny_dir, PRICING_SUMMARY_SQL)
    engine = sessions.get(sf_tiny_dir)
    result, t_gold = materialize_golden(case, engine)
    expected = pricing_summary_oracle(sf_tiny_dir)
    assert tables_equal_exact(expected, result)
    assert t_gold > 0


def test_golden_rerun_into_same_dir_executes_again(
    sessions, sf_tiny_dir, tmp_path, monkeypatch
):
    case = _case_for(sf_tiny_dir, "SELECT COUNT(*) AS n FROM region")
    path = tmp_path / "pricing_summary@sf0.001.json"
    calls = []
    engine = sessions.get(sf_tiny_dir)
    execute_timed = engine.execute_timed

    def counting(sql):
        calls.append(sql)
        return execute_timed(sql)

    monkeypatch.setattr(engine, "execute_timed", counting)
    first, t1 = materialize_golden(
        case, engine, out_dir=tmp_path, scale_factor=0.001
    )
    assert json.loads(path.read_text()) == {
        "t_gold": t1,
        "result": {"columns": [{"name": "n", "type": "integer"}], "rows": [[5]]},
    }
    path.write_text('{"t_gold": 99.0, "result": {"columns": [], "rows": []}}')
    case.golden_sql = "SELECT COUNT(*) AS n FROM nation"
    second, t2 = materialize_golden(
        case, engine, out_dir=tmp_path, scale_factor=0.001
    )
    # warm-up plus three timed runs on each call
    assert calls == ["SELECT COUNT(*) AS n FROM region"] * 4 + [case.golden_sql] * 4
    assert first.rows == ((5,),) and second.rows == ((25,),)
    assert t2 != 99.0
    assert json.loads(path.read_text()) == {
        "t_gold": t2,
        "result": {"columns": [{"name": "n", "type": "integer"}], "rows": [[25]]},
    }


def test_blob_golden_is_written_as_hex(sessions, sf_tiny_dir, tmp_path):
    case = _case_for(sf_tiny_dir, "SELECT x'00ff' AS b, COUNT(*) AS n FROM region")
    engine = sessions.get(sf_tiny_dir)
    result, _ = materialize_golden(
        case, engine, out_dir=tmp_path, scale_factor=0.001
    )
    assert result.rows == ((b"\x00\xff", 5),)
    written = json.loads((tmp_path / "pricing_summary@sf0.001.json").read_text())
    assert written["result"]["rows"] == [["00ff", 5]]


def test_broken_golden_marks_case_unusable(sessions, sf_tiny_dir):
    case = _case_for(sf_tiny_dir, "SELECT missing FROM region")
    engine = sessions.get(sf_tiny_dir)
    with pytest.raises(GoldenMaterializationError):
        materialize_golden(case, engine)
