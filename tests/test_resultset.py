from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bigsqlbench import resultset
from bigsqlbench.resultset import (
    Column,
    InvalidColumnNameError,
    ResultTable,
    column_precision,
    containment_indicator,
    is_expression_name,
    json_cell,
    match_columns,
    normalize_column_name,
    rows_equal,
    tables_equal_exact,
    values_equal,
)

from .oracles import oracle_cells_equal, tolerant_rows_equal


def table(cols, rows=()):
    return ResultTable.build(cols, rows)


# --- normalize_column_name ---


def test_normalize_case_folds():
    assert normalize_column_name("L_ExtendedPrice") == "l_extendedprice"


def test_normalize_strips_quotes_and_collapses_spaces():
    assert normalize_column_name("`order key`") == "order_key"
    assert normalize_column_name('"Total   Price"') == "total_price"


def test_normalize_idempotent():
    once = normalize_column_name("l_extendedprice")
    assert normalize_column_name(once) == once


def test_normalize_rejects_empty():
    with pytest.raises(InvalidColumnNameError):
        normalize_column_name("")
    with pytest.raises(InvalidColumnNameError):
        normalize_column_name("   ")


def test_expression_names():
    assert is_expression_name("count(*)")
    assert is_expression_name("sum(x+y)")
    assert not is_expression_name("order_key")


# --- cell comparison ---


def test_values_equal_null_semantics():
    assert values_equal(None, None)
    assert not values_equal(None, 0)
    assert not values_equal("", None)


def test_values_equal_float_tolerance():
    assert values_equal(1.0, 1.0 + 1e-9)
    assert values_equal(1e6, 1e6 * (1 + 1e-7))
    assert not values_equal(1.0, 1.1)


def test_values_equal_text_trailing_trim():
    assert values_equal("abc  ", "abc")
    assert not values_equal("  abc", "abc")


def test_values_equal_cross_type():
    assert values_equal(1, 1.0)
    assert not values_equal("1", 1)


def test_tolerance_absolute_floor():
    assert values_equal(0.0, 5e-10)
    assert not values_equal(0.0, 1e-6)


INF = float("inf")


def test_infinity_equals_only_itself():
    assert values_equal(INF, INF) and values_equal(-INF, -INF)
    assert not values_equal(INF, 1.0)
    assert not values_equal(INF, -INF)
    assert not values_equal(1e300, INF)
    assert not values_equal(-1.7e308, -INF)


def test_infinite_result_does_not_match_a_finite_golden():
    # `SELECT 1e999`, or a REAL sum that overflows, returns inf
    overflowed = table([("x", "float")], [(INF,)])
    finite = table([("x", "float")], [(2.5,)])
    for truth, gen in ((overflowed, finite), (finite, overflowed)):
        assert containment_indicator(truth, gen) == 0
        assert containment_indicator(truth, gen, ordered=True) == 0
        assert not tables_equal_exact(truth, gen)


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_float_range_ints = st.integers(min_value=-(2**1023), max_value=2**1023)


@st.composite
def number_pairs(draw):
    """Two numbers, often close to the tolerance boundary of each other."""
    a = draw(st.one_of(_finite_floats, _float_range_ints))
    kind = draw(st.sampled_from(["any", "relative", "absolute", "step"]))
    if kind == "any":
        b = draw(st.one_of(_finite_floats, _float_range_ints))
    elif kind == "relative":
        b = float(a) * (1 + draw(st.floats(-3e-6, 3e-6)))
    elif kind == "absolute":
        b = float(a) + draw(st.floats(-3e-9, 3e-9))
    else:
        b = a + draw(st.integers(-3, 3))
    return a, b


@settings(max_examples=1000)
@given(number_pairs())
def test_prop_values_equal_matches_oracle_on_numbers(pair):
    a, b = pair
    assert values_equal(a, b) == oracle_cells_equal(a, b)
    assert values_equal(b, a) == oracle_cells_equal(b, a)


# --- column_precision ---


def test_precision_identity():
    t = table(["a", "b"], [(1, 2)])
    assert column_precision(t, t) == 1.0


def test_precision_one_extra_column():
    truth = table(["a", "b"])
    gen = table(["a", "b", "c"])
    assert column_precision(truth, gen) == pytest.approx(2 / 3)


def test_precision_disjoint_plain_names_is_zero():
    truth = table(["a", "b"])
    gen = table(["c", "d"])
    assert column_precision(truth, gen) == 0.0


def test_precision_zero_columns_is_zero():
    truth = table(["a"])
    gen = ResultTable(columns=(), rows=())
    assert column_precision(truth, gen) == 0.0


def test_precision_subset_of_truth_is_one():
    truth = table(["a", "b", "c"])
    gen = table(["a", "c"])
    assert column_precision(truth, gen) == 1.0


def test_precision_duplicate_generated_names_counted_superfluous():
    truth = table(["a", "b"])
    gen = ResultTable(columns=(Column("a"), Column("a"), Column("b")), rows=())
    assert column_precision(truth, gen) == pytest.approx(2 / 3)


def test_precision_expression_fallback_matches_alias():
    truth = table(["count(*)"])
    gen = table(["n"])
    assert column_precision(truth, gen) == 1.0


# --- containment_indicator ---


def test_containment_superfluous_column_still_valid():
    truth = table(["a", "b"], [(1, "x"), (2, "y")])
    gen = table(["a", "b", "c"], [(1, "x", 9), (2, "y", 8)])
    assert containment_indicator(truth, gen) == 1


def test_containment_row_count_mismatch_invalid():
    truth = table(["a", "b"], [(1, "x"), (2, "y")])
    gen = table(["a", "b"], [(1, "x"), (2, "y"), (3, "z")])
    assert containment_indicator(truth, gen) == 0


def test_containment_missing_column_invalid():
    truth = table(["a", "b"], [(1, "x")])
    gen = table(["a"], [(1,)])
    assert containment_indicator(truth, gen) == 0


def test_containment_empty_tables_column_superset():
    truth = table(["a"])
    gen = table(["a", "b"])
    assert containment_indicator(truth, gen) == 1


def test_containment_row_values_must_match():
    truth = table(["a"], [(1,), (2,)])
    gen = table(["a"], [(1,), (3,)])
    assert containment_indicator(truth, gen) == 0


def test_containment_invariant_under_row_reorder():
    truth = table(["a", "b"], [(1, "x"), (2, "y"), (3, "z")])
    gen = table(["a", "b"], [(3, "z"), (1, "x"), (2, "y")])
    assert containment_indicator(truth, gen) == 1


def test_containment_invariant_under_generated_column_reorder():
    truth = table(["a", "b"], [(1, "x")])
    gen = table(["b", "a"], [("x", 1)])
    assert containment_indicator(truth, gen) == 1


def test_containment_ordered_flag_enforces_order():
    truth = table(["a"], [(1,), (2,)])
    gen_swapped = table(["a"], [(2,), (1,)])
    assert containment_indicator(truth, gen_swapped, ordered=True) == 0
    assert containment_indicator(truth, gen_swapped, ordered=False) == 1


def test_containment_expression_fallback_end_to_end():
    truth = table([("count(*)", "integer")], [(5,)])
    gen = table([("n", "integer")], [(5,)])
    assert containment_indicator(truth, gen) == 1


def test_containment_plain_identifier_mismatch_no_fallback():
    truth = table(["a"], [(1,)])
    gen = table(["z"], [(1,)])
    assert containment_indicator(truth, gen) == 0


def test_containment_duplicate_generated_keeps_first():
    truth = table(["a"], [(1,)])
    gen = ResultTable(
        columns=(Column("a", "integer"), Column("a", "integer")),
        rows=((1, 999),),
    )
    assert containment_indicator(truth, gen) == 1


def test_repeated_generated_names_are_logged_once_per_episode(caplog):
    # the runner scores an episode with both calls
    truth = table(["a"], [(1,)])
    gen = ResultTable(columns=(Column("a"), Column("a")), rows=((1, 1),))
    with caplog.at_level("WARNING", logger="bigsqlbench.resultset"):
        containment_indicator(truth, gen)
        column_precision(truth, gen)
    assert [r.getMessage() for r in caplog.records] == [
        "generated output repeats 1 column name(s); later duplicates are "
        "treated as superfluous"
    ]


# --- tables_equal_exact ---


def test_exact_identity():
    t = table(["a", "b"], [(1, "x"), (2, "y")])
    assert tables_equal_exact(t, t)


def test_exact_permuted_rows_equal():
    x = table(["a"], [(1,), (2,), (3,)])
    y = table(["a"], [(3,), (1,), (2,)])
    assert tables_equal_exact(x, y)


def test_exact_extra_column_unequal():
    x = table(["a"], [(1,)])
    y = table(["a", "b"], [(1, 2)])
    assert not tables_equal_exact(x, y)


def test_exact_repeated_column_unequal():
    # the same name set, but the repeat is a superfluous column
    x = table(["a"], [(1,)])
    y = table(["a", "a"], [(1, 1)])
    assert containment_indicator(x, y) == 1
    assert not tables_equal_exact(x, y)
    assert not tables_equal_exact(y, x)


def test_exact_column_order_insensitive():
    x = table(["a", "b"], [(1, "x")])
    y = table(["b", "a"], [("x", 1)])
    assert tables_equal_exact(x, y)


def test_exact_implied_by_containment_with_same_columns():
    truth = table(["a", "b"], [(1, "x"), (2, "y")])
    gen = table(["b", "a"], [("y", 2), ("x", 1)])
    assert containment_indicator(truth, gen) == 1
    assert tables_equal_exact(truth, gen)


# --- structure ---


def test_row_width_enforced():
    with pytest.raises(ValueError):
        ResultTable.build(["a", "b"], [(1,)])


def test_json_round_trip():
    t = table([("a", "integer"), ("b", "text")], [(1, "x"), (None, "y ")])
    assert ResultTable.from_json_dict(json.loads(json.dumps(t.to_json_dict()))) == t


def test_from_query_result_infers_tags():
    t = ResultTable.from_query_result(["n", "v", "s"], [(1, 2.5, "x")])
    assert [c.type_tag for c in t.columns] == ["integer", "float", "text"]


def test_blob_column_is_tagged_and_read_back_from_hex():
    t = ResultTable.from_query_result(["b", "n"], [(None, 1), (b"\x00\xff", 2)])
    assert [c.type_tag for c in t.columns] == ["blob", "integer"]
    text = json.dumps(t.to_json_dict(), default=json_cell)
    assert json.loads(text)["rows"] == [[None, 1], ["00ff", 2]]
    assert ResultTable.from_json_dict(json.loads(text)) == t


def test_match_columns_positional_only_for_expressions():
    truth = table(["count(*)", "b"])
    gen = table(["b", "cnt"])
    mapping, unmatched = match_columns(truth, gen)
    assert mapping == {1: 0, 0: 1}
    assert unmatched == []


# --- property tests ---

_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
    min_size=1,
    max_size=4,
    unique=True,
)


@st.composite
def tables_strategy(draw):
    names = draw(_names)
    tags = [draw(st.sampled_from(["integer", "float", "text"])) for _ in names]
    n_rows = draw(st.integers(min_value=0, max_value=5))
    value_strategies = {
        "integer": st.integers(min_value=-100, max_value=100),
        "float": st.floats(
            min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
        ),
        "text": st.text(alphabet="abcxyz", max_size=4),
    }
    rows = [
        tuple(draw(value_strategies[tag]) for tag in tags) for _ in range(n_rows)
    ]
    return ResultTable.build(list(zip(names, tags)), rows)


@given(tables_strategy())
def test_prop_self_containment(t):
    assert containment_indicator(t, t) == 1


@given(tables_strategy(), st.randoms(use_true_random=False))
def test_prop_row_and_column_reorder_invariance(t, rng):
    rows = list(t.rows)
    rng.shuffle(rows)
    col_order = list(range(len(t.columns)))
    rng.shuffle(col_order)
    shuffled = ResultTable(
        columns=tuple(t.columns[j] for j in col_order),
        rows=tuple(tuple(row[j] for j in col_order) for row in rows),
    )
    assert containment_indicator(t, shuffled) == 1
    assert tables_equal_exact(t, shuffled)


@given(tables_strategy())
def test_prop_fresh_column_strictly_decreases_precision(t):
    assert column_precision(t, t) == 1.0
    widened = ResultTable(
        columns=t.columns + (Column("zz_fresh_col", "integer"),),
        rows=tuple(row + (0,) for row in t.rows),
    )
    assert column_precision(t, widened) < 1.0
    assert containment_indicator(t, widened) == 1


@given(tables_strategy())
def test_prop_restoring_missing_column_never_decreases_precision(t):
    if len(t.columns) < 2:
        return
    narrowed = ResultTable(
        columns=t.columns[:-1], rows=tuple(row[:-1] for row in t.rows)
    )
    before = column_precision(t, narrowed)
    assert column_precision(t, t) >= before


@given(tables_strategy())
def test_prop_containment_with_exact_columns_implies_equality(t):
    if containment_indicator(t, t) == 1:
        assert tables_equal_exact(t, t)


# --- exact-hash fast path vs the tolerant sort-and-scan ---

NAN = float("nan")

_cells = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([True, False, 0, 1, -0.0, 0.0, 1.0, 1.5, NAN, b"x", b"x ",
                     "a", "a ", "a  ", "", " ", "1"]),
    st.floats(allow_nan=True, allow_infinity=True),
    # a fresh NaN object per draw, unlike the shared NAN above
    st.builds(float, st.just("nan")),
    st.text(alphabet="ab ", max_size=3),
)


def _perturb(value, draw):
    """A cell near `value`: within or beyond tolerance, re-padded, or fresh."""
    kind = draw(st.sampled_from(["near", "far", "pad", "fresh"]))
    if kind == "fresh":
        return draw(_cells)
    if isinstance(value, str) and kind == "pad":
        return value.rstrip() + " " * draw(st.integers(0, 2))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        scale = 0.5e-6 if kind == "near" else 2e-6
        sign = draw(st.sampled_from([-1, 1]))
        return value * (1 + sign * scale) if value else sign * scale * 1e-3
    return value


@st.composite
def row_pairs(draw):
    """Left rows and a possibly perturbed permutation of them as right rows."""
    width = draw(st.integers(1, 3))
    left = draw(
        st.lists(st.tuples(*[_cells] * width), max_size=6)
    )
    right = list(left)
    draw(st.randoms(use_true_random=False)).shuffle(right)
    for i, row in enumerate(right):
        if draw(st.integers(0, 3)) == 0:
            j = draw(st.integers(0, width - 1))
            right[i] = row[:j] + (_perturb(row[j], draw),) + row[j + 1:]
    if draw(st.integers(0, 5)) == 0:
        right.append(draw(st.tuples(*[_cells] * width)))
    return left, right


@settings(max_examples=500)
@given(row_pairs())
def test_prop_row_comparisons_match_tolerant_oracle(pair):
    left, right = pair
    assert rows_equal(left, right) == tolerant_rows_equal(left, right)
    assert rows_equal(left, right, ordered=True) == tolerant_rows_equal(
        left, right, ordered=True
    )


def test_tolerant_equal_rows_left_after_exact_pairs_are_not_dropped():
    # Tolerance is not transitive: {x, x-0.9e} and {x, x+0.9e} are equal, but
    # the leftovers after removing the exact pair x are not.
    x, eps = 1.0, 1e-6
    left = [(x,), (x - 0.9 * eps,)]
    right = [(x,), (x + 0.9 * eps,)]
    assert rows_equal(left, right)
    assert not values_equal(x - 0.9 * eps, x + 0.9 * eps)


@pytest.fixture
def fallback_calls(monkeypatch):
    calls = []
    cells_equal = resultset.values_equal

    def spy(a, b):
        calls.append((a, b))
        return cells_equal(a, b)

    monkeypatch.setattr(resultset, "values_equal", spy)
    return calls


def _big_table(n=100_000):
    rows = [(i, i % 7, i * 0.25 + 0.1, None if i % 11 == 0 else f"name{i % 97} ")
            for i in range(n)]
    return table([("k", "integer"), ("line", "integer"), ("price", "float"),
                  ("name", "text")], rows)


def test_large_exactly_equal_tables_skip_tolerant_fallback(fallback_calls):
    t = _big_table()
    rows = list(t.rows)
    random.Random(3).shuffle(rows)
    order = [2, 0, 3, 1]
    reordered = ResultTable(
        columns=tuple(t.columns[j] for j in order),
        rows=tuple(tuple(row[j] for j in order) for row in rows),
    )
    widened = ResultTable(
        columns=reordered.columns + (Column("extra", "integer"),),
        rows=tuple(row + (0,) for row in reordered.rows),
    )
    assert containment_indicator(t, widened) == 1
    assert tables_equal_exact(t, reordered)
    assert containment_indicator(t, t, ordered=True) == 1
    assert tables_equal_exact(t, t, ordered=True)
    assert fallback_calls == []


def _with_cell(t, row, cell):
    rows = list(t.rows)
    rows[row] = rows[row][:2] + (cell, rows[row][3])
    return ResultTable(columns=t.columns, rows=tuple(rows))


def test_nan_cell_takes_fallback_and_reads_unequal(fallback_calls):
    odd = _with_cell(_big_table(1_000), 500, NAN)
    assert containment_indicator(odd, odd) == 0
    assert not tables_equal_exact(odd, odd)
    assert containment_indicator(odd, odd, ordered=True) == 0
    assert fallback_calls


def test_bytes_cells_compare_by_value_without_fallback(fallback_calls):
    t = _big_table(1_000)
    blob = _with_cell(t, 500, b"\x00\xffblob")
    assert containment_indicator(blob, blob) == 1
    assert tables_equal_exact(blob, blob)
    assert containment_indicator(blob, blob, ordered=True) == 1
    assert fallback_calls == []
    # a different BLOB, or the same bytes as text, is another value
    for other in (b"\x00\xffblob ", "\x00\xffblob", "00ff626c6f62"):
        assert containment_indicator(blob, _with_cell(t, 500, other)) == 0
    assert values_equal(b"\x00", b"\x00") and not values_equal(b"\x00", b"\x01")
    assert not values_equal(b"1", 1) and not values_equal(b"a", "a")
