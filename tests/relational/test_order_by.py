"""ORDER BY post-processing: every direction mix, every column dtype.

The reference is a plain Python sort per key (stable, last key first),
which shares nothing with ``VoodooEngine._sort_order``.
"""

import numpy as np
import pytest

from repro.relational import EngineConfig, Query, Scan, VoodooEngine
from repro.storage import ColumnStore, Table

INT64_MIN = np.iinfo(np.int64).min


def reference_order(arrays: dict, order_by) -> list[int]:
    rows = list(range(len(next(iter(arrays.values())))))
    for name, desc in reversed(order_by):
        # reverse=True keeps equal keys in their original order
        rows.sort(key=lambda i: arrays[name][i].item(), reverse=desc)
    return rows


def order(arrays: dict, order_by) -> list[int]:
    query = Query(plan=Scan("t"), select=list(arrays), order_by=list(order_by))
    return VoodooEngine._sort_order(query, arrays).tolist()


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(11)
    n = 200
    return {
        "a": rng.integers(0, 5, n).astype(np.int64),
        "b": rng.integers(0, 2, n).astype(bool),
        "u": rng.integers(0, 4, n).astype(np.uint32),
        "m": rng.choice(np.array([INT64_MIN, -1, 0, 7], dtype=np.int64), n),
        "f": np.round(rng.random(n), 1),
    }


class TestSortOrder:
    @pytest.mark.parametrize("order_by", [
        [("a", False), ("b", True)],       # the reported case: a came back descending
        [("a", True), ("b", False)],
        [("b", True), ("a", False)],
        [("b", True), ("u", True), ("f", False)],
        [("u", True)],
        [("u", True), ("a", True)],
        [("m", True), ("a", False)],
        [("m", False), ("b", True)],
        [("f", True), ("m", True), ("u", False)],
    ])
    def test_matches_a_stable_python_sort(self, columns, order_by):
        assert order(columns, order_by) == reference_order(columns, order_by)

    def test_mixed_directions_keep_the_ascending_key_ascending(self):
        arrays = {"a": np.array([2, 1, 2, 1, 3]), "b": np.array([True, False, False, True, True])}
        got = order(arrays, [("a", False), ("b", True)])
        assert arrays["a"][got].tolist() == [1, 1, 2, 2, 3]
        assert arrays["b"][got].tolist() == [True, False, True, False, True]

    def test_unsigned_desc_puts_zero_last(self):
        arrays = {"u": np.array([0, 3, 1, 0, 2], dtype=np.uint64)}
        assert arrays["u"][order(arrays, [("u", True)])].tolist() == [3, 2, 1, 0, 0]

    def test_int64_min_desc_sorts_last(self):
        arrays = {"m": np.array([5, INT64_MIN, -3, INT64_MIN, 0], dtype=np.int64)}
        assert arrays["m"][order(arrays, [("m", True)])].tolist() == [
            5, 0, -3, INT64_MIN, INT64_MIN]

    def test_ties_keep_result_order_in_both_directions(self):
        arrays = {"k": np.array([1, 0, 1, 0, 1]), "row": np.arange(5)}
        assert order(arrays, [("k", False)]) == [1, 3, 0, 2, 4]
        assert order(arrays, [("k", True)]) == [0, 2, 4, 1, 3]

    def test_bool_desc_alone(self):
        arrays = {"b": np.array([False, True, False, True])}
        assert order(arrays, [("b", True)]) == [1, 3, 0, 2]

    def test_nan_ranks_largest_in_both_directions(self):
        arrays = {"f": np.array([1.0, np.nan, -2.0])}
        assert order(arrays, [("f", False)]) == [2, 0, 1]
        assert order(arrays, [("f", True)]) == [1, 0, 2]

    def test_no_order_by(self, columns):
        assert VoodooEngine._sort_order(Query(plan=Scan("t"), select=["a"]), columns) is None


def test_engine_orders_bool_and_uint_columns_end_to_end(columns):
    store = ColumnStore()
    store.add(Table.from_arrays("t", **columns))
    order_by = [("a", False), ("b", True), ("u", True)]
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        table = engine.query(Query(plan=Scan("t"), select=list(columns), order_by=order_by))
    expected = reference_order(columns, order_by)
    for name, values in columns.items():
        np.testing.assert_array_equal(table.column(name), values[expected])


@pytest.mark.parametrize("limit", [-1, -10, 2.5, True, np.int64(3), "3"])
def test_a_limit_that_is_not_a_non_negative_int_is_refused(limit):
    """``arr[:-1]`` would drop the last row instead of failing: a negative
    (or non-``int``) limit never reaches the extractor."""
    from repro.errors import TranslationError

    with pytest.raises(TranslationError, match="limit"):
        Query(plan=Scan("t"), select=["a"], limit=limit)


@pytest.mark.parametrize("limit", [0, 3, 10, 50])
def test_limit_keeps_the_first_rows(columns, limit):
    store = ColumnStore()
    store.add(Table.from_arrays("t", a=columns["a"][:10]))
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        table = engine.query(Query(plan=Scan("t"), select=["a"], limit=limit))
    np.testing.assert_array_equal(table.column("a"), columns["a"][:10][:limit])


@pytest.mark.parametrize("text", ["-1", "2.5", ":n", "k", ""])
def test_sql_limit_takes_a_non_negative_integer_literal(text):
    from repro.errors import SQLError
    from repro.relational import parse_sql

    store = ColumnStore()
    store.add(Table.from_arrays("t", k=np.arange(10, dtype=np.int64)))
    with pytest.raises(SQLError):
        parse_sql(f"select k from t limit {text}", store)
    assert parse_sql("select k from t limit 0", store).limit == 0
