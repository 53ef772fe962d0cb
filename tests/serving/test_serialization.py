"""``table_to_json`` converts one column at a time; its wire text must be
the one the per-cell conversion it replaced gives, for every column type
a result can hold."""

import json

import numpy as np
import pytest
from perfbench.data import serving_store
from perfbench.serving import WIDE_SQL

from repro.relational import EngineConfig, VoodooEngine
from repro.relational.engine import ResultTable
from repro.serving import table_to_json


def _cell(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def per_cell_table_to_json(table, elapsed_ms: float) -> dict:
    """The reference: one NumPy scalar converted at a time."""
    columns = list(table.columns)
    arrays = [table.arrays[c] for c in columns]
    return {
        "columns": columns,
        "rows": [[_cell(a[i]) for a in arrays] for i in range(len(table))],
        "row_count": len(table),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def assert_same_wire(table: ResultTable, elapsed_ms: float = 1.23456) -> None:
    expected = per_cell_table_to_json(table, elapsed_ms)
    got = table_to_json(table, elapsed_ms)
    assert json.dumps(got) == json.dumps(expected)
    assert got.keys() == expected.keys()
    assert all(type(row) is list for row in got["rows"])


def table(**arrays) -> ResultTable:
    return ResultTable(columns=list(arrays), arrays=dict(arrays))


I64 = np.iinfo(np.int64)

CASES = {
    "int64": np.array([0, -3, 7, 42], dtype=np.int64),
    "uint8": np.array([0, 1, 200, 255], dtype=np.uint8),
    "uint64": np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
    "int32": np.array([-(2**31), 0, 5, 2**31 - 1], dtype=np.int32),
    "float32": np.array([0.1, -2.5, 3.4e38, 1e-45], dtype=np.float32),
    "float64": np.array([0.1, 1 / 3, -1e308, 5e-324]),
    "float16": np.array([0.1, -2.0, 65504.0, 6e-8], dtype=np.float16),
    "longdouble": np.array([0.1, -2.0, 1e10, 0.0], dtype=np.longdouble),
    "bool": np.array([True, False, False, True]),
    "strings": np.array(["MAIL", "AIR", "", "naïve \"q\""], dtype=object),
    "unicode": np.array(["a", "bb", "", "ccc"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_column_of_each_type(name):
    assert_same_wire(table(**{name: CASES[name]}))


def test_all_types_side_by_side():
    assert_same_wire(table(**CASES))


def test_special_floats_and_integer_limits():
    assert_same_wire(table(
        f64=np.array([np.nan, np.inf, -np.inf, -0.0, 0.0]),
        f32=np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=np.float32),
        i64=np.array([I64.min, I64.max, -1, 0, 1], dtype=np.int64),
        mixed=np.array(["x", None, 3, np.int64(4), np.float32(0.5)], dtype=object),
    ))


def test_zero_rows():
    assert_same_wire(table(
        k=np.array([], dtype=np.int64),
        v=np.array([], dtype=np.float64),
        s=np.array([], dtype=object),
    ))
    assert table_to_json(table(k=np.array([], dtype=np.int64)), 0.0)["rows"] == []


def test_zero_columns():
    assert_same_wire(ResultTable(columns=[], arrays={}))
    # no selected column over a non-empty result still yields one empty
    # row per result row
    assert_same_wire(ResultTable(columns=[], arrays={"k": np.arange(3)}))


def test_readonly_and_strided_columns():
    base = np.arange(12, dtype=np.int64)
    base.setflags(write=False)
    assert_same_wire(table(k=base[::3], v=np.linspace(0, 1, 8)[::2]))


def test_the_wide_result_table():
    """The serving benchmark's 1 200-row two-key group-by."""
    store = serving_store(20_000, seed=1)
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        wide = engine.query(WIDE_SQL)
    assert len(wide) == 1200
    assert {wide.arrays[c].dtype.kind for c in wide.columns} == {"i", "f"}
    assert_same_wire(wide, elapsed_ms=7.123456)
