"""The reference evaluator on the fourteen TPC-H queries: ORDER BY, LIMIT,
membership probes (LIKE) and decoding included, it agrees with the
hand-written references and with the engine's rows — exactly, except
float values within 1e-9 relative (the conformance comparison)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.relational import VoodooEngine
from repro.storage import ColumnStore
from repro.testing.conformance import compare_oracle
from repro.testing.oracle import Oracle, evaluate_with_scales
from repro.tpch import QUERIES, REFERENCES, build, generate

#: the tests/tpch fixture store (test_tpch.py) and the baselines' store
STORES = {"sf0.0075": 0.0075, "sf0.005": 0.005}


@pytest.fixture(scope="module", params=sorted(STORES))
def store(request):
    return generate(STORES[request.param], seed=7)


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


def _close(a, b, rtol=1e-9):
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))
    return a == b


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_oracle_agrees_with_engine_and_reference(store, engine, number):
    query = build(store, number)
    arrays, scales = evaluate_with_scales(store, query)
    assert compare_oracle(engine.query(query), arrays, scales) is None
    rows = [dict(zip(arrays, values)) for values in zip(*arrays.values())]
    reference = REFERENCES[number](store)
    if isinstance(reference, float):
        # one row holding the sum, or none when no row qualifies (an ε
        # sum, as the engine's rows above) and the reference sums nothing
        assert rows or reference == 0.0
        reference = [{query.select[0]: reference}] if rows else []
    assert len(rows) == len(reference)
    for got, expected in zip(rows, reference):
        for key, value in expected.items():
            assert _close(got[key], value), (number, key, got[key], value)


def test_unknown_plan_node_rejected():
    class Weird:
        pass

    with pytest.raises(ExecutionError):
        Oracle(ColumnStore()).plan(Weird())


def _loop_fold(fn: str, vals: np.ndarray, mask: np.ndarray):
    """One group's (value, present) the way the oracle folded before its
    folds went segment-wise: one NumPy call per group."""
    picked = vals[mask]
    present = bool(mask.any())
    if fn == "count":
        return np.int64(mask.sum()), present
    if fn in ("sum", "avg"):
        total = picked.sum() if vals.dtype.kind == "f" else picked.astype(np.int64).sum()
        if fn == "sum":
            return total if present else total.dtype.type(0), present
        with np.errstate(all="ignore"):
            return (np.float64(total) / mask.sum() if present else 0.0), present
    reducer = np.min if fn == "min" else np.max
    return (reducer(picked) if present else vals.dtype.type(0)), present


@pytest.mark.parametrize("dtype", ["int32", "int64", "uint8", "float64", "bool"])
def test_grouped_folds_match_the_per_group_loop(dtype):
    """The segment-wise folds (``reduceat``; float sums one pairwise
    ``np.sum`` per group) give exactly what a per-group loop gives:
    values, dtypes, presence and float-sum scales, ε rows and groups with
    no present row included."""
    from repro.relational.algebra import AggSpec, GroupBy, Scan
    from repro.relational.expressions import Col

    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 9, 60)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n = int(bounds[-1])
    vals = (rng.normal(0, 100, n) if dtype == "float64" else rng.integers(0, 200, n)).astype(dtype)
    if dtype == "float64":
        vals[rng.random(n) < 0.05] = np.nan
    mask = rng.random(n) < 0.7
    mask[bounds[3]:bounds[4]] = False  # a group whose every row is ε
    rows = rng.permutation(n)  # groups are runs of these rows
    fns = ("count", "sum", "avg", "min", "max")
    plan = GroupBy(Scan("t"), keys=[], aggs={fn: AggSpec(fn, Col("x")) for fn in fns})
    oracle = Oracle(ColumnStore())
    inputs = {fn: (vals, mask) for fn in fns}
    out = oracle._agg_columns(plan, inputs, rows, bounds)
    for fn in fns:
        expected = [_loop_fold(fn, vals[rows[lo:hi]], mask[rows[lo:hi]])
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
        got_vals, got_present = out[fn]
        want_vals = np.array([value for value, _ in expected])
        assert got_vals.dtype == want_vals.dtype, fn
        assert np.array_equal(got_vals, want_vals, equal_nan=True), fn
        assert got_present.tolist() == [present for _, present in expected], fn
    if dtype == "float64":
        scales = [Oracle._sum_scale(vals[rows[lo:hi]], mask[rows[lo:hi]])
                  for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert oracle.scales["sum"].tolist() == scales
