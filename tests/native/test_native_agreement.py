"""The native tier is bit-identical to the interpreter — with or
without a C compiler on the machine.

Hypothesis builds the same adversarial map/filter/fold shapes as the
fused-path tests plus randomized arithmetic chains; every output of a
``CompilerOptions(native=True)`` run must match the interpreter exactly
(values, dtypes, ε masks).  None of these tests require a compiler:
graceful degradation to the fused NumPy kernels is part of the
contract.  One compiler-gated test proves the C fold kernel actually
engages.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, StructuredVector
from repro.interpreter import Interpreter
from repro.native import have_compiler, snapshot


def assert_native_identical(program, store):
    expected = Interpreter(store).run(program)
    compiled = compile_program(program, CompilerOptions(native=True))
    assert compiled.options.native
    got, trace = compiled.run(store, collect_trace=False)
    assert len(trace) == 0
    assert set(expected) == set(got)
    for name, exp_vec in expected.items():
        got_vec = got[name]
        assert isinstance(got_vec, StructuredVector)
        assert len(exp_vec) == len(got_vec), name
        assert set(exp_vec.paths) == set(got_vec.paths), name
        for path in exp_vec.paths:
            em, gm = exp_vec.present(path), got_vec.present(path)
            assert (em == gm).all(), (name, str(path), "masks differ")
            ev, gv = exp_vec.attr(path)[em], got_vec.attr(path)[em]
            assert ev.dtype == gv.dtype, (name, str(path))
            assert np.array_equal(ev, gv), (name, str(path))


def make_store(groups, values):
    n = len(groups)
    return {
        "t": StructuredVector(
            n,
            {".g": np.asarray(groups, dtype=np.int64),
             ".v": np.asarray(values[:n], dtype=np.int64),
             ".f": (np.asarray(values[:n], dtype=np.float64) * 0.25)},
        )
    }


groups_st = st.lists(st.integers(0, 4), min_size=1, max_size=80)
values_st = st.lists(st.integers(-50, 50), min_size=80, max_size=80)

#: binary ops a random chain draws from (Divide/Modulo: NumPy's zero
#: guard and flooring, int and float)
CHAIN_OPS = ("add", "subtract", "multiply", "divide", "modulo")


@given(groups_st, values_st, st.integers(1, 16))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_native_chunked_fold_pipeline(groups, values, grain):
    """Predicate -> chunk-controlled select -> gather -> two-level fold
    (per-chunk float sums: the C kernel's segments)."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pred = b.greater(t.project(".v"), b.constant(0), out=".sel")
    ctrl = b.divide(b.range(t), b.constant(grain), out=".chunk")
    zipped = b.zip(b.zip(t, pred), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(t, positions, pos_kp=".pos")
    partial = b.fold_sum(b.zip(payload, ctrl), agg_kp=".f", fold_kp=".chunk", out=".p")
    total = b.fold_sum(partial, agg_kp=".p", out=".total")
    assert_native_identical(b.build(total=total, positions=positions), store)


@given(groups_st, values_st)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_native_grouped_aggregation(groups, values):
    """Partition -> virtual scatter -> per-group sum/max/count folds."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pivots = b.range(5, out=".pv")
    positions = b.partition(b.project(t, ".g"), pivots, out=".pos")
    scattered = b.scatter(t, positions)
    gsum = b.fold_sum(scattered, agg_kp=".f", fold_kp=".g", out=".sum")
    gmax = b.fold_max(scattered, agg_kp=".v", fold_kp=".g", out=".max")
    gcnt = b.fold_count(scattered, counted_kp=".v", fold_kp=".g", out=".cnt")
    assert_native_identical(b.build(s=gsum, m=gmax, c=gcnt), store)


@given(groups_st, values_st,
       st.lists(st.sampled_from(CHAIN_OPS), min_size=2, max_size=6),
       st.integers(-7, 7))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_native_random_arithmetic_chains(groups, values, fns, k):
    """Random op sequences over int and float columns: wrapping
    arithmetic, zero-guarded floored Divide/Modulo, mixed promotion."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    iv = b.add(t.project(".v"), b.constant(1), out=".i0")
    fv = b.multiply(t.project(".f"), b.constant(2.0, dtype="float64"), out=".f0")
    for j, fn in enumerate(fns):
        iv = getattr(b, fn)(iv, b.constant(k or 3), out=f".i{j + 1}")
        fv = getattr(b, fn)(fv, b.constant(float(k or 3), dtype="float64"),
                            out=f".f{j + 1}")
    mixed = b.less(b.cast(iv, "float64", out=".ic"), fv, out=".sel")
    keep = b.logical_or(mixed, b.equals(t.project(".g"), b.constant(0),
                                        out=".z"), out=".keep")
    total = b.fold_sum(b.zip(t, keep).project(".v", out=".v"), agg_kp=".v",
                       out=".n")
    assert_native_identical(b.build(i=iv, f=fv, keep=keep, total=total), store)


@given(groups_st, values_st, st.integers(1, 8))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_native_masked_chains_and_scans(groups, values, grain):
    """Maps over ε-masked gathered data, casts, scans on the native
    tier: every mask must still match the interpreter bit for bit."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pred = b.less_equal(t.project(".v"), b.constant(10), out=".sel")
    ctrl = b.divide(b.range(t), b.constant(grain), out=".chunk")
    zipped = b.zip(b.zip(t, pred), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(t, positions, pos_kp=".pos")
    scaled = b.multiply(payload.project(".f"), b.constant(3.0, dtype="float64"),
                        out=".x")
    shifted = b.subtract(scaled, b.constant(1.5, dtype="float64"), out=".y")
    negated = b.negate(shifted, out=".z")
    casted = b.cast(negated, "float32", out=".c")
    scan = b.fold_scan(b.zip(b.project(casted, ".c", out=".c"), ctrl),
                       s_kp=".c", fold_kp=".chunk", out=".scan")
    total = b.fold_count(b.zip(payload.project(".v"), ctrl),
                         counted_kp=".v", fold_kp=".chunk", out=".n")
    assert_native_identical(b.build(scan=scan, n=total, c=casted), store)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler on this host")
def test_native_fold_kernel_actually_engages():
    """With a compiler present the C float sum runs — this is not a test
    of the fallback path wearing a native label — and an integer sum,
    which it does not serve, stays with NumPy."""
    rng = np.random.default_rng(5)
    store = make_store(rng.integers(0, 5, 128).tolist(),
                       rng.integers(-50, 50, 128).tolist())
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    ctrl = b.divide(b.range(t), b.constant(16), out=".chunk")
    floats = b.fold_sum(b.zip(t, ctrl), agg_kp=".f", fold_kp=".chunk", out=".fs")
    ints = b.fold_sum(t, agg_kp=".v", out=".vs")
    before = snapshot()
    assert_native_identical(b.build(floats=floats), store)
    middle = snapshot()
    assert_native_identical(b.build(ints=ints), store)
    after = snapshot()
    assert middle["fold_calls"] > before["fold_calls"]
    assert after["fold_calls"] == middle["fold_calls"]
    assert after["chain_calls"] == 0  # no map runs in C


#: what a float sum must add exactly as NumPy does: signed zeros, NaN,
#: ±Inf, overflow to Inf and cancellation
SUMMANDS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1e-310]),
)


@pytest.mark.skipif(not have_compiler(), reason="no C compiler on this host")
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@given(values=st.lists(SUMMANDS, min_size=1, max_size=200),
       cuts=st.lists(st.integers(0, 199), max_size=12),
       run_length=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_the_kernel_adds_what_numpy_adds(dtype, values, cuts, run_length):
    """The C float sum against the NumPy kernel it replaces, bit for bit
    (the bytes, so a -0.0 or a NaN sign counts): segments from arbitrary
    cut points, and uniform runs of every length."""
    from repro.compiler import kernels
    from repro.native import runner as native_runner

    with np.errstate(over="ignore"):
        array = np.asarray(values, dtype=dtype)
    k = len(array)
    starts = np.unique(np.asarray([0, *cuts], dtype=np.int64).clip(0, k - 1))
    before = snapshot()["fold_calls"]
    pairs = [
        (native_runner.fold_aggregate_segments("sum", array, starts),
         kernels.fold_aggregate_segments("sum", array, starts)),
        (native_runner.fold_aggregate_uniform("sum", array, run_length, k),
         kernels.fold_aggregate_uniform("sum", array, run_length, k)),
    ]
    assert snapshot()["fold_calls"] == before + 2
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
