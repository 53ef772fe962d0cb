"""Untraced runs are bit-identical to the interpreter.

The node runner (:mod:`repro.compiler.runner` over
:mod:`repro.compiler.rt_fast`) executes raw-array kernels with
uniform-run fold shortcuts and shared masks; hypothesis builds the same
adversarial program shapes as ``test_agreement`` and every output vector
must match the interpreter exactly — values, dtypes and ε masks — and
untraced runs produce no events.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_program
from repro.compiler.rt_fast import FusedVal
from repro.core import Builder, StructuredVector
from repro.hardware import TraceRecorder
from repro.interpreter import Interpreter

FUSED_OPTIONS = [
    CompilerOptions(),
    CompilerOptions(selection="branch-free"),
    CompilerOptions(virtual_scatter=False),
    CompilerOptions(slot_suppression=False),
    CompilerOptions(device="gpu"),
]


def assert_fused_identical(program, store):
    expected = Interpreter(store).run(program)
    for opts in FUSED_OPTIONS:
        compiled = compile_program(program, opts)
        got, trace = compiled.run(store, collect_trace=False)
        assert len(trace) == 0
        assert set(expected) == set(got)
        for name, exp_vec in expected.items():
            got_vec = got[name]
            assert isinstance(got_vec, StructuredVector)
            assert len(exp_vec) == len(got_vec), (name, opts)
            assert set(exp_vec.paths) == set(got_vec.paths), (name, opts)
            for path in exp_vec.paths:
                em, gm = exp_vec.present(path), got_vec.present(path)
                assert (em == gm).all(), (name, str(path), opts, "masks differ")
                ev, gv = exp_vec.attr(path)[em], got_vec.attr(path)[em]
                assert ev.dtype == gv.dtype, (name, str(path), opts)
                assert np.array_equal(ev, gv), (name, str(path), opts)


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


@given(groups_st, values_st, st.integers(1, 16))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fused_chunked_fold_pipeline(groups, values, grain):
    """Predicate -> chunk-controlled select -> gather -> two-level fold."""
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
    assert_fused_identical(b.build(total=total, positions=positions), store)


@given(groups_st, values_st)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fused_grouped_aggregation(groups, values):
    """Partition -> virtual scatter -> per-group folds (Figures 10/11)."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pivots = b.range(5, out=".pv")
    positions = b.partition(b.project(t, ".g"), pivots, out=".pos")
    scattered = b.scatter(t, positions)
    gsum = b.fold_sum(scattered, agg_kp=".f", fold_kp=".g", out=".sum")
    gmax = b.fold_max(scattered, agg_kp=".v", fold_kp=".g", out=".max")
    gcnt = b.fold_count(scattered, counted_kp=".v", fold_kp=".g", out=".cnt")
    assert_fused_identical(b.build(s=gsum, m=gmax, c=gcnt), store)


@given(groups_st, values_st, st.integers(1, 8))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fused_map_chains_and_scans(groups, values, grain):
    """Raw-inlined arithmetic chains, casts and scans over masked data."""
    store = make_store(groups, values)
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pred = b.less_equal(t.project(".v"), b.constant(10), out=".sel")
    ctrl = b.divide(b.range(t), b.constant(grain), out=".chunk")
    zipped = b.zip(b.zip(t, pred), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(t, positions, pos_kp=".pos")
    # chain over masked gathered data
    scaled = b.multiply(payload.project(".f"), b.constant(3.0, dtype="float64"),
                        out=".x")
    shifted = b.subtract(scaled, b.constant(1.5, dtype="float64"), out=".y")
    negated = b.negate(shifted, out=".z")
    casted = b.cast(negated, "float32", out=".c")
    scan = b.fold_scan(b.zip(b.project(casted, ".c", out=".c"), ctrl),
                       s_kp=".c", fold_kp=".chunk", out=".scan")
    total = b.fold_count(b.zip(payload.project(".v"), ctrl),
                         counted_kp=".v", fold_kp=".chunk", out=".n")
    assert_fused_identical(b.build(scan=scan, n=total, c=casted), store)


def test_untraced_run_matches_the_traced_runtime_bit_for_bit():
    """Whatever ``fuse`` says, an untraced run (the node runner) returns
    the traced runtime's outputs — and the traced run still records."""
    rng = np.random.default_rng(11)
    store = {"t": StructuredVector.from_arrays(
        v=rng.integers(-9, 9, 300), f=rng.random(300)
    )}
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    pivots = b.range(6, out=".pv")
    shifted = b.add(t.project(".v"), b.constant(9), out=".g")
    keyed = b.zip(t, shifted)
    positions = b.partition(b.project(keyed, ".g"), pivots, out=".pos")
    scattered = b.scatter(keyed, positions)
    gsum = b.fold_sum(scattered, agg_kp=".f", fold_kp=".g", out=".s")
    program = b.build(s=gsum)

    compiled = compile_program(program, CompilerOptions(fuse=False))
    traced, trace = compiled.run(store)
    untraced, empty = compiled.run(store, collect_trace=False)
    assert len(trace) > 0 and len(empty) == 0
    for name in traced:
        for path in traced[name].paths:
            em = traced[name].present(path)
            assert (em == untraced[name].present(path)).all()
            assert np.array_equal(traced[name].attr(path)[em],
                                  untraced[name].attr(path)[em])


def test_untraced_runs_use_the_runner_regardless_of_fuse():
    """``fuse`` shapes the simulated kernels only: every run executes on
    the runner and generates nothing, with it on or off, and ``native``
    means native with it on or off."""
    store = {"t": StructuredVector.from_arrays(v=np.arange(4))}
    b = Builder({"t": store["t"].schema})
    out = b.add(b.load("t").project(".v"), b.constant(1), out=".r")
    program = b.build(out=out)
    fused = compile_program(program, CompilerOptions())
    unfused = compile_program(program, CompilerOptions(fuse=False))
    a, _ = fused.run(store, collect_trace=False)
    c, _ = unfused.run(store, collect_trace=False)
    assert np.array_equal(a["out"].attr(".r"), c["out"].attr(".r"))
    e, trace = unfused.run(store)  # a traced run prices one kernel per operator
    assert len(trace) == unfused.kernel_count() == 2 and fused.kernel_count() == 1
    assert np.array_equal(a["out"].attr(".r"), e["out"].attr(".r"))
    native = compile_program(program, CompilerOptions(native=True, fuse=False))
    assert native.native
    d, _ = native.run(store, collect_trace=False)
    assert np.array_equal(a["out"].attr(".r"), d["out"].attr(".r"))
    for compiled in (fused, unfused, native):
        assert "source" not in vars(compiled)


def test_a_runtime_always_records():
    """The recorder has no off switch: untraced runs never build one."""
    with pytest.raises(TypeError):
        TraceRecorder(enabled=False)


def test_fused_val_scalar_and_paths():
    val = FusedVal(1, {})
    assert val.paths() == ()
    assert val.scalar(None) is None
