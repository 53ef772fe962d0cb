"""The ``ExecutionOptions.parallel_grain`` knob (regression: the grain
was silently ignored by the fused-parallel path — chunking always split
one chunk per worker, so on a single effective core (cpu_count==1, where
chunks execute inline) no grain sweep changed anything at all).

The contract under test: the grain controls chunk boundaries regardless
of how many cores execute the chunks, every boundary stays aligned to
the control-run alignment, and FoldSelect hit positions are rebased to
global rows identically at every grain — bit-identity with sequential
execution is grain-independent.
"""

import numpy as np
import pytest

from repro.compiler import ExecutionOptions
from repro.core import Builder, Schema, StructuredVector
from repro.errors import CompilationError
from repro.parallel import ParallelInterpreter
from repro.parallel.planner import chunk_ranges
from repro.relational import EngineConfig, VoodooEngine
from repro.tpch import build, generate


def assert_bit_identical(expected: dict, got: dict, context=()) -> None:
    assert expected.keys() == got.keys()
    for name in expected:
        a, b = expected[name], got[name]
        assert len(a) == len(b), (*context, name)
        assert set(a.paths) == set(b.paths), (*context, name)
        for p in a.paths:
            assert a.attr(p).dtype == b.attr(p).dtype, (*context, name, str(p))
            assert np.array_equal(a.attr(p), b.attr(p)), (*context, name, str(p))
            assert np.array_equal(a.present(p), b.present(p)), (*context, name, str(p))


# ----------------------------------------------------- chunk_ranges math


class TestChunkRanges:
    def test_grain_produces_more_chunks_than_workers(self):
        ranges = chunk_ranges(10_000, workers=2, align=1, grain=1000)
        assert len(ranges) == 10
        assert ranges[0] == (0, 1000)
        assert ranges[-1][1] == 10_000

    def test_grain_rounds_down_to_alignment_units(self):
        # align=64, grain=100 -> one aligned unit (64 rows) per chunk
        ranges = chunk_ranges(640, workers=2, align=64, grain=100)
        assert all(lo % 64 == 0 for lo, _ in ranges)
        assert len(ranges) == 10

    def test_grain_below_alignment_never_splits_a_run(self):
        ranges = chunk_ranges(1000, workers=4, align=256, grain=1)
        assert all(lo % 256 == 0 for lo, _ in ranges)
        assert ranges[-1][1] == 1000

    def test_grain_none_keeps_one_chunk_per_worker(self):
        assert len(chunk_ranges(10_000, workers=4, align=1, grain=None)) == 4

    def test_coarse_grain_single_chunk(self):
        assert chunk_ranges(5000, workers=4, align=1, grain=100_000) == [(0, 5000)]

    def test_ranges_cover_exactly(self):
        for grain in (1, 7, 100, 4096):
            ranges = chunk_ranges(12_345, workers=3, align=8, grain=grain)
            assert ranges[0][0] == 0 and ranges[-1][1] == 12_345
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo


def test_parallel_grain_validation():
    with pytest.raises(CompilationError, match="parallel_grain"):
        ExecutionOptions(parallel_grain=0)
    assert ExecutionOptions(parallel_grain=256).parallel_grain == 256
    assert ExecutionOptions().parallel_grain is None


# ----------------------------------------------------- FoldSelect rebasing


def selection_program(n: int, ctrl_grain: int = 512):
    """Filter -> FoldSelect -> Gather: the shape whose hit positions must
    be rebased by the chunk origin."""
    b = Builder({"facts": Schema({".v": "int64", ".w": "int64"})})
    facts = b.load("facts")
    pred = b.less_equal(facts.project(".w"), b.constant(60), out=".sel")
    ctrl = b.divide(b.range(facts), b.constant(ctrl_grain), out=".chunk")
    chained = b.zip(b.zip(facts, pred), ctrl)
    positions = b.fold_select(chained, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    kept = b.gather(facts, positions, pos_kp=".pos")
    partial = b.fold_sum(b.zip(kept, ctrl), agg_kp=".v", fold_kp=".chunk", out=".part")
    return b.build(positions=positions, kept=kept, partial=partial)


def _store(n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    return {
        "facts": StructuredVector(
            n,
            {
                ".v": rng.integers(0, 1000, n).astype(np.int64),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }


@pytest.mark.parametrize("grain", (512, 1024, 4096))
def test_inline_chunks_honor_grain_and_rebase_foldselect(grain):
    """The regression scenario: workers > 1 on a host where chunks execute
    inline (cpu_count==1 containers; forced via _effective here so the
    test also bites on multicore machines).  The grain must change the
    chunk plan AND keep FoldSelect hit positions globally rebased."""
    n = 20_000
    store = _store(n)
    program = selection_program(n)
    from repro.interpreter import Interpreter

    seq = Interpreter(store).run(program)
    with ParallelInterpreter(store, workers=2, grain=grain) as runner:
        runner._effective = 1  # chunks execute inline, as on cpu_count==1
        par = runner.run(program)
        plan = runner.last_plan
    assert plan is not None and plan.parallel
    # the grain, not the worker count, sets the number of chunks
    expected_chunks = len(chunk_ranges(n, 2, plan.align, grain))
    assert len(plan.chunks) == expected_chunks
    assert len(plan.chunks) > 2 or grain >= n // 2
    assert_bit_identical(seq, par, context=("grain", grain))


def test_grain_change_replans_same_program():
    """The executor's plan memo must not serve a stale chunking after the
    grain changes (same program object, same storage)."""
    n = 8192
    store = _store(n)
    program = selection_program(n)
    with ParallelInterpreter(store, workers=2, grain=1024) as runner:
        runner.run(program)
        fine = len(runner.last_plan.chunks)
        runner.grain = 4096
        runner.run(program)
        coarse = len(runner.last_plan.chunks)
    assert fine > coarse


# ----------------------------------------------------- engine threading


def test_engine_threads_parallel_grain_to_backend():
    store = generate(0.005, seed=7)
    execution = ExecutionOptions(workers=2, parallel_grain=700)
    with VoodooEngine(store) as reference, \
            VoodooEngine(store, config=EngineConfig(execution=execution)) as tuned:
        query = build(store, 6)
        expected = reference.query(query)
        result = tuned.execute(build(store, 6))
        got = result.table
        # the grain is an argument of the run, not state of the backend
        backend = tuned._parallel_backend(2)
        assert backend.grain is None
        assert ("partition_plan", 2, 700) in result.compiled.program.memo
        plan = backend.last_plan
        assert plan is not None and plan.parallel
        assert len(plan.chunks) > 2  # finer than one-chunk-per-worker
        assert got.columns == expected.columns
        for column in expected.columns:
            assert np.array_equal(got.column(column), expected.column(column))


def test_engine_plan_cache_invalidated_by_grain():
    """parallel_grain is part of ExecutionOptions, so the engine's plan
    cache key changes with it — no stale plan reuse across grains."""
    store = generate(0.002, seed=3)
    with VoodooEngine(store, config=EngineConfig(execution=ExecutionOptions(workers=2))) as a:
        a.execute(build(store, 6))
        key_default = a.cache_key(build(store, 6))
    grained = EngineConfig(execution=ExecutionOptions(workers=2, parallel_grain=512))
    with VoodooEngine(store, config=grained) as b:
        b.execute(build(store, 6))
        key_grained = b.cache_key(build(store, 6))
    assert key_default != key_grained
