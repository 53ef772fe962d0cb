"""One chunk per worker, on the pool: the one parallel schedule.

A partition plan cuts the driving vector into ``workers`` chunks (fewer
when there are fewer aligned control runs), never splitting a run.  At
or above the pool crossover, with a second core present, those chunks
run on the worker pool; otherwise the program runs whole.  These tests
force the pool with :func:`repro.testing.crossover` ``(0)`` and vary
``workers``: every boundary stays aligned, ``FoldSelect`` hit positions
are rebased to global rows, and the result is the sequential one bit
for bit at every worker count.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import ExecutionOptions
from repro.core import Builder, Schema, StructuredVector
from repro.errors import CompilationError
from repro.interpreter import Interpreter
from repro.parallel import ParallelInterpreter
from repro.parallel.planner import chunk_ranges
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
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
    def test_one_chunk_per_worker(self):
        assert chunk_ranges(10_000, workers=4, align=1) == [
            (0, 2500), (2500, 5000), (5000, 7500), (7500, 10_000)]

    def test_boundaries_are_whole_alignment_units(self):
        ranges = chunk_ranges(640, workers=3, align=64)
        assert len(ranges) == 3
        assert all(lo % 64 == 0 for lo, _ in ranges)

    def test_fewer_runs_than_workers_give_fewer_chunks(self):
        ranges = chunk_ranges(1000, workers=8, align=256)
        assert len(ranges) == 4
        assert all(lo % 256 == 0 for lo, _ in ranges)
        assert ranges[-1][1] == 1000

    def test_one_worker_or_no_rows(self):
        assert chunk_ranges(5000, workers=1) == [(0, 5000)]
        assert chunk_ranges(0, workers=4) == []

    def test_a_single_run_is_one_chunk(self):
        assert chunk_ranges(5000, workers=4, align=100_000) == [(0, 5000)]

    def test_ranges_cover_exactly(self):
        for workers in (2, 3, 4, 7):
            ranges = chunk_ranges(12_345, workers=workers, align=8)
            assert len(ranges) == workers
            assert ranges[0][0] == 0 and ranges[-1][1] == 12_345
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo


def test_execution_options_hold_only_the_worker_count():
    assert [f.name for f in dataclasses.fields(ExecutionOptions)] == ["workers"]
    with pytest.raises(CompilationError, match="workers"):
        ExecutionOptions(workers=0)
    with pytest.raises(TypeError, match="parallel_grain"):
        ExecutionOptions(workers=2, parallel_grain=4096)


# ----------------------------------------------------- FoldSelect rebasing


def selection_program(ctrl_grain: int = 512):
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


@pytest.mark.parametrize("workers", (2, 3, 4))
def test_pooled_chunks_follow_workers_and_rebase_foldselect(workers):
    """Forced onto the pool (on any host), *workers* sets the number of
    chunks, and FoldSelect hit positions stay globally rebased."""
    n = 20_000
    store = _store(n)
    program = selection_program()
    seq = Interpreter(store).run(program)
    with crossover(0), ParallelInterpreter(store, workers=workers) as runner:
        runner._effective = workers  # a real pool, also on a 1-CPU host
        par = runner.run(program)
        plan = runner.last_plan
        assert runner._lease is not None
    assert plan is not None and plan.parallel
    assert plan.chunks == chunk_ranges(n, workers, plan.align)
    assert len(plan.chunks) == workers
    assert_bit_identical(seq, par, context=("workers", workers))


def test_one_core_runs_whole_and_leases_nothing():
    """With one core there is nothing for a pool to win: even with every
    plan sent to the pool, the program runs whole, unplanned."""
    store = _store(20_000)
    program = selection_program()
    with crossover(0), ParallelInterpreter(store, workers=2) as runner:
        runner._effective = 1  # as on a cpu_count == 1 host
        par = runner.run(program)
        assert runner.last_plan is None and runner._lease is None
    assert_bit_identical(Interpreter(store).run(program), par)


def test_a_crossover_change_replans_the_same_program():
    """The executor's plan memo is keyed by the crossover it was made
    under: the same program object, on the same storage, is pooled under
    one value and runs whole under another — and each plan is reused
    under its own value."""
    store = _store(8192)
    program = selection_program()
    with ParallelInterpreter(store, workers=2) as runner:
        runner._effective = 2
        with crossover(0):
            runner.run(program)
            pooled = runner.last_plan
        with crossover(float("inf")):
            runner.run(program)
            whole = runner.last_plan
        with crossover(0):
            runner.run(program)
            again = runner.last_plan
    assert pooled.parallel and not whole.parallel
    assert whole.reason == "below the pool crossover"
    assert again is pooled


# ----------------------------------------------------- engine threading


def test_engine_runs_workers_k_on_the_pool():
    store = generate(0.005, seed=7)
    with crossover(0), VoodooEngine(store) as reference, VoodooEngine(
            store, config=EngineConfig(execution=ExecutionOptions(workers=3))) as parallel:
        backend = parallel._parallel_backend
        backend._effective = 3
        expected = reference.query(build(store, 6))
        result = parallel.execute(build(store, 6))
        assert ("partition_plan", 3, 0) in result.compiled.program.memo
        plan = backend.last_plan
        assert plan is not None and plan.parallel and len(plan.chunks) == 3
        assert backend._lease is not None
    got = result.table
    assert got.columns == expected.columns
    for column in expected.columns:
        assert np.array_equal(got.column(column), expected.column(column))
