"""Fusion × multicore: the composed fast path, bit-identical end to end.

The acceptance bar for ISSUE 3: every evaluated TPC-H query produces
exactly the same vectors — values, dtypes *and* ε masks — on the
sequential fused kernels and on the fused-parallel backend at workers=2
and workers=4; a hypothesis property test covers chunk boundaries that
cut group-by runs mid-group; and the engine-level satellites (persistent
pool lifecycle, tracing × workers conflict) are locked in.

Every test here runs with the pool crossover at 0 and as many cores as
workers (:func:`pooled`), so each plan that splits goes to the pool — on
any host, at any size.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ExecutionOptions, FusedRuntime, compile_program, kernels
from repro.core import Builder, Schema, StructuredVector
from repro.errors import ExecutionError
from repro.interpreter import Interpreter
from repro.parallel import PARTITIONED, SEQ, ParallelInterpreter
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate


TWO_WORKERS = EngineConfig(execution=ExecutionOptions(workers=2))


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


def pooled(storage=None, workers: int = 2) -> ParallelInterpreter:
    """A *workers*-wide backend with a core per worker, on any host."""
    runner = ParallelInterpreter(storage, workers=workers)
    runner._effective = workers
    return runner


def pooled_engine(store, config: EngineConfig = TWO_WORKERS) -> VoodooEngine:
    engine = VoodooEngine(store, config=config)
    workers = config.execution.workers
    engine._parallel_backend._effective = workers
    return engine


def assert_bit_identical(expected: dict, got: dict, context=()) -> None:
    assert expected.keys() == got.keys()
    for name in expected:
        a, b = expected[name], got[name]
        assert len(a) == len(b), (*context, name)
        assert set(a.paths) == set(b.paths), (*context, name)
        for p in a.paths:
            assert a.attr(p).dtype == b.attr(p).dtype, (*context, name, str(p))
            assert np.array_equal(a.attr(p), b.attr(p)), (*context, name, str(p), "values")
            assert np.array_equal(a.present(p), b.present(p)), (*context, name, str(p), "masks")


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


@pytest.mark.parametrize("number", sorted(QUERIES))
@pytest.mark.parametrize("workers", (2, 4))
def test_tpch_fused_parallel_bit_identical(store, engine, number, workers):
    """Sequential fused vs fused-parallel: same bits on all 14 queries."""
    query = build(store, number)  # may register LIKE membership aux vectors
    program = engine.translate(query)
    compiled = compile_program(program, engine.options)
    fused_seq, _ = compiled.run(store.vectors(), collect_trace=False)
    runner = pooled(store.vectors(), workers=workers)
    fused_par = runner.run(program)
    assert runner.last_plan is not None and runner.last_plan.parallel, (
        f"Q{number} did not parallelize: {runner.last_plan.reason}"
    )
    runner.close()
    assert_bit_identical(fused_seq, fused_par, context=(number, workers))


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_pooled_run_over_a_foreign_storage_bit_identical(store, engine, number):
    """A run's Load context is an argument of one shared, stateless
    instance: a storage handed to ``run`` changes no bit, and the
    instance's own Load context is neither read nor written."""
    query = build(store, number)
    program = engine.translate(query)
    compiled = compile_program(program, engine.options)
    expected, _ = compiled.run(store.vectors(), collect_trace=False)
    with pooled() as runner:
        got = runner.run(program, store.vectors())
        assert runner.last_plan.parallel
        assert runner._storage == {}
    assert_bit_identical(expected, got, context=(number, "foreign storage"))


def test_pooled_runs_keep_fold_only_scatters_virtual(store, monkeypatch):
    """Every runner of a pooled run — the zone runner and one per chunk —
    keeps the program's fold-only scatters virtual, whatever the plan
    prices: ``CompilerOptions.virtual_scatter=False`` changes what a
    traced run lands, not what an untraced one executes."""
    from repro.compiler import CompilerOptions
    from repro.compiler.runner import ProgramRunner

    runners = []
    runner_init = ProgramRunner.__init__

    def spy_runner(self, *args, **kwargs):
        runner_init(self, *args, **kwargs)
        runners.append(self)

    monkeypatch.setattr(ProgramRunner, "__init__", spy_runner)
    config = TWO_WORKERS.with_(options=CompilerOptions(virtual_scatter=False))
    with pooled_engine(store, config) as parallel_engine:
        result = parallel_engine.execute(build(store, 1))
        assert parallel_engine._parallel_backend.last_plan.parallel
    assert not result.compiled.plan.virtual_scatters  # the plan prices them landed
    assert len(runners) >= 3  # the zone runner and one per chunk
    assert all(runner._keep_virtual for runner in runners)
    reference = VoodooEngine(store, config=EngineConfig(tracing=False)).query(
        build(store, 1))
    for column in reference.columns:
        assert np.array_equal(result.table.column(column), reference.column(column))


def test_engine_fused_parallel_tables_agree(store, engine):
    """An engine built with ``ExecutionOptions(workers=N)`` (fused chunks
    by default) returns the same result tables as the sequential traced
    engine."""
    with pooled_engine(store) as parallel_engine:
        for number in sorted(QUERIES):
            reference = engine.execute(build(store, number)).table
            table = parallel_engine.execute(build(store, number)).table
            assert table.columns == reference.columns, number
            for column in reference.columns:
                assert np.array_equal(
                    table.column(column), reference.column(column)
                ), (number, column)


# ----------------------------------------------------- group-by run splits


def groupby_program(n: int, grain: int, cards: int, wide: bool = False):
    """Filter + grouped sum/count/max over a gid — the Q1 shape, with a
    chunked partial-fold stage whose runs the chunk boundaries may cut.
    ``wide``: six aggregates by the key (they share the Partition's group
    structure and one set of result slots) and two by another column
    (they share the landed scatter)."""
    b = Builder({"facts": Schema({".k": "int64", ".v": "float64", ".w": "int64"})})
    facts = b.load("facts")
    pred = b.less_equal(facts.project(".w"), b.constant(70), out=".sel")
    ctrl = b.divide(b.range(facts), b.constant(grain), out=".chunk")
    chained = b.zip(b.zip(facts, pred), ctrl)
    positions = b.fold_select(chained, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    kept = b.gather(facts, positions, pos_kp=".pos")
    pivots = b.range(cards, out=".pv")
    part = b.partition(kept.project(".k"), pivots, out=".dest")
    scattered = b.scatter(kept, part, pos_kp=".dest")
    sums = b.fold_sum(scattered, agg_kp=".v", fold_kp=".k", out=".sum")
    counts = b.fold_count(scattered, counted_kp=".v", fold_kp=".k", out=".cnt")
    tops = b.fold_max(scattered, agg_kp=".w", fold_kp=".k", out=".top")
    outputs = {"sums": sums, "counts": counts, "tops": tops}
    if wide:
        outputs.update(
            lows=b.fold_min(scattered, agg_kp=".v", fold_kp=".k", out=".low"),
            weights=b.fold_sum(scattered, agg_kp=".w", fold_kp=".k", out=".weight"),
            peaks=b.fold_max(scattered, agg_kp=".v", fold_kp=".k", out=".peak"),
            other_sums=b.fold_sum(scattered, agg_kp=".v", fold_kp=".w", out=".sum"),
            other_counts=b.fold_count(scattered, counted_kp=".v", fold_kp=".w", out=".cnt"),
        )
    return b.build(**outputs)


@given(
    seed=st.integers(0, 10_000),
    workers=st.sampled_from([2, 3, 4]),
    grain=st.sampled_from([64, 1000, 4096]),
)
@settings(max_examples=25, deadline=None)
def test_property_groupby_runs_split_mid_group(seed, workers, grain):
    """Chunk boundaries land mid-group (n is never a multiple of the key
    layout, keys repeat across every chunk): fused-parallel must still be
    bit-identical to the sequential interpreter."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 20_000))
    cards = int(rng.integers(2, 13))
    store = {
        "facts": StructuredVector(
            n,
            {
                ".k": rng.integers(0, cards, n).astype(np.int64),
                ".v": (rng.random(n) * 100).astype(np.float64),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }
    program = groupby_program(n, grain, cards)
    seq = Interpreter(store).run(program)
    runner = pooled(store, workers=workers)
    par = runner.run(program)
    runner.close()
    assert_bit_identical(seq, par, context=(seed, workers))


# ----------------------------------------------------- pool lifecycle


class TestPersistentPool:
    def _program(self, n=50_000):
        b = Builder({"facts": Schema({".v": "int64"})})
        facts = b.load("facts")
        ctrl = b.divide(b.range(facts), b.constant(4096), out=".g")
        partial = b.fold_sum(b.zip(facts, ctrl), agg_kp=".v", fold_kp=".g", out=".p")
        return b.build(total=b.fold_sum(partial, agg_kp=".p", out=".total"))

    def _store(self, n=50_000, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "facts": StructuredVector.single(
                ".v", rng.integers(0, 100, n).astype(np.int64)
            )
        }

    def test_pool_is_reused_across_runs(self):
        runner = pooled(self._store())
        program = self._program()
        runner.run(program)
        first = runner._lease
        runner.run(program)
        assert first is not None and runner._lease is first
        runner.close()
        assert runner._lease is None

    def test_close_is_idempotent_and_reopens(self):
        runner = pooled(self._store())
        program = self._program()
        expected = runner.run(program)["total"].attr(".total")
        runner.close()
        runner.close()  # idempotent
        again = runner.run(program)["total"].attr(".total")  # transparently reopens
        assert np.array_equal(expected, again)
        runner.close()

    def test_context_manager(self):
        with pooled(self._store()) as runner:
            runner.run(self._program())
            assert runner._lease is not None
        assert runner._lease is None

    def test_engine_reuses_backend_and_closes(self):
        store = generate(0.002, seed=3)
        engine = pooled_engine(store)
        backend = engine._parallel_backend
        engine.execute(build(store, 6))
        assert backend._lease is not None
        engine.execute(build(store, 6))
        assert engine._parallel_backend is backend  # one backend, many queries
        engine.close()
        assert engine._parallel_backend is backend and backend._lease is None

    def test_engine_context_manager(self):
        store = generate(0.002, seed=3)
        with VoodooEngine(store, config=TWO_WORKERS) as engine:
            engine.query(build(store, 6))
        assert engine.closed and engine._parallel_backend._lease is None


def test_forced_pool_submission_bit_identical():
    """Chunk workers through a *real* pool — forced even on single-core
    hosts and below the pool crossover, where the program would otherwise
    run whole."""
    rng = np.random.default_rng(21)
    n = 20_000
    store = {
        "facts": StructuredVector.single(
            ".v", rng.integers(0, 100, n).astype(np.int64)
        )
    }
    b = Builder({"facts": Schema({".v": "int64"})})
    facts = b.load("facts")
    ctrl = b.divide(b.range(facts), b.constant(1024), out=".g")
    partial = b.fold_sum(b.zip(facts, ctrl), agg_kp=".v", fold_kp=".g", out=".p")
    program = b.build(total=b.fold_sum(partial, agg_kp=".p", out=".total"))
    seq = Interpreter(store).run(program)
    with pooled(store) as runner:
        par = runner.run(program)
        assert runner.last_plan.parallel and runner._lease is not None
    assert_bit_identical(seq, par)


def test_forced_pool_groupby_seq_zone():
    """A grouped query's SEQ zone through a real pool: the fold fan-out
    shares the id-keyed values dict across pool threads."""
    rng = np.random.default_rng(22)
    n = 12_000
    store = {
        "facts": StructuredVector(
            n,
            {
                ".k": rng.integers(0, 8, n).astype(np.int64),
                ".v": (rng.random(n) * 100).astype(np.float64),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }
    program = groupby_program(n, 1024, 8)
    seq = Interpreter(store).run(program)
    with pooled(store) as runner:
        par = runner.run(program)
        assert runner._lease is not None
    assert_bit_identical(seq, par)


def test_six_aggregates_share_one_group_structure_across_pool_threads():
    """The folds of one scatter run on pool threads after the first of
    each kind ran inline: the group structure, the result slots and the
    landed value they share must give workers=4 the bits of workers=1 —
    on every one of many runs, with thread switches forced often."""
    rng = np.random.default_rng(23)
    n = 12_000
    store = {
        "facts": StructuredVector(
            n,
            {
                ".k": rng.integers(0, 8, n).astype(np.int64),
                ".v": (rng.random(n) * 100).astype(np.float64),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }
    program = groupby_program(n, 1024, 8, wide=True)
    with ParallelInterpreter(store, workers=1) as runner:
        one = runner.run(program)
    assert_bit_identical(Interpreter(store).run(program), one)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pooled(store, workers=4) as runner:
            for attempt in range(40):
                assert_bit_identical(one, runner.run(program), context=(attempt,))
            assert runner.last_plan.parallel and runner._lease is not None
    finally:
        sys.setswitchinterval(interval)


def test_parallel_grouped_folds_stay_direct(monkeypatch):
    """The chunks' key column and the rows it is part of are merged
    separately — two arrays, one column: the SEQ zone's grouped folds must
    still recognise their control as the Partition's key (by value) and
    accumulate per group instead of landing the scatter."""
    rng = np.random.default_rng(24)
    n = 12_000
    store = {
        "facts": StructuredVector(
            n,
            {
                ".k": rng.integers(0, 8, n).astype(np.int64),
                ".v": (rng.random(n) * 100).astype(np.float64),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }
    direct: list = []
    landed: list = []
    plain_fold, plain_land = kernels.fold_aggregate_groups, FusedRuntime._apply_scatter
    monkeypatch.setattr(kernels, "fold_aggregate_groups",
                        lambda *args: direct.append(args[0]) or plain_fold(*args))
    monkeypatch.setattr(FusedRuntime, "_apply_scatter",
                        lambda self, val: landed.append(val) or plain_land(self, val))
    with pooled(store) as runner:
        runner.run(groupby_program(n, 1024, 8))
        assert runner.last_plan.parallel
    assert sorted(direct) == ["max", "sum"] and not landed  # (the count reads bucket sizes)


def test_plan_memo_invalidated_on_dtype_change():
    """Regression: the executor's plan memo must key on dtypes, not just
    shapes — a chunked float prefix sum rounds differently, so swapping an
    int column for floats of the same length must re-plan a run-aligned
    ``FoldScan`` from PARTITIONED to SEQ."""
    n = 50_001
    rng = np.random.default_rng(33)
    ints = rng.integers(0, 100, n).astype(np.int64)
    floats = rng.random(n).astype(np.float64)
    b = Builder({"facts": Schema({".v": "int64"})})
    facts = b.load("facts")
    runs = b.divide(b.range(facts), b.constant(1024), out=".run")
    scan = b.fold_scan(b.zip(facts, runs), s_kp=".v", fold_kp=".run", out=".scan")
    program = b.build(scan=scan)
    index = next(i for i, node in enumerate(program.order) if node.opname == "FoldScan")
    with pooled({"facts": StructuredVector.single(".v", ints)}, workers=4) as runner:
        runner.run(program)
        assert runner.last_plan.zones[index] == PARTITIONED  # int scan: exact per chunk
        runner.store("facts", StructuredVector.single(".v", floats))
        par = runner.run(program)
        assert runner.last_plan.zones[index] == SEQ
        seq = Interpreter({"facts": StructuredVector.single(".v", floats)}).run(program)
        assert_bit_identical(seq, par)


# ----------------------------------------------------- tracing conflict


class TestTracingConflict:
    def test_explicit_tracing_with_workers_raises(self):
        store = generate(0.002, seed=3)
        with pytest.raises(ExecutionError, match="tracing"):
            VoodooEngine(store, config=TWO_WORKERS.with_(tracing=True))

    def test_explicit_tracing_with_execution_options_raises(self):
        store = generate(0.002, seed=3)
        with pytest.raises(ExecutionError, match="tracing"):
            VoodooEngine(
                store, config=EngineConfig(execution=ExecutionOptions(workers=4), tracing=True)
            )

    def test_parallel_engine_defaults_to_untraced(self):
        store = generate(0.002, seed=3)
        with VoodooEngine(store, config=TWO_WORKERS) as engine:
            assert engine.tracing is False
            result = engine.execute(build(store, 6))
            assert result.compiled is not None  # one plan cache for every backend
            assert len(result.trace) == 0

    def test_sequential_engine_defaults_to_traced(self):
        store = generate(0.002, seed=3)
        engine = VoodooEngine(store)
        assert engine.tracing is True
        result = engine.execute(build(store, 6))
        assert len(result.trace) > 0
