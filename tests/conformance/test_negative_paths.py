"""Negative-path regression guards for the PR 2/3 edge cases.

Locks in behaviors the conformance matrix relies on: the tracing ×
workers conflict must fail loudly, the removed execution knobs must be
rejected rather than ignored, and FoldSelect must stay exact
when a whole chunk of the partition-parallel backend filters to
nothing.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions, FusedRuntime
from repro.compiler.runner import ChunkRunner, run_chunk, run_program
from repro.errors import ExecutionError
from repro.parallel import ParallelInterpreter
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.algebra import AggSpec, Filter, GroupBy, Query, Scan
from repro.relational.expressions import Col, Lit
from repro.serving import VoodooServer
from repro.storage import ColumnStore, Table
from repro.testing import crossover
from repro.testing.conformance import run_case
from repro.testing.serialize import Case


TWO_WORKERS = EngineConfig(execution=ExecutionOptions(workers=2))


def make_store(n: int = 40) -> ColumnStore:
    rng = np.random.default_rng(9)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "fact",
        k=np.arange(n, dtype=np.int64),
        v=rng.integers(0, 100, n).astype(np.int64),
        x=np.round(rng.uniform(-10, 10, n), 3),
    ))
    return store


def pooled_engine(store: ColumnStore, config: EngineConfig) -> VoodooEngine:
    """A parallel engine with a core per worker, on any host: run it
    under ``crossover(0)`` and its plans go to the pool however small."""
    engine = VoodooEngine(store, config=config)
    workers = config.execution.workers
    engine._parallel_backend._effective = workers
    return engine


def make_query(threshold: int = 50) -> Query:
    plan = Filter(Scan("fact"), Col("v") > Lit(threshold))
    plan = GroupBy(plan, keys=[], aggs={
        "s": AggSpec("sum", Col("x")),
        "c": AggSpec("count"),
    }, grain=5)
    return Query(plan=plan, select=["s", "c"])


class TestTracingWorkersConflict:
    def test_tracing_with_workers_raises(self):
        with pytest.raises(ExecutionError, match="tracing"):
            VoodooEngine(make_store(), config=TWO_WORKERS.with_(tracing=True))

    def test_parallel_engine_defaults_to_untraced(self):
        with VoodooEngine(make_store(), config=TWO_WORKERS) as engine:
            assert engine.tracing is False
            result = engine.execute(make_query())
            assert result.cost.seconds == 0.0       # nothing simulated
            assert list(result.trace.events()) == []

    def test_sequential_engine_still_traces(self):
        engine = VoodooEngine(make_store())
        assert engine.tracing is True
        assert engine.execute(make_query()).milliseconds > 0


class TestRemovedKnobs:
    """One executor: the options that selected the others are gone, and a
    caller still passing one hears about it instead of being ignored."""

    @pytest.mark.parametrize("build", [
        lambda: CompilerOptions(fastpath=False),
        lambda: ExecutionOptions(pool="process"),
        lambda: ExecutionOptions(fastpath=False),
        lambda: ExecutionOptions(native=True),
        lambda: CompilerOptions(parallel_grain=4096),
        lambda: ExecutionOptions(parallel_grain=4096),
        # untraced runs always keep fold-only scatters virtual
        lambda: run_program(None, {}, virtual_scatter=False),
        lambda: run_chunk(None, [], [], {}, 0, 0, 0, 0, virtual_scatter=False),
        lambda: ChunkRunner(None, None, 0, frozenset(), 0, 0, 0, virtual_scatter=False),
        lambda: ParallelInterpreter(workers=1).run(None, {}, virtual_scatter=False),
        lambda: FusedRuntime({}, virtual_scatter=False),
        lambda: FusedRuntime({}, False),
        # a parallel backend reads `native` once, when built
        lambda: ParallelInterpreter(workers=1).run(None, {}, native=True),
        # every engine has a plan cache
        lambda: EngineConfig(plan_cache=False),
        # a server's catalog carries the engine configuration
        lambda: VoodooServer(engine_config=EngineConfig()),
    ], ids=["compiler-fastpath", "pool", "execution-fastpath", "execution-native",
            "compiler-parallel-grain", "execution-parallel-grain",
            "run-program-virtual-scatter", "run-chunk-virtual-scatter",
            "chunk-runner-virtual-scatter", "parallel-run-virtual-scatter",
            "runtime-virtual-scatter", "runtime-positional-virtual-scatter",
            "parallel-run-native", "plan-cache", "server-engine-config"])
    def test_removed_option_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_option_classes_field_counts(self):
        import dataclasses

        assert len(dataclasses.fields(CompilerOptions)) == 6
        assert len(dataclasses.fields(ExecutionOptions)) == 1
        assert len(dataclasses.fields(EngineConfig)) == 5
        assert not hasattr(FusedRuntime({}), "virtual_scatter_enabled")

    def test_grid_has_no_recorder_off_configuration(self):
        """Every run means the node runner, whatever ``fuse`` says: the
        grid holds one entry per way of *executing*, and knobs that only
        price (golden prices pin those) appear in none."""
        from repro.testing.conformance import BACKEND_GRID

        assert len(BACKEND_GRID) == 9
        priced_only = {"fuse": True, "selection": "branching", "slot_suppression": True}
        for config in BACKEND_GRID:
            assert all(getattr(config.options, knob) == default
                       for knob, default in priced_only.items()), config.name

    def test_parallel_engine_follows_the_native_shorthand(self, monkeypatch):
        from repro.compiler.runner import ProgramRunner

        seen = []
        init = ProgramRunner.__init__

        def spy(self, program, storage=None, virtual_scatter=True, native=False):
            seen.append(native)
            init(self, program, storage, virtual_scatter, native)

        monkeypatch.setattr(ProgramRunner, "__init__", spy)
        config = TWO_WORKERS.with_(native=True)
        with crossover(0), pooled_engine(make_store(), config) as engine:
            assert engine.options.native
            result = engine.execute(make_query())
            assert result.compiled.native
            backend = engine._parallel_backend
            assert backend.last_plan.parallel and backend._lease is not None
            assert len(seen) > 1 and all(seen)  # every runner of the run is native


class TestFoldSelectFullyFilteredChunk:
    """A chunk whose rows *all* fail the predicate must contribute nothing."""

    @staticmethod
    def _store_with_dead_chunk(n: int = 40, grain: int = 5) -> ColumnStore:
        v = np.tile(np.arange(grain, dtype=np.int64), n // grain) + 10
        v[n // 2:] = 0                  # the last chunk of 2 workers, last two of 4
        v[grain] = 0                    # chunk 0 partially filtered
        store = ColumnStore()
        store.add(Table.from_arrays("fact", k=np.arange(n, dtype=np.int64), v=v))
        return store

    def test_fully_filtered_chunk_conforms_across_grid(self):
        store = self._store_with_dead_chunk()
        plan = Filter(Scan("fact"), Col("v") > Lit(0))
        case = Case(seed=0, index=0, grain=5, store=store,
                    query=Query(plan=plan, select=["k", "v"]))
        assert run_case(case) == []

    @pytest.mark.parametrize("workers", (2, 4))
    def test_fully_filtered_chunk_parallel_matches_sequential(self, workers):
        store = self._store_with_dead_chunk()
        plan = Filter(Scan("fact"), Col("v") > Lit(0))
        plan = GroupBy(plan, keys=[], aggs={"c": AggSpec("count"),
                                            "s": AggSpec("sum", Col("k"))}, grain=5)
        query = Query(plan=plan, select=["c", "s"])
        sequential = VoodooEngine(store, config=EngineConfig(grain=5)).query(query)
        config = EngineConfig(grain=5, execution=ExecutionOptions(workers=workers))
        with crossover(0), pooled_engine(store, config) as engine:
            parallel = engine.query(query)
            backend = engine._parallel_backend
            plan = backend.last_plan
            assert plan.parallel and len(plan.chunks) == workers
            assert plan.chunks[-1][0] >= 20  # a chunk with no surviving row
            assert backend._lease is not None
        assert sequential.rows() == parallel.rows()

    def test_all_rows_filtered_everywhere_yields_empty_result(self):
        store = self._store_with_dead_chunk()
        plan = Filter(Scan("fact"), Col("v") > Lit(10_000))
        case = Case(seed=0, index=1, grain=5, store=store,
                    query=Query(plan=plan, select=["k"]))
        assert run_case(case) == []
        assert len(VoodooEngine(store, config=EngineConfig(grain=5)).query(
            Query(plan=plan, select=["k"]))) == 0
