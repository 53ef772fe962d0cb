"""Negative-path regression guards for the PR 2/3 edge cases.

Locks in behaviors the conformance matrix relies on: the tracing ×
workers conflict must fail loudly, plan-cache entries must not survive
an ``ExecutionOptions.fastpath`` flip, and FoldSelect must stay exact
when a whole chunk of the partition-parallel backend filters to
nothing.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.errors import ExecutionError
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.algebra import AggSpec, Filter, GroupBy, Query, Scan
from repro.relational.expressions import Col, Lit
from repro.storage import ColumnStore, Table
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
            assert result.compiled is None          # no simulated artifact
            assert list(result.trace.events()) == []

    def test_sequential_engine_still_traces(self):
        engine = VoodooEngine(make_store())
        assert engine.tracing is True
        assert engine.execute(make_query()).milliseconds > 0


class TestPlanCacheFastpathFlip:
    def test_execution_fastpath_flip_is_a_cache_miss(self):
        """Flipping ExecutionOptions.fastpath must re-translate, not reuse.

        An engine is immutable once built (``close()`` is terminal), so
        the flip happens by deriving a second engine from the first's
        config; the cache keys must differ so neither engine could ever
        serve the other's plan.
        """
        store = make_store()
        with VoodooEngine(store, config=TWO_WORKERS) as engine:
            first = engine.query(make_query())
            assert engine.cache_info()["program_misses"] == 1
            engine.query(make_query())
            assert engine.cache_info()["program_hits"] == 1
            flipped_config = engine.config.with_(
                execution=engine.execution.with_(fastpath=False)
            )
            key_on = engine.cache_key(make_query())

        with VoodooEngine(store, config=flipped_config) as flipped:
            assert flipped.cache_key(make_query()) != key_on, (
                "fastpath flip must change the cache key"
            )
            second = flipped.query(make_query())
            info = flipped.cache_info()
            assert info["program_misses"] == 1, "fastpath flip reused a stale plan"
            assert first.rows() == second.rows()

    def test_compiler_fastpath_flip_changes_cache_key(self):
        store = make_store()
        query = make_query()
        on, off = (
            VoodooEngine(
                store, config=EngineConfig(options=CompilerOptions(fastpath=fastpath))
            ).cache_key(query)
            for fastpath in (True, False)
        )
        assert on != off

    def test_execution_fastpath_results_bit_identical(self):
        store = make_store()
        tables = []
        for fastpath in (True, False):
            execution = ExecutionOptions(workers=2, fastpath=fastpath)
            with VoodooEngine(store, config=EngineConfig(execution=execution)) as engine:
                tables.append(engine.query(make_query()))
        assert tables[0].rows() == tables[1].rows()


class TestFoldSelectFullyFilteredChunk:
    """A chunk whose rows *all* fail the predicate must contribute nothing."""

    @staticmethod
    def _store_with_dead_chunk(n: int = 40, grain: int = 5) -> ColumnStore:
        v = np.tile(np.arange(grain, dtype=np.int64), n // grain) + 10
        v[grain: 2 * grain] = 0         # chunk 1 is entirely filtered out
        v[3 * grain] = 0                # chunk 3 partially filtered
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
        with VoodooEngine(store, config=config) as engine:
            parallel = engine.query(query)
        assert sequential.rows() == parallel.rows()

    def test_all_rows_filtered_everywhere_yields_empty_result(self):
        store = self._store_with_dead_chunk()
        plan = Filter(Scan("fact"), Col("v") > Lit(10_000))
        case = Case(seed=0, index=1, grain=5, store=store,
                    query=Query(plan=plan, select=["k"]))
        assert run_case(case) == []
        assert len(VoodooEngine(store, config=EngineConfig(grain=5)).query(
            Query(plan=plan, select=["k"]))) == 0
