"""PreparedQuery: binding, cache sharing, and bit-identity.

The redesign's claim: a parameterized query bound to values is
*indistinguishable* from the same query hand-built with literals — an
equal query (so the same plan-cache entry), bit-identical results — so
a serving steady state re-compiles nothing.  How queries key, and that
a warm execution walks none, is ``test_query_keys.py``.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.errors import ExecutionError, TranslationError
from repro.relational import (
    EngineConfig,
    Param,
    PreparedQuery,
    VoodooEngine,
    parse_sql,
)
from repro.relational.algebra import AggSpec, Filter, GroupBy, Query, Scan
from repro.relational.expressions import Cmp, Col, Lit
from repro.storage import ColumnStore, Table


@pytest.fixture
def store() -> ColumnStore:
    rng = np.random.default_rng(11)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "t",
        k=rng.integers(0, 10, 500).astype(np.int64),
        v=np.round(rng.uniform(0, 1, 500), 6),
    ))
    return store


def param_query(threshold) -> Query:
    plan = Filter(Scan("t"), Cmp("le", Col("v"), threshold))
    plan = GroupBy(plan, keys=[], aggs={"s": AggSpec("sum", Col("v")),
                                        "c": AggSpec("count")})
    return Query(plan=plan, select=["s", "c"])


class TestBinding:
    def test_params_discovered_in_order(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        assert prepared.params == ("theta",)
        engine.close()

    def test_bound_equals_literal_query(self, store):
        """bind() must rebuild the exact literal tree."""
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        assert prepared.bind(theta=0.25) == param_query(Lit(0.25))
        engine.close()

    def test_missing_param_raises(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        with pytest.raises(ExecutionError, match="missing"):
            prepared.execute()
        engine.close()

    def test_unknown_param_raises(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        with pytest.raises(ExecutionError, match="unknown"):
            prepared.execute(theta=0.5, beta=1)
        engine.close()

    def test_non_scalar_value_raises(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        with pytest.raises(ExecutionError, match="theta"):
            prepared.execute(theta="high")
        engine.close()

    def test_unbound_param_fails_translation(self, store):
        """Executing a query with a live Param (bypassing prepare) is a
        loud error, not a silent miscompile."""
        engine = VoodooEngine(store)
        with pytest.raises(TranslationError, match="theta"):
            engine._execute_bound(param_query(Param("theta")))
        engine.close()

    def test_bound_queries_memoized(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        assert prepared.bind(theta=0.25) is prepared.bind(theta=0.25)
        assert prepared.bind(theta=0.25) is not prepared.bind(theta=0.5)
        engine.close()


class TestCacheSharing:
    def test_prepared_hits_literal_plan_cache(self, store):
        """One compile serves both the literal and the prepared path."""
        engine = VoodooEngine(store)
        engine.execute(param_query(Lit(0.25)))
        assert engine.cache_info()["plan_misses"] == 1
        prepared = engine.prepare(param_query(Param("theta")))
        prepared.execute(theta=0.25)
        info = engine.cache_info()
        assert info["plan_misses"] == 1        # no second compile
        assert info["plan_hits"] >= 1
        engine.close()

    def test_prepare_is_memoized_by_structure(self, store):
        engine = VoodooEngine(store)
        first = engine.prepare(param_query(Param("theta")))
        second = engine.prepare(param_query(Param("theta")))
        assert first is second
        engine.close()

    def test_engine_query_routes_through_prepare(self, store):
        """Ad-hoc execution is the prepared path with zero params."""
        engine = VoodooEngine(store)
        q = param_query(Lit(0.25))
        engine.query(q)
        assert engine.prepare(q) in engine._prepared.values()
        engine.close()


class TestBitIdentity:
    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_prepared_vs_rebuilt_literal(self, store, theta):
        engine = VoodooEngine(store)
        prepared = engine.prepare(param_query(Param("theta")))
        bound = prepared.execute(theta=theta).table
        rebuilt = engine.execute(param_query(Lit(theta))).table
        assert bound.columns == rebuilt.columns
        for column in bound.columns:
            assert bound.arrays[column].dtype == rebuilt.arrays[column].dtype
            assert np.array_equal(bound.arrays[column],
                                  rebuilt.arrays[column])
        engine.close()

    def test_parallel_engine_prepared_identity(self, store):
        from repro.compiler import ExecutionOptions
        from repro.testing import crossover

        config = EngineConfig(execution=ExecutionOptions(workers=2))
        # chunks on the pool however small, with a core per worker on any host
        with crossover(0), VoodooEngine(store, config=config) as parallel:
            backend = parallel._parallel_backend
            backend._effective = 2
            with VoodooEngine(store) as sequential:
                a = parallel.prepare(param_query(Param("x"))).table(x=0.5)
                b = sequential.execute(param_query(Lit(0.5))).table
                assert a.rows() == b.rows()
            assert backend.last_plan.parallel and backend._lease is not None


class TestSQLParams:
    def test_sql_named_params(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(
            "SELECT SUM(v) AS s FROM t WHERE v <= :theta"
        )
        assert isinstance(prepared, PreparedQuery)
        assert prepared.params == ("theta",)
        served = prepared.table(theta=0.5)
        direct = engine.query(
            parse_sql("SELECT SUM(v) AS s FROM t WHERE v <= 0.5", store)
        )
        assert served.rows() == direct.rows()
        engine.close()

    def test_explain_mentions_params_and_cache(self, store):
        engine = VoodooEngine(store)
        prepared = engine.prepare(
            "SELECT SUM(v) AS s FROM t WHERE v <= :theta"
        )
        text = prepared.explain(theta=0.5)
        assert "theta" in text
        prepared.execute(theta=0.5)
        assert "cached before this call: True" in prepared.explain(theta=0.5)
        engine.close()

    @pytest.mark.parametrize("config, backend", [
        (EngineConfig(), "node runner, numpy kernels, inline + pricing pass (simulated cost)"),
        (EngineConfig(tracing=False), "node runner, numpy kernels, inline"),
        (EngineConfig(native=True, tracing=False), "node runner, native kernels, inline"),
        (EngineConfig(execution=ExecutionOptions(workers=2)),
         "node runner, numpy kernels, thread pool (2 workers) at or above the pool "
         "crossover, otherwise whole"),
        # fuse shapes the simulator only: untraced is the runner either way
        (EngineConfig(options=CompilerOptions(fuse=False), tracing=False),
         "node runner, numpy kernels, inline"),
        (EngineConfig(options=CompilerOptions(fuse=False, native=True), tracing=False),
         "node runner, native kernels, inline"),
    ])
    def test_explain_names_evaluator_kernels_and_schedule(self, store, config, backend):
        with VoodooEngine(store, config=config) as engine:
            prepared = engine.prepare("SELECT SUM(v) AS s FROM t WHERE v <= :theta")
            text = prepared.explain(theta=0.5)
            assert f"backend: {backend}" in text
            assert "cached before this call: False" in text  # parallel engines too
