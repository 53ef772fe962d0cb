"""The engine's plan cache: hits on structural equality, invalidation on
schema/option changes (ISSUE 2 satellite: the cache key must cover the
ColumnStore schema and the engine's device/workers/fuse knobs)."""

import numpy as np

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.algebra import AggSpec, GroupBy, KeySpec, Query, Scan
from repro.relational.engine import structural_fingerprint
from repro.relational.expressions import Col, Lit
from repro.storage import ColumnStore, Table


def make_store(n=64, seed=0):
    rng = np.random.default_rng(seed)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "t",
        k=rng.integers(0, 4, n).astype(np.int64),
        v=rng.random(n),
    ))
    return store


def make_query():
    plan = Scan("t").filter(Col("v") > Lit(0.25))
    grouped = GroupBy(
        plan,
        keys=[KeySpec("k", Col("k"), card=4)],
        aggs={"total": AggSpec("sum", Col("v")), "n": AggSpec("count")},
    )
    return Query(plan=grouped, select=["k", "total", "n"], order_by=[("k", False)])


class TestStructuralFingerprint:
    def test_equal_for_rebuilt_queries(self):
        assert structural_fingerprint(make_query()) == structural_fingerprint(make_query())

    def test_differs_on_literal_change(self):
        other = Query(
            plan=Scan("t").filter(Col("v") > Lit(0.5)), select=["k"]
        )
        assert structural_fingerprint(make_query()) != structural_fingerprint(other)


class TestPlanCache:
    def test_hit_on_repeated_query(self):
        engine = VoodooEngine(make_store())
        first = engine.execute(make_query())
        second = engine.execute(make_query())  # structurally equal, new objects
        assert engine.cache_info() == {
            "plan_hits": 1, "plan_misses": 1,
            "program_hits": 0, "program_misses": 0,
            "size": 1, "programs": 0,
            "storage_bytes_scanned": 0, "storage_bytes_decompressed": 0,
        }
        assert second.compiled is first.compiled  # codegen really skipped
        for column in first.table.columns:
            assert np.array_equal(first.table.column(column), second.table.column(column))

    def test_distinct_queries_miss(self):
        engine = VoodooEngine(make_store())
        engine.execute(make_query())
        other = Query(plan=Scan("t").filter(Col("v") > Lit(0.9)), select=["v"])
        engine.execute(other)
        assert engine.cache_info()["plan_misses"] == 2

    def test_disabled_cache(self):
        engine = VoodooEngine(make_store(), config=EngineConfig(plan_cache=False))
        engine.execute(make_query())
        engine.execute(make_query())
        assert engine.cache_info() == {
            "plan_hits": 0, "plan_misses": 0,
            "program_hits": 0, "program_misses": 0,
            "size": 0, "programs": 0,
            "storage_bytes_scanned": 0, "storage_bytes_decompressed": 0,
        }

    def test_parallel_path_shares_the_plan_cache(self):
        """A parallel engine compiles through the same cache, reports
        under the same counters, and hands its plan back on the result."""
        config = EngineConfig(execution=ExecutionOptions(workers=2))
        with VoodooEngine(make_store(), config=config) as engine:
            first = engine.execute(make_query())
            second = engine.execute(make_query())
            info = engine.cache_info()
            assert info["size"] == 1 and info["programs"] == 0
            assert info["plan_hits"] == 1 and info["plan_misses"] == 1
            assert info["program_hits"] == 0 and info["program_misses"] == 0
            assert first.compiled is not None and second.compiled is first.compiled
            for column in first.table.columns:
                assert np.array_equal(
                    first.table.column(column), second.table.column(column)
                )

    def test_clear(self):
        engine = VoodooEngine(make_store())
        engine.execute(make_query())
        engine.clear_plan_cache()
        engine.execute(make_query())
        assert engine.cache_info()["plan_misses"] == 2


def key_under(store, **config) -> tuple:
    """The plan-cache key of ``make_query()`` on an engine so configured."""
    return VoodooEngine(store, config=EngineConfig(**config)).cache_key(make_query())


class TestInvalidation:
    def test_schema_change_invalidates(self):
        """Regression: adding a table changes the store fingerprint."""
        store = make_store()
        engine = VoodooEngine(store)
        key_before = engine.cache_key(make_query())
        engine.execute(make_query())
        store.add(Table.from_arrays("extra", x=np.arange(3)))
        assert engine.cache_key(make_query()) != key_before
        engine.execute(make_query())  # recompiles, still correct
        assert engine.cache_info()["plan_misses"] == 2
        assert engine.cache_info()["plan_hits"] == 0

    def test_store_fingerprint_covers_shapes(self):
        a, b = make_store(n=64), make_store(n=65)
        assert a.fingerprint() != b.fingerprint()
        assert make_store(n=64).fingerprint() == a.fingerprint()

    def test_device_and_fuse_in_key(self):
        store = make_store()
        keys = {
            key_under(store, options=CompilerOptions()),
            key_under(store, options=CompilerOptions(device="gpu")),
            key_under(store, options=CompilerOptions(fuse=False)),
            key_under(store, options=CompilerOptions(native=True)),
            key_under(store, options=CompilerOptions(selection="branch-free")),
        }
        assert len(keys) == 5

    def test_workers_and_grain_in_key(self):
        store = make_store()
        keys = {
            key_under(store),
            key_under(store, execution=ExecutionOptions(workers=4)),
            key_under(store, grain=128),
        }
        assert len(keys) == 3

    def test_workers_only_change_invalidates(self):
        """Regression: two engines differing ONLY in ExecutionOptions.workers
        (same store, same options, same grain) must not share cache keys."""
        store = make_store()
        keys = {
            key_under(store, execution=ExecutionOptions(workers=2)),
            key_under(store, execution=ExecutionOptions(workers=4)),
        }
        assert len(keys) == 2

    def test_kernel_provider_in_key_of_a_parallel_engine(self):
        """numpy | native is part of a parallel plan's identity too."""
        store = make_store()
        execution = ExecutionOptions(workers=2)
        keys = {
            key_under(store, execution=execution),
            key_under(store, execution=execution, native=True),
        }
        assert len(keys) == 2

    def test_aux_vectors_do_not_thrash_the_cache(self):
        """LIKE membership tables registered during translation must not
        change the key between the first and second execution."""
        store = make_store()
        engine = VoodooEngine(store)
        key = engine.cache_key(make_query())
        from repro.core.vector import StructuredVector
        store.add_aux("aux_like", StructuredVector.from_arrays(m=np.zeros(4, dtype=bool)))
        assert engine.cache_key(make_query()) == key
