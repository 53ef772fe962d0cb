"""The engine's plan cache: hits on structural equality, invalidation on
schema changes; the key is the query's structure and the store's schema,
and engines of different configurations never share a plan.  An append
keeps every plan except those whose translation read the appended
table's contents."""

import numpy as np

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.core.printer import to_ssa
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.algebra import AggSpec, GroupBy, Join, KeySpec, Query, Scan
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


class TestStructuralKey:
    def test_equal_for_rebuilt_queries(self):
        first, second = make_query(), make_query()
        assert first is not second
        assert first == second and hash(first) == hash(second)

    def test_differs_on_literal_change(self):
        other = Query(
            plan=Scan("t").filter(Col("v") > Lit(0.5)), select=["k"]
        )
        assert make_query() != other


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

    def test_store_fingerprint_is_the_schema(self):
        """Row counts and contents are not in the key; names and dtypes are."""
        a, b = make_store(n=64), make_store(n=65, seed=1)
        assert a.fingerprint() == b.fingerprint()
        narrow = ColumnStore()
        narrow.add(Table.from_arrays("t", k=np.zeros(64, np.int32), v=np.zeros(64)))
        renamed = ColumnStore()
        renamed.add(Table.from_arrays("t", k=np.zeros(64, np.int64), w=np.zeros(64)))
        assert len({a.fingerprint(), narrow.fingerprint(), renamed.fingerprint()}) == 3

    def test_engines_of_different_configurations_share_no_plan(self):
        """The key is the query's structure and the store's schema and
        nothing else: the configuration is fixed when an engine is built,
        and each engine holds its own cache, so engines that differ in
        any knob — on one store — never hand each other a plan."""
        store = make_store()
        configs = [
            EngineConfig(),
            EngineConfig(options=CompilerOptions(device="gpu")),
            EngineConfig(options=CompilerOptions(fuse=False)),
            EngineConfig(options=CompilerOptions(selection="branch-free")),
            EngineConfig(options=CompilerOptions(virtual_scatter=False)),
            EngineConfig(native=True),
            EngineConfig(grain=128),
            EngineConfig(execution=ExecutionOptions(workers=2)),
            EngineConfig(execution=ExecutionOptions(workers=4)),
            EngineConfig(execution=ExecutionOptions(workers=2), native=True),
        ]
        compiled, keys = [], set()
        for config in configs:
            with VoodooEngine(store, config=config) as engine:
                key = engine.cache_key(make_query())
                assert key == (make_query(), store.fingerprint())
                keys.add(key)
                result = engine.execute(make_query())
                assert result.compiled.options == engine.options
                assert engine.execute(make_query()).compiled is result.compiled
                compiled.append(result.compiled)
        assert len(keys) == 1
        assert len({id(plan) for plan in compiled}) == len(configs)

    def test_aux_vectors_do_not_thrash_the_cache(self):
        """LIKE membership tables registered during translation must not
        change the key between the first and second execution."""
        store = make_store()
        engine = VoodooEngine(store)
        key = engine.cache_key(make_query())
        from repro.core.vector import StructuredVector
        store.add_aux("aux_like", StructuredVector.from_arrays(m=np.zeros(4, dtype=bool)))
        assert engine.cache_key(make_query()) == key


def join_store():
    store = ColumnStore()
    store.add(Table.from_arrays(
        "f", fk=np.array([0, 3, 9, 5, 3], np.int64), x=np.arange(5.0)))
    store.add(Table.from_arrays(
        "d", dk=np.arange(10, dtype=np.int64), y=np.arange(10, dtype=np.int64) * 10))
    return store


def join_query():
    """Built for a key domain of 20 while ``d`` holds keys 0-9: a hash
    join until ``d`` grows to all 20 keys, a positional one from then on
    (translation reads ``d.dk`` to choose)."""
    return Query(plan=Join(Scan("f"), Scan("d"), Col("fk"), Col("dk"), {"y": "y"},
                           domain=20), select=["x", "y"])


def grow_d(store):
    store.append("d", {"dk": np.arange(10, 20), "y": np.arange(10, 20) * 10})


def assert_same_table(a, b):
    assert a.columns == b.columns
    for column in a.columns:
        assert a.column(column).dtype == b.column(column).dtype
        assert np.array_equal(a.column(column), b.column(column))


class TestAppends:
    """The key holds no contents: a plan survives an append unless its
    translation read the appended table, which it records."""

    def test_append_to_the_probe_side_keeps_the_plan(self):
        store = join_store()
        engine = VoodooEngine(store)
        first = engine.execute(join_query())
        store.append("f", {"fk": [9], "x": [5.0]})
        again = engine.execute(join_query())
        assert again.compiled is first.compiled
        assert engine.cache_info()["plan_misses"] == 1
        assert_same_table(again.table, VoodooEngine(store).query(join_query()))

    def test_kept_query_recompiles_once_its_build_table_grows(self):
        store = join_store()
        engine = VoodooEngine(store)
        query = join_query()
        first = engine.execute(query)
        assert "Scatter(" in to_ssa(first.compiled.program)  # a hash join
        grow_d(store)
        grown = engine.execute(query)
        assert (engine.cache_info()["plan_misses"], engine.cache_info()["size"]) == (2, 1)
        assert "Scatter(" not in to_ssa(grown.compiled.program)  # positional now
        fresh = VoodooEngine(store).execute(query)
        assert to_ssa(grown.compiled.program) == to_ssa(fresh.compiled.program)
        assert_same_table(grown.table, fresh.table)
        assert engine.execute(query).compiled is grown.compiled
        assert engine.cache_info()["plan_misses"] == 2

    def test_kept_prepared_query_explains_then_recompiles(self):
        """``explain`` reports an entry the version check rejects as not
        cached; the lookup it makes compiles the replacement."""
        store = join_store()
        engine = VoodooEngine(store)
        prepared = engine.prepare(join_query())
        prepared.execute()
        assert "cached before this call: True" in prepared.explain()
        grow_d(store)
        assert "cached before this call: False" in prepared.explain()
        assert engine.cache_info()["plan_misses"] == 2
        assert "cached before this call: True" in prepared.explain()
        assert_same_table(prepared.table(), VoodooEngine(store).query(join_query()))
        assert engine.cache_info()["plan_misses"] == 2
