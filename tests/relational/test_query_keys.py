"""A query is a value: plan and expression nodes key themselves once,
when they are built.

The key is what the plan cache and the prepared-query memo hash: two
independently built but structurally identical queries are equal and
hash equal, a bound parameter keys like the hand-built literal, and
literals that translate differently key apart.  Nodes are frozen, so a
built query cannot change under its key, and executing or preparing an
already-built query walks no tree.
"""

from dataclasses import FrozenInstanceError
from types import MappingProxyType

import numpy as np
import pytest

from repro.relational import EngineConfig, Param, VoodooEngine
from repro.relational import expressions as ex
from repro.relational.algebra import AggSpec, Filter, GroupBy, Map, Query, Scan
from repro.relational.expressions import Cmp, Col, Lit, ScalarOf
from repro.storage import ColumnStore, Table
from repro.tpch import QUERIES, build, generate


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


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.002, seed=3)


def param_query(threshold) -> Query:
    plan = Filter(Scan("t"), Cmp("le", Col("v"), threshold))
    plan = GroupBy(plan, keys=[], aggs={"s": AggSpec("sum", Col("v")),
                                        "c": AggSpec("count")})
    return Query(plan=plan, select=["s", "c"])


@pytest.fixture
def walks(monkeypatch) -> list:
    """Every node built (its key computed) and every reflection of a
    node's fields from here on: what walking a query tree costs."""
    calls: list = []
    build_node = ex.Node.__post_init__
    fields_of = ex.node_fields

    def counted_build(node):
        calls.append(("build", type(node).__name__))
        build_node(node)

    def counted_fields(cls):
        calls.append(("fields", cls.__name__))
        return fields_of(cls)

    monkeypatch.setattr(ex.Node, "__post_init__", counted_build)
    monkeypatch.setattr(ex, "node_fields", counted_fields)
    return calls


def scalar_ofs(node) -> list:
    """Every ScalarOf below *node*, in field order."""
    if isinstance(node, ScalarOf):
        return [node]
    if isinstance(node, ex.Node):
        children = [getattr(node, name) for name in ex.node_fields(type(node))]
    elif isinstance(node, tuple):
        children = list(node)
    elif isinstance(node, MappingProxyType):
        children = list(node.values())
    else:
        return []
    return [found for child in children for found in scalar_ofs(child)]


class TestKeys:
    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_every_tpch_query_built_twice_keys_equal(self, tpch_store, number):
        first, second = build(tpch_store, number), build(tpch_store, number)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        with VoodooEngine(tpch_store) as engine:
            assert engine.cache_key(first) == engine.cache_key(second)

    def test_literal_classes_key_apart(self):
        """Each of these literals translates to its own Constant (dtype or
        bits differ), so no two may share a plan; a NaN keys equal to a
        NaN built elsewhere, so a NaN query still hits its own plan."""
        values = [1, 1.0, True, 0.0, -0.0, float("nan"),
                  np.int64(1), np.float64(1.0), np.bool_(True), np.float64(-0.0)]
        queries = [param_query(Lit(value)) for value in values]
        assert len(set(queries)) == len(values)
        for index, query in enumerate(queries):
            assert [other == query for other in queries].count(True) == 1, values[index]
        assert param_query(Lit(float("nan"))) == param_query(Lit(float("nan")))

    def test_array_leaves_key_by_dtype_shape_and_bytes(self):
        def inset(values):
            return Query(plan=Filter(Scan("t"), ex.InSet(Col("k"), (values,))),
                         select=["k"])

        base = np.arange(4, dtype=np.int64)
        assert inset(base) == inset(base.copy())
        assert inset(base) != inset(base.astype(np.int32))
        assert inset(base) != inset(base.reshape(2, 2))
        assert inset(base) != inset(base + 1)

    def test_list_and_tuple_fields_key_alike(self):
        assert Query(plan=Scan("t"), select=["k", "v"]) == Query(
            plan=Scan("t"), select=("k", "v"))

    def test_scalar_of_hashes_by_value(self, tpch_store):
        """Equal ScalarOfs hash equal: they used to hash by the identity
        of their sub-plan while comparing it by value."""
        (first,), (second,) = (scalar_ofs(build(tpch_store, 15)) for _ in range(2))
        assert first is not second and first.plan is not second.plan
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


class TestFrozen:
    def test_fields_cannot_be_reassigned(self):
        query = param_query(Lit(0.25))
        with pytest.raises(FrozenInstanceError):
            query.select = ["s"]
        with pytest.raises(FrozenInstanceError):
            query.plan.child = Scan("u")

    def test_containers_are_read_only_copies(self):
        cols = {"w": Col("v") * Lit(2.0)}
        select = ["w"]
        query = Query(plan=Map(Scan("t"), cols), select=select)
        key = hash(query)
        with pytest.raises(TypeError):
            query.plan.cols["x"] = Col("k")
        with pytest.raises(AttributeError):
            query.select.append("k")
        cols["x"] = Col("k")  # the caller's dict and list stay the caller's
        select.append("k")
        assert set(query.plan.cols) == {"w"} and query.select == ("w",)
        assert hash(query) == key

    def test_param_names_in_discovery_order(self):
        pred = (Col("v") > Param("lo")) & (Col("k") < Param("hi") + Param("lo"))
        query = Query(plan=Filter(Scan("t"), pred), select=["v"])
        assert query.param_names == ("lo", "hi")
        assert param_query(Lit(0.5)).param_names == ()


class TestBoundQueries:
    """A bound query is the hand-built literal query: equal, hash equal,
    one plan-cache entry."""

    def test_memoized_bind_is_the_bound_query(self, store):
        with VoodooEngine(store) as engine:
            prepared = engine.prepare(param_query(Param("theta")))
            bound = prepared.bind(theta=0.25)
            assert bound == param_query(Lit(0.25))
            assert hash(bound) == hash(param_query(Lit(0.25)))
            assert prepared.bind(theta=0.25) is bound
            plain = engine.prepare(param_query(Lit(0.25)))
            assert plain.bind() is plain.query

    def test_equal_values_of_other_types_bind_their_own_literal(self, store):
        """1, 1.0 and True are equal dict keys; each binds its own Lit."""
        with VoodooEngine(store) as engine:
            prepared = engine.prepare(param_query(Param("theta")))
            bound = [prepared.bind(theta=value) for value in (1, 1.0, True)]
            for value, query in zip((1, 1.0, True), bound):
                assert query == param_query(Lit(value))
            assert len(set(bound)) == 3

    def test_adhoc_literal_and_prepared_bind_share_one_plan(self, store):
        with VoodooEngine(store) as engine:
            prepared = engine.prepare("SELECT SUM(v) AS s FROM t WHERE v <= :theta")
            bound = prepared.table(theta=0.5)
            adhoc = engine.query("SELECT SUM(v) AS s FROM t WHERE v <= 0.5")
            assert bound.rows() == adhoc.rows()
            info = engine.cache_info()
            assert (info["plan_misses"], info["plan_hits"], info["size"]) == (1, 1, 1)


class TestNoWalk:
    @pytest.mark.parametrize("config", [EngineConfig(), EngineConfig(tracing=False)])
    def test_warm_bound_statement_walks_nothing(self, store, config, walks):
        with VoodooEngine(store, config=config) as engine:
            prepared = engine.prepare(param_query(Param("theta")))
            walks.clear()
            prepared.execute(theta=0.25)  # cold: binds (builds nodes) once
            assert ("build", "Query") in walks
            walks.clear()
            for _ in range(3):
                prepared.execute(theta=0.25)
            assert walks == []
            assert engine.cache_info()["plan_hits"] == 3

    def test_warm_execute_of_a_built_query_walks_nothing(self, store, walks):
        query = param_query(Lit(0.25))
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            engine.execute(query)
            walks.clear()
            for _ in range(3):
                engine.execute(query)
            assert walks == []
            assert engine.cache_info()["plan_hits"] == 3

    def test_cold_prepare_of_a_built_query_walks_nothing(self, tpch_store, walks):
        queries = [build(tpch_store, number) for number in sorted(QUERIES)]
        with VoodooEngine(tpch_store) as engine:
            walks.clear()
            prepared = [engine.prepare(query) for query in queries]
            assert walks == []
            assert [p.query for p in prepared] == queries
            assert all(p.params == () for p in prepared)
            assert len({engine.cache_key(query) for query in queries}) == len(queries)
            assert walks == []
