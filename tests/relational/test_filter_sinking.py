"""Filter sinking (:mod:`repro.relational.sinking`): where each conjunct
lands, and that the tables do not change by one bit.

A seeded generator builds a ``Filter`` over one to three ``Join`` /
``SemiJoin`` nodes (positional and hash joins, semi- and anti-joins, fact
keys outside the dimension's domain, so some joined rows are ε) whose
predicate mixes conjuncts over fact columns, over pulled columns, over
both, a column-free one and one over a pulled column that shadows a
fact column.  Each case checks the rewrite's placement against the rule
and runs the rewritten plan (:func:`sink_filters`, called directly)
against the plan as written (the translator's rewrite turned into the
identity) on the fused, native, ``workers=2`` and segmented-compressed
configurations: every table bit-identical, and the fused program's
output vectors too, ε payloads and masks included.

The TPC-H pins: the rewrite translates Q7 and Q19 exactly as the plans
with their ``lineitem`` conjuncts placed by hand, and returns every other
TPC-H plan as the very object it was given.
"""

import numpy as np
import pytest

from repro.compiler import ExecutionOptions, compile_program
from repro.core.printer import to_ssa
from repro.relational import (
    AggSpec, Cmp, Col, EngineConfig, Filter, GroupBy, InSet, Join, KeySpec, Lit, Map, Query,
    Scan, SemiJoin, VoodooEngine,
)
from repro.relational.expressions import columns_used
from repro.relational.sinking import Sinking, conjuncts, sink_filters
from repro.storage import ColumnStore, Table, resegment
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate
from repro.tpch.queries import (
    _code, _codes_in, _join_nation, _join_orders, _join_part, _join_supplier, _n, _revenue,
)
from repro.tpch.schema import date

SEEDS = range(24)
D1 = 12  # d1's dense keys 1..D1: a positional join


def case_store(rng: np.random.Generator) -> ColumnStore:
    n = int(rng.choice([0, 1, 5, 40, 300]))
    store = ColumnStore()
    store.add(Table.from_arrays(
        "f",
        k1=rng.integers(-1, D1 + 4, n),          # out of d1's domain now and then
        k2=rng.integers(0, 30, n),
        a=rng.integers(-20, 20, n),
        b=rng.random(n),
        c=rng.integers(0, 6, n),
    ))
    store.add(Table.from_arrays(
        "d1", pk=np.arange(1, D1 + 1), x=rng.integers(-5, 5, D1), y=rng.random(D1),
    ))
    sparse = np.sort(rng.choice(30, 9, replace=False))
    store.add(Table.from_arrays("d2", sk=sparse, z=rng.integers(0, 4, 9)))
    return store


def joins(rng: np.random.Generator, plan):
    """1-3 joins over *plan*, and the names they pull, in pull order."""
    pulled: list[str] = []
    for level in range(int(rng.integers(1, 4))):
        kind = rng.choice(["positional", "hash", "semi"])
        if kind == "positional":
            # pulling "a" shadows the fact column of that name above this join
            name = "a" if rng.random() < 0.4 and "a" not in pulled else f"x{level}"
            plan = Join(plan, Scan("d1"), fact_key=Col("k1"), dim_key=Col("pk"),
                        pull={name: "x", f"y{level}": "y"}, domain=D1, offset=1)
            pulled += [name, f"y{level}"]
        elif kind == "hash":
            plan = Join(plan, Scan("d2"), fact_key=Col("k2"), dim_key=Col("sk"),
                        pull={f"z{level}": "z"}, domain=30)
            pulled.append(f"z{level}")
        else:
            build_side = Scan("d2") if rng.random() < 0.5 else Filter(
                Scan("d2"), Col("z") > Lit(0))
            plan = SemiJoin(plan, build_side, fact_key=Col("k2"), dim_key=Col("sk"),
                            domain=30, negated=bool(rng.random() < 0.5))
    return plan, pulled


def predicate(rng: np.random.Generator, pulled: list[str]):
    """A conjunction of 2-5 conjuncts over fact and pulled columns."""
    fact = [
        lambda: Col("a") > Lit(int(rng.integers(-20, 20))),
        lambda: Col("a").between(int(rng.integers(-20, 0)), int(rng.integers(0, 20))),
        lambda: InSet(Col("c"), tuple(int(v) for v in rng.choice(6, 2, replace=False))),
        lambda: Col("b") < Lit(float(rng.random())),
        lambda: (Col("c").eq(Lit(1)) | (Col("a") < Lit(0))),
    ]
    terms = [fact[int(rng.integers(len(fact)))]() for _ in range(int(rng.integers(1, 4)))]
    if pulled:
        name = str(rng.choice(pulled))
        terms.append(Col(name) > Lit(0))
        terms.append(Col("a") + Col(name) < Lit(int(rng.integers(-5, 10))))
    if rng.random() < 0.4:
        terms.append(Cmp("lt", Lit(1), Lit(int(rng.integers(0, 3)))))  # column-free
    rng.shuffle(terms)
    pred = terms[0]
    for term in terms[1:]:
        pred = pred & term
    return pred


def case(seed: int) -> tuple[ColumnStore, Query]:
    rng = np.random.default_rng(seed)
    store = case_store(rng)
    plan, pulled = joins(rng, Scan("f"))
    plan = Filter(plan, predicate(rng, pulled))
    if rng.random() < 0.5:
        plan = GroupBy(plan, keys=(), aggs={"total": AggSpec("sum", Col("a")),
                                            "rows": AggSpec("count")})
        return store, Query(plan=plan, select=["total", "rows"])
    return store, Query(plan=plan, select=["k1", "a", "b", *pulled[-1:]])


def leaves(pred):
    out = []
    conjuncts(pred, lambda c: out.append(c) or True)
    return out


def placements(plan, depth: int = 0, found=None) -> dict:
    """``{id(conjunct): joins above it}`` over every Filter of *plan*."""
    found = {} if found is None else found
    if isinstance(plan, Filter):
        for conjunct in leaves(plan.pred):
            found[id(conjunct)] = depth
    if isinstance(plan, (Join, SemiJoin)):
        placements(plan.child, depth + 1, found)
    elif hasattr(plan, "child"):
        placements(plan.child, depth, found)
    return found


def join_chain(plan) -> list:
    """The joins under the top Filter, top down."""
    chain, node = [], plan.child
    while isinstance(node, (Join, SemiJoin, Filter)):
        if not isinstance(node, Filter):
            chain.append(node)
        node = node.child
    return chain


@pytest.mark.parametrize("seed", SEEDS)
def test_each_conjunct_sinks_below_exactly_the_joins_it_does_not_need(seed):
    store, query = case(seed)
    top = query.plan.child if isinstance(query.plan, GroupBy) else query.plan
    chain = join_chain(top)
    fact_columns = set(store.table("f").columns)
    rewritten = sink_filters(query.plan, store)
    where = placements(rewritten)
    for conjunct in leaves(top.pred):
        used = columns_used(conjunct)
        # the joins it may pass: from the top, while the probe side shows
        # every column it reads and the join pulls none of them
        passes = 0
        for join in chain:
            below = fact_columns.union(*(getattr(j, "pull", {}) for j in chain[passes + 1:]))
            if not used or not used <= below or used & set(getattr(join, "pull", {})):
                break
            passes += 1
        assert where[id(conjunct)] == passes, (seed, conjunct, passes)
    if not any(where[id(c)] for c in leaves(top.pred)):
        assert rewritten is query.plan, seed


def identity(self, node):
    return node


def tables(store, query, config: EngineConfig, pooled: bool = False):
    engine = VoodooEngine(store, config=config)
    if pooled:
        engine._parallel_backend._effective = 2  # a real pool, also on one CPU
    with engine, crossover(0 if pooled else float("inf")):
        return engine.query(query)


def same_table(a, b) -> bool:
    if a.columns != b.columns:
        return False
    for name in a.columns:
        x, y = np.asarray(a.column(name)), np.asarray(b.column(name))
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def same_vectors(a: dict, b: dict) -> bool:
    for name in a:
        x, y = a[name], b[name]
        if len(x) != len(y) or set(x.paths) != set(y.paths):
            return False
        for path in x.paths:
            if x.attr(path).dtype != y.attr(path).dtype or not np.array_equal(
                    x.attr(path), y.attr(path), equal_nan=x.attr(path).dtype.kind == "f"):
                return False
            if not np.array_equal(x.present(path), y.present(path)):
                return False
    return a.keys() == b.keys()


CONFIGS = {
    "fused": (EngineConfig(tracing=False), False),
    "native": (EngineConfig(native=True, tracing=False), False),
    "workers=2": (EngineConfig(execution=ExecutionOptions(workers=2)), True),
}


@pytest.mark.parametrize("seed", SEEDS)
def test_sunk_filters_keep_every_table_bit_identical(seed, monkeypatch):
    store, query = case(seed)
    sunk = Query(plan=sink_filters(query.plan, store), select=query.select)
    compressed = resegment(store, encoding="auto", segment_rows=16)
    runs = {name: (store, *setting) for name, setting in CONFIGS.items()}
    runs["segmented-compressed"] = (compressed, EngineConfig(tracing=False), False)
    got = {name: tables(each, sunk, config, pooled)
           for name, (each, config, pooled) in runs.items()}
    engine = VoodooEngine(store)
    rewritten = compile_program(engine.translate(sunk), engine.options).run(
        store.vectors(), collect_trace=False)[0]
    with monkeypatch.context() as patch:
        patch.setattr(Sinking, "plan", identity)
        for name, (each, config, pooled) in runs.items():
            assert same_table(got[name], tables(each, query, config, pooled)), (seed, name)
        written = compile_program(engine.translate(query), engine.options).run(
            store.vectors(), collect_trace=False)[0]
    assert same_vectors(rewritten, written), seed


# -- TPC-H -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.005, seed=7)


def q7_by_hand(store) -> Query:
    """Q7 with its ``l_shipdate`` window written below the supplier join."""
    n1, n2 = _code(store, "nation", "n_name", "FRANCE"), _code(store, "nation", "n_name", "GERMANY")
    window = Filter(Scan("lineitem"),
                    Col("l_shipdate").between(date(1995, 1, 1), date(1996, 12, 31)))
    plan = _join_supplier(window, store, {"s_nationkey": "s_nationkey"})
    plan = _join_orders(plan, store, {"o_custkey": "o_custkey"})
    plan = Join(plan, Scan("customer"), fact_key=Col("o_custkey"),
                dim_key=Col("c_custkey"), pull={"c_nationkey": "c_nationkey"},
                domain=_n(store, "customer"), offset=1)
    plan = _join_nation(plan, store, "s_nationkey", {"supp_nation": "n_name"})
    plan = _join_nation(plan, store, "c_nationkey", {"cust_nation": "n_name"})
    plan = Filter(plan, (Col("supp_nation").eq(Lit(n1)) & Col("cust_nation").eq(Lit(n2)))
                  | (Col("supp_nation").eq(Lit(n2)) & Col("cust_nation").eq(Lit(n1))))
    plan = Map(plan, {"l_year": Lit(1992) + Col("l_shipdate") // 365, "volume": _revenue()})
    plan = GroupBy(
        plan,
        keys=[KeySpec("supp_nation", Col("supp_nation"), card=25),
              KeySpec("cust_nation", Col("cust_nation"), card=25),
              KeySpec("l_year", Col("l_year"), card=2, offset=1995)],
        aggs={"revenue": AggSpec("sum", Col("volume"))},
    )
    written = build(store, 7)
    return Query(plan=plan, select=written.select, order_by=written.order_by,
                 decode=written.decode)


def q19_by_hand(store) -> Query:
    """Q19 with ``l_shipmode IN (AIR, REG AIR) AND l_shipinstruct = 'DELIVER
    IN PERSON'`` written below the part join."""
    written = build(store, 19)
    air = InSet(Col("l_shipmode"), _codes_in(store, "lineitem", "l_shipmode",
                                             ["AIR", "REG AIR"]))
    in_person = Col("l_shipinstruct").eq(
        Lit(_code(store, "lineitem", "l_shipinstruct", "DELIVER IN PERSON")))
    plan = _join_part(Filter(Scan("lineitem"), air & in_person), store,
                      {"p_brand": "p_brand", "p_container": "p_container", "p_size": "p_size"})
    clauses = written.plan.child.pred.left.left  # (clause1 | clause2 | clause3)
    plan = Filter(plan, clauses)
    plan = GroupBy(plan, keys=[], aggs={"revenue": AggSpec("sum", _revenue())})
    return Query(plan=plan, select=["revenue"])


@pytest.mark.parametrize("number, by_hand", [(7, q7_by_hand), (19, q19_by_hand)])
def test_q7_and_q19_translate_as_placed_by_hand(tpch_store, number, by_hand):
    engine = VoodooEngine(tpch_store)
    query = build(tpch_store, number)
    placed = by_hand(tpch_store)
    assert sink_filters(placed.plan, tpch_store) is placed.plan  # nothing left to move
    assert sink_filters(query.plan, tpch_store) == placed.plan
    assert to_ssa(engine.translate(query)) == to_ssa(engine.translate(placed))


@pytest.mark.parametrize("number", sorted(set(QUERIES) - {7, 19}))
def test_the_other_tpch_plans_are_returned_untouched(tpch_store, number):
    query = build(tpch_store, number)
    assert sink_filters(query.plan, tpch_store) is query.plan


def test_explain_names_each_moved_conjunct_and_its_join(tpch_store):
    engine = VoodooEngine(tpch_store)
    lines = engine.prepare(build(tpch_store, 19)).explain().splitlines()
    moved = [line for line in lines if line.startswith("filter sunk:")]
    modes = _codes_in(tpch_store, "lineitem", "l_shipmode", ["AIR", "REG AIR"])
    assert moved == [
        f"filter sunk: l_shipmode IN {modes} runs below the join with part on l_partkey",
        f"filter sunk: l_shipinstruct = "
        f"{_code(tpch_store, 'lineitem', 'l_shipinstruct', 'DELIVER IN PERSON')!r} "
        "runs below the join with part on l_partkey",
    ]
    assert not any(line.startswith("filter sunk:")
                   for line in engine.prepare(build(tpch_store, 1)).explain().splitlines())


def test_a_shared_sub_plan_stays_one_sub_plan():
    """One memo per translation: a sub-plan two parents share is rewritten
    once, and both parents hold the one rewritten object."""
    store, _ = case(3)
    inner = Filter(Join(Scan("f"), Scan("d1"), fact_key=Col("k1"), dim_key=Col("pk"),
                        pull={"x": "x"}, domain=D1, offset=1), Col("a") > Lit(0))
    left = GroupBy(inner, keys=(), aggs={"s": AggSpec("sum", Col("x"))})
    right = GroupBy(inner, keys=(), aggs={"m": AggSpec("max", Col("a"))})
    sinking = Sinking(store)
    assert sinking.plan(left).child is sinking.plan(right).child is sinking.plan(inner)
    assert sinking.plan(inner) is not inner and len(sinking.moves) == 1
