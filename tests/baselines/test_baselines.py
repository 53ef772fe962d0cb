"""Baselines: correctness vs references and the engine, and strategy cost
signatures."""

import numpy as np
import pytest

from repro.baselines import HyperEngine, OcelotEngine
from repro.core import Keypath, StructuredVector
from repro.relational import VoodooEngine
from repro.relational import algebra as ra
from repro.relational.expressions import Col, Membership
from repro.storage import ColumnStore, Table
from repro.tpch import REFERENCES, build, generate

ENGINES = [HyperEngine, OcelotEngine]


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


def _close(a, b, tol=1e-6):
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("number", [1, 5, 6, 12, 19])
def test_baselines_compute_correct_answers(store, engine_cls, number):
    engine = engine_cls(store)
    query = build(store, number)
    result, _, _ = engine.execute(query)
    reference = REFERENCES[number](store)
    if isinstance(reference, float):
        # the engine's rule: a sum no row qualifies for is ε, so no row
        # (Q19 at this scale); otherwise one row holding the sum
        assert len(result) == len(VoodooEngine(store).query(query))
        if result:
            assert _close(float(list(result[0].values())[0]), reference)
        return
    assert len(result) == len(reference)
    for got_row, ref_row in zip(result, reference):
        for key, value in ref_row.items():
            assert _close(got_row[key], value), (number, key)


def test_ocelot_moves_more_bytes_than_hyper(store):
    """The strategies differ exactly in materialization traffic."""
    query = build(store, 1)
    _, hyper_trace, _ = HyperEngine(store).execute(query)
    _, ocelot_trace, _ = OcelotEngine(store).execute(query)

    def seq_bytes(trace):
        return sum(e.bytes_read_seq + e.bytes_written_seq for e in trace.events())

    assert seq_bytes(ocelot_trace) > 2 * seq_bytes(hyper_trace)


def test_ocelot_one_kernel_per_operator(store):
    query = build(store, 6)
    _, hyper_trace, _ = HyperEngine(store).execute(query)
    _, ocelot_trace, _ = OcelotEngine(store).execute(query)
    assert len(ocelot_trace.kernels) > len(hyper_trace.kernels)


def test_hyper_charges_branches(store):
    query = build(store, 6)
    _, trace, _ = HyperEngine(store).execute(query)
    assert trace.total_branches() > 0


def test_gpu_shrinks_ocelot_penalty(store):
    """Ocelot's bulk tax mostly disappears behind GPU bandwidth."""
    query = build(store, 1)
    cpu_ms = OcelotEngine(store, device="cpu-mt").milliseconds(query)
    gpu_ms = OcelotEngine(store, device="gpu").milliseconds(query)
    assert gpu_ms < cpu_ms


def tiny_store(**tables) -> ColumnStore:
    store = ColumnStore()
    for name, columns in tables.items():
        store.add(Table.from_arrays(name, **columns))
    return store


def keyed_store() -> ColumnStore:
    """A fact key (5) outside the dimension's domain of two slots."""
    return tiny_store(f={"k": np.array([0, 1, 5]), "v": np.array([10, 20, 30])},
                      d={"dk": np.array([0, 1]), "w": np.array([100, 200])})


def answers(engine_cls, store, query) -> list[dict]:
    """The baseline's rows, checked against the engine's first."""
    rows, _, _ = engine_cls(store).execute(query)
    np.testing.assert_equal(rows, VoodooEngine(store).query(query).to_dicts())  # NaN == NaN
    return rows


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_out_of_domain_join_key_finds_nothing(engine_cls):
    store = keyed_store()
    join = ra.Join(ra.Scan("f"), ra.Scan("d"), Col("k"), Col("dk"), {"w": "w"}, domain=2)
    rows = answers(engine_cls, store, ra.Query(join, ["v", "w"]))
    assert rows == [{"v": 10, "w": 100}, {"v": 20, "w": 200}]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("engine_cls", ENGINES)
def test_out_of_domain_semijoin_key_is_no_member(engine_cls, negated):
    store = keyed_store()
    semi = ra.SemiJoin(ra.Scan("f"), ra.Scan("d"), Col("k"), Col("dk"), domain=2,
                       negated=negated)
    rows = answers(engine_cls, store, ra.Query(semi, ["v"]))
    assert [row["v"] for row in rows] == ([30] if negated else [10, 20])


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_out_of_domain_membership_probe_finds_nothing(engine_cls):
    store = keyed_store()
    flags = np.array([False, True])
    store.add_aux("aux:test", StructuredVector.single(Keypath(["flag"]), flags))
    plan = ra.Filter(ra.Scan("f"), Membership(Col("k"), "aux:test"))
    rows = answers(engine_cls, store, ra.Query(plan, ["v"]))
    assert rows == [{"v": 20}]


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_desc_sorts_by_rank_not_by_negation(engine_cls):
    """Negating int64-min wraps onto itself, a bool has no negation, and
    a negated NaN is still NaN — which ranks largest in both directions."""
    low = np.iinfo(np.int64).min
    store = tiny_store(t={"i": np.arange(4), "x": np.array([3, low, 7, low]),
                          "b": np.array([False, True, False, True]),
                          "f": np.array([1.0, np.nan, -np.inf, np.nan])})

    def order(column, desc):
        query = ra.Query(ra.Scan("t"), ["i", column], order_by=[(column, desc)])
        return [row["i"] for row in answers(engine_cls, store, query)]

    assert order("x", True) == [2, 0, 1, 3]
    assert order("b", True) == [1, 3, 0, 2]  # stable within ties
    assert order("f", True) == [1, 3, 0, 2]
    assert order("f", False) == [2, 0, 1, 3]
