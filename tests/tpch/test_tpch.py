"""TPC-H: generator invariants and all fourteen evaluated queries vs
independent NumPy references."""

import numpy as np
import pytest

from repro.relational import VoodooEngine
from repro.tpch import CPU_QUERIES, GPU_QUERIES, QUERIES, REFERENCES, build, generate
from repro.tpch.schema import date


@pytest.fixture(scope="module")
def store():
    return generate(0.075 / 10, seed=7)  # ~0.0075: small but non-trivial


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


class TestCalendar:
    def test_epoch(self):
        assert date(1992, 1, 1) == 0

    def test_month_offsets(self):
        assert date(1992, 2, 1) == 31
        assert date(1993, 1, 1) == 365

    def test_bad_date(self):
        with pytest.raises(ValueError):
            date(1995, 13, 1)


class TestGenerator:
    def test_cardinality_ratios(self, store):
        assert len(store.table("partsupp")) == 4 * len(store.table("part"))
        assert len(store.table("nation")) == 25
        assert len(store.table("region")) == 5
        lineitem = len(store.table("lineitem"))
        orders = len(store.table("orders"))
        assert 1.0 <= lineitem / orders <= 7.0

    def test_dense_sorted_keys(self, store):
        for table, key in (("orders", "o_orderkey"), ("part", "p_partkey"),
                           ("supplier", "s_suppkey"), ("customer", "c_custkey")):
            data = store.table(table).column(key).data
            assert data[0] == 1
            assert (np.diff(data) == 1).all()

    def test_lineitem_fk_integrity(self, store):
        li = store.table("lineitem")
        assert li.column("l_orderkey").data.max() <= len(store.table("orders"))
        assert li.column("l_partkey").data.max() <= len(store.table("part"))
        assert li.column("l_suppkey").data.max() <= len(store.table("supplier"))

    def test_lineitem_supplier_matches_partsupp(self, store):
        """Every (l_partkey, l_suppkey) pair exists in partsupp."""
        li = store.table("lineitem")
        ps = store.table("partsupp")
        n_supp = len(store.table("supplier"))
        ps_keys = set(
            ((ps.column("ps_partkey").data - 1) * n_supp
             + (ps.column("ps_suppkey").data - 1)).tolist()
        )
        li_keys = ((li.column("l_partkey").data - 1) * n_supp
                   + (li.column("l_suppkey").data - 1))
        assert set(li_keys.tolist()) <= ps_keys

    def test_dates_consistent(self, store):
        li = store.table("lineitem")
        assert (li.column("l_receiptdate").data > li.column("l_shipdate").data).all()

    def test_deterministic(self):
        a = generate(0.003, seed=11)
        c = generate(0.003, seed=11)
        assert np.array_equal(
            a.table("lineitem").column("l_quantity").data,
            c.table("lineitem").column("l_quantity").data,
        )

    def test_seed_changes_data(self):
        a = generate(0.003, seed=1)
        c = generate(0.003, seed=2)
        assert not np.array_equal(
            a.table("lineitem").column("l_quantity").data,
            c.table("lineitem").column("l_quantity").data,
        )

    def test_query_lists(self):
        assert set(GPU_QUERIES) <= set(CPU_QUERIES)
        assert set(CPU_QUERIES) == set(QUERIES)


def _close(a, b, tol=1e-6):
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return abs(a - b) <= tol * max(1.0, abs(a), abs(b))
    return a == b


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_matches_reference(store, engine, number):
    result = engine.query(build(store, number)).to_dicts()
    reference = REFERENCES[number](store)
    if isinstance(reference, float):
        assert len(result) == 1
        got = float(list(result[0].values())[0])
        assert _close(got, reference), (got, reference)
        return
    assert len(result) == len(reference), (len(result), len(reference))
    for got_row, ref_row in zip(result, reference):
        for key, ref_value in ref_row.items():
            assert _close(got_row[key], ref_value), (number, key, got_row[key], ref_value)


def test_unknown_query_number(store):
    with pytest.raises(KeyError):
        build(store, 2)


def test_interpreter_agrees_on_q1(store):
    """The reference backend runs the full Q1 plan identically."""
    from repro.interpreter import Interpreter
    from repro.relational.translate import Translator

    query = build(store, 1)
    program = Translator(store).translate_query(query)
    interp_out = Interpreter(store.vectors()).run(program)["result"]
    compiled_out = VoodooEngine(store).execute(query)
    # compare via the extracted result table instead of raw vectors
    from repro.relational.engine import VoodooEngine as VE
    engine = VE(store)
    table = engine._extract(query, interp_out)
    assert table.to_dicts() == compiled_out.table.to_dicts()
