"""The reference evaluator on the fourteen TPC-H queries: ORDER BY, LIMIT,
membership probes (LIKE) and decoding included, it agrees with the
hand-written references and with the engine's rows — exactly, except
float values within 1e-9 relative (the conformance comparison)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.relational import VoodooEngine
from repro.storage import ColumnStore
from repro.testing.conformance import compare_oracle
from repro.testing.oracle import Oracle, evaluate_with_scales
from repro.tpch import QUERIES, REFERENCES, build, generate

#: the tests/tpch fixture store (test_tpch.py) and the baselines' store
STORES = {"sf0.0075": 0.0075, "sf0.005": 0.005}


@pytest.fixture(scope="module", params=sorted(STORES))
def store(request):
    return generate(STORES[request.param], seed=7)


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


def _close(a, b, rtol=1e-9):
    if isinstance(a, (float, np.floating)) and isinstance(b, (float, np.floating)):
        return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))
    return a == b


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_oracle_agrees_with_engine_and_reference(store, engine, number):
    query = build(store, number)
    arrays, scales = evaluate_with_scales(store, query)
    assert compare_oracle(engine.query(query), arrays, scales) is None
    rows = [dict(zip(arrays, values)) for values in zip(*arrays.values())]
    reference = REFERENCES[number](store)
    if isinstance(reference, float):
        # one row holding the sum, or none when no row qualifies (an ε
        # sum, as the engine's rows above) and the reference sums nothing
        assert rows or reference == 0.0
        reference = [{query.select[0]: reference}] if rows else []
    assert len(rows) == len(reference)
    for got, expected in zip(rows, reference):
        for key, value in expected.items():
            assert _close(got[key], value), (number, key, got[key], value)


def test_unknown_plan_node_rejected():
    class Weird:
        pass

    with pytest.raises(ExecutionError):
        Oracle(ColumnStore()).plan(Weird())
