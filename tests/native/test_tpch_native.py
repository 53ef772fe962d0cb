"""TPC-H through the native tier: bit-identity, and (with a compiler)
full-coverage execution with zero per-kernel fallbacks.
"""

import numpy as np
import pytest

from repro.native import have_compiler, snapshot
from repro.relational import EngineConfig, VoodooEngine
from repro.tpch import QUERIES, build, generate


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_native_bit_identical(store, number):
    """EngineConfig(native=True) returns exactly the bits of the
    reference engine on every evaluated TPC-H query — with or without a
    C compiler on the machine (degradation must not change results)."""
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as reference, \
            VoodooEngine(store, config=EngineConfig(
                native=True, tracing=False)) as native:
        expected = reference.query(build(store, number))
        got = native.query(build(store, number))
    assert got.columns == expected.columns
    for column in expected.columns:
        a, b = expected.column(column), got.column(column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), column


@pytest.mark.skipif(not have_compiler(), reason="no C compiler on this host")
def test_tpch_native_sweep_runs_without_fallbacks(store):
    """All 14 queries on one native engine: the C float sum serves
    them with zero fallbacks, and is genuinely exercised."""
    before = snapshot()
    with VoodooEngine(store, config=EngineConfig(
            native=True, tracing=False)) as engine:
        for number in sorted(QUERIES):
            engine.query(build(store, number))
        info = engine.cache_info()
    after = snapshot()
    assert after["fallbacks"] == before["fallbacks"], after["fallback_reasons"]
    assert after["fold_calls"] > before["fold_calls"]
    # the native counters surface through engine.cache_info()
    assert info["native_fold_calls"] == after["fold_calls"]
