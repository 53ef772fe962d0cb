"""TPC-H under every configuration the untraced runner distinguishes.

Untraced execution reads three knobs: ``options.native`` (the C float
sum), ``options.virtual_scatter`` (section 3.1.3's materialization
ablation) and ``execution.workers`` (the partition-parallel backend).
Each point of their 2 x 2 x 2 product is one engine, built with that one
configuration, and each returns exactly the bits of the default engine
on all 14 evaluated TPC-H queries.  The knobs change wall-clock, never
results.

The ``workers=2`` points run every plan that splits on the pool
(crossover 0, a core per worker on any host), so the parallel
composition of the other two knobs gets real traffic.
"""

import itertools

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate

#: (native, virtual_scatter, workers) — the default (False, True, 1) is
#: the reference every other point is compared with
POINTS = [
    point for point in itertools.product((False, True), (True, False), (1, 2))
    if point != (False, True, 1)
]


def label(point) -> str:
    native, virtual_scatter, workers = point
    parts = ["native" if native else "numpy"]
    if not virtual_scatter:
        parts.append("no-virtual-scatter")
    parts.append(f"w{workers}")
    return "+".join(parts)


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


@pytest.fixture(scope="module")
def store():
    return generate(0.01, seed=42)


@pytest.fixture(scope="module")
def reference(store):
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        yield engine


@pytest.fixture(scope="module")
def engines(store):
    """One engine per point, built on first use and closed at the end."""
    built = {}

    def get(point) -> VoodooEngine:
        if point not in built:
            native, virtual_scatter, workers = point
            engine = VoodooEngine(store, config=EngineConfig(
                options=CompilerOptions(virtual_scatter=virtual_scatter),
                native=native,
                execution=ExecutionOptions(workers=workers),
                tracing=False,
            ))
            if engine._parallel_backend is not None:
                engine._parallel_backend._effective = workers
            built[point] = engine
        return built[point]

    yield get
    for engine in built.values():
        engine.close()


@pytest.mark.parametrize("point", POINTS, ids=label)
@pytest.mark.parametrize("number", sorted(QUERIES))
def test_configuration_bit_identical_to_default(store, reference, engines, point, number):
    engine = engines(point)
    native, virtual_scatter, workers = point
    assert engine.options.native is native
    assert engine.options.virtual_scatter is virtual_scatter
    expected = reference.query(build(store, number))
    got = engine.query(build(store, number))
    assert got.columns == expected.columns
    for column in expected.columns:
        a, b = expected.column(column), got.column(column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), column
    backend = engine._parallel_backend
    if workers == 1:
        assert backend is None
    else:
        plan = backend.last_plan
        assert plan is not None and plan.parallel, (number, plan and plan.reason)
        assert backend._lease is not None
