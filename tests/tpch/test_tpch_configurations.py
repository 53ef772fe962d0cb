"""TPC-H under every configuration that runs differently.

Untraced execution reads two knobs: ``options.native`` (the C float
sum) and ``execution.workers`` (the partition-parallel backend); every
untraced run keeps fold-only scatters virtual (section 3.1.3).  Each
point of their 2 x 2 product is one engine, built with that one
configuration.  Beside them run the configurations that execute
differently for another reason: a traced engine whose plan lands its
scatters (``virtual_scatter=False``) or runs operator-at-a-time
(``fuse=False``), and untraced engines over the same data on another
segment grid (tiny plain segments; compressed ones), whole and pooled.
Each point returns exactly the bits of the default untraced engine on
all 14 evaluated TPC-H queries.  The knobs change wall-clock, never
results.

The ``workers=2`` points run every plan that splits on the pool
(crossover 0, a core per worker on any host), so the parallel
composition of the other knobs gets real traffic.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.relational import EngineConfig, VoodooEngine
from repro.storage.columnstore import resegment
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate

W2 = ExecutionOptions(workers=2)

#: label -> (engine configuration, segment grid of the store it runs on);
#: the default untraced engine on the generated store is the reference
POINTS = {
    "native+w1": (EngineConfig(native=True, tracing=False), None),
    "numpy+w2": (EngineConfig(execution=W2), None),
    "native+w2": (EngineConfig(native=True, execution=W2), None),
    "traced-landed": (
        EngineConfig(options=CompilerOptions(virtual_scatter=False), tracing=True), None),
    "traced-operator-at-a-time": (
        EngineConfig(options=CompilerOptions(fuse=False), tracing=True), None),
    "plain-small+w1": (EngineConfig(tracing=False), "plain-small"),
    "plain-small+w2": (EngineConfig(execution=W2), "plain-small"),
    "compressed+w1": (EngineConfig(tracing=False), "compressed"),
    "compressed+w2": (EngineConfig(execution=W2), "compressed"),
}

#: segment grid -> resegment() arguments: odd sizes, so segment
#: boundaries fall inside runs, chunks and groups
GRIDS = {
    "plain-small": {"encoding": "plain", "segment_rows": 61},
    "compressed": {"encoding": "auto", "segment_rows": 59},
}


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
    stores = {}

    def get(label) -> VoodooEngine:
        if label not in built:
            config, grid = POINTS[label]
            if grid is not None and grid not in stores:
                stores[grid] = resegment(store, **GRIDS[grid])
            engine = VoodooEngine(store if grid is None else stores[grid], config=config)
            if engine._parallel_backend is not None:
                engine._parallel_backend._effective = config.execution.workers
            built[label] = engine
        return built[label]

    yield get
    for engine in built.values():
        engine.close()


@pytest.mark.parametrize("label", sorted(POINTS))
@pytest.mark.parametrize("number", sorted(QUERIES))
def test_configuration_bit_identical_to_default(store, reference, engines, label, number):
    engine = engines(label)
    config, grid = POINTS[label]
    assert engine.config == config.resolved()
    assert (engine.store is store) == (grid is None)
    expected = reference.query(build(store, number))
    result = engine.execute(build(engine.store, number))
    got = result.table
    assert got.columns == expected.columns
    for column in expected.columns:
        a, b = expected.column(column), got.column(column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), column
    if engine.tracing:
        assert len(result.trace) > 0
        if not (config.options.fuse and config.options.virtual_scatter):
            assert not result.compiled.plan.virtual_scatters  # every scatter lands
    backend = engine._parallel_backend
    if not config.parallel:
        assert backend is None
    else:
        plan = backend.last_plan
        assert plan is not None and plan.parallel, (number, plan and plan.reason)
        assert backend._lease is not None
