"""The serving pool and the chunk pool are never the same executor.

A query waits on the chunk tasks it submits.  When the scheduler's
request pool and an engine's chunk pool were one ``REGISTRY`` entry
(same width => same executor), N in-flight queries occupied every
thread and the chunks they queued behind themselves never ran.  The
test sends every chunk to the pool (crossover 0, a core per worker), so
that is what it exercises on any host.
"""

import asyncio

import pytest

from repro.compiler import ExecutionOptions
from repro.parallel import REGISTRY
from repro.relational import EngineConfig, VoodooEngine
from repro.serving import QueryScheduler, ServingConfig
from repro.testing import crossover
from repro.tpch import build, generate


@pytest.mark.parametrize("width", [2, 4])
def test_serving_width_equal_to_engine_workers_completes(width):
    store = generate(0.002, seed=5)
    query = build(store, 6)
    before = REGISTRY.stats()["active_leases"]

    async def serve():
        scheduler = QueryScheduler(ServingConfig(workers=width))
        engine = VoodooEngine(
            store, config=EngineConfig(execution=ExecutionOptions(workers=width)))
        engine._parallel_backend._effective = width
        try:
            expected = engine.query(query).rows()
            # hard timeout: a deadlocked pool must fail the test, not hang it
            tables = await asyncio.wait_for(
                asyncio.gather(*(
                    scheduler.run(lambda: engine.query(query)) for _ in range(2 * width)
                )),
                timeout=20,
            )
            pools = scheduler.stats()["pool_registry"]["pools"]
            assert engine._parallel_backend._lease is not None
        finally:
            scheduler.close()
            engine.close()
        return expected, tables, pools

    with crossover(0):
        expected, tables, pools = asyncio.run(serve())
    assert len(tables) == 2 * width
    assert all(table.rows() == expected for table in tables)
    # /stats accounts for both pools, under their roles
    assert pools[f"queries:{width}"] >= 1
    assert REGISTRY.stats()["active_leases"] == before
