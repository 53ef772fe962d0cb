"""Warm plans stay warm, however many of them there are.

Everything an executor derives from a program — the runner's table of
planned nodes and virtual-scatter set, the partition plan — is memoized
on the program itself, so it lives exactly as long as the engine's
plan-cache entry.  The side caches this
replaced held 64 programs against the plan cache's 256: at 80 warm plans
(every lookup a plan-cache hit) each run re-planned.
Pinned by counting, never by timing.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import native
from repro.compiler import ExecutionOptions, compile_program
from repro.compiler.runner import planned_nodes
from repro.parallel import ParallelInterpreter, PartitionPlanner
from repro.relational import EngineConfig, VoodooEngine, parse_sql
from repro.storage import ColumnStore, Table
from repro.testing import crossover

PLANS = 80  # more than either side cache held (64), fewer than CACHE_CAPACITY


@pytest.fixture(scope="module")
def store() -> ColumnStore:
    rng = np.random.default_rng(5)
    n = 6000
    store = ColumnStore()
    store.add(Table.from_arrays(
        "t",
        k=rng.integers(0, 1000, n).astype(np.int64),
        v=np.round(rng.uniform(0, 1, n), 6),
        w=np.round(rng.uniform(0, 1, n), 6),
    ))
    return store


def queries(store, count=PLANS):
    """*count* plans that differ in one literal: distinct cache keys, and
    each with a float sum for the native tier's kernel."""
    return [
        parse_sql(f"SELECT SUM(v * w + v) AS s FROM t WHERE k < {100 + i}", store)
        for i in range(count)
    ]


def lap(engine, batch):
    return [engine.query(query).rows() for query in batch]


def test_parallel_engine_plans_each_warm_program_once(store, monkeypatch):
    calls = []
    plan = PartitionPlanner.plan
    monkeypatch.setattr(
        PartitionPlanner, "plan", lambda self: calls.append(1) or plan(self))
    batch = queries(store)
    config = EngineConfig(execution=ExecutionOptions(workers=2))
    with crossover(0), VoodooEngine(store, config=config) as engine:
        engine._parallel_backend._effective = 2  # a real pool, also on a 1-CPU host
        first = lap(engine, batch)
        assert len(calls) == PLANS
        assert engine._parallel_backend.last_plan.parallel
        lap(engine, batch)
        del calls[:]
        assert lap(engine, batch) == first
        assert calls == []
        info = engine.cache_info()
        assert info["plan_misses"] == PLANS and info["plan_hits"] == 2 * PLANS


@pytest.mark.skipif(not native.have_compiler(), reason="no C compiler on this host")
def test_native_engine_loads_nothing_in_a_warm_window(store):
    batch = queries(store)
    with VoodooEngine(store, config=EngineConfig(native=True, tracing=False)) as engine:
        first = lap(engine, batch)
        lap(engine, batch)
        before = native.snapshot()
        assert lap(engine, batch) == first
        after = native.snapshot()
    assert after["fold_calls"] - before["fold_calls"] >= PLANS
    for counter in ("memory_hits", "so_cache_hits", "kernels_compiled"):
        assert after[counter] == before[counter], counter


@pytest.mark.parametrize("config", [
    EngineConfig(native=True, tracing=False),
    EngineConfig(execution=ExecutionOptions(workers=2)),
], ids=["native", "parallel"])
def test_evicted_plan_takes_its_derived_state_along(store, monkeypatch, config):
    monkeypatch.setattr(VoodooEngine, "CACHE_CAPACITY", 4)
    batch = queries(store, 6)
    with VoodooEngine(store, config=config) as engine:
        engine.query(batch[0])
        program = engine.compile(batch[0]).program
        assert program.memo  # planned nodes / partition plan live on it
        ref = weakref.ref(program)
        del program
        lap(engine, batch[1:])  # four more plans: the first is evicted
        assert engine.cache_info()["size"] == 4
        gc.collect()  # a partition plan points back at its program
        assert ref() is None, "something outside the plan cache pins the program"


def test_racing_first_runs_publish_one_node_table_and_one_plan(store):
    """More threads than cores, a short switch interval: whoever plans,
    everybody ends up holding the one published, fully built object."""
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        program = compile_program(engine.translate(queries(store, 1)[0])).program
        vectors = engine.vectors()
    program.memo.pop("nodes")  # as a bare program's first runs find it
    threads, barrier = 8, threading.Barrier(8)
    tables, plans, errors = [], [], []
    runner = ParallelInterpreter(workers=2)  # shared: a run keeps no state

    def first_run():
        try:
            barrier.wait(timeout=10)
            tables.append(planned_nodes(program))
            plans.append(runner._plan(program, vectors))
        except Exception as exc:  # surfaced below, with the others
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with crossover(0):  # plans that split, however small the store
            workers = [threading.Thread(target=first_run) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(worker.is_alive() for worker in workers)
    assert len(tables) == threads and all(t is tables[0] for t in tables)
    assert tables[0] is program.memo["nodes"]
    published = program.memo[("partition_plan", 2, 0)][1]
    assert len(plans) == threads
    for plan in plans:  # a loser of the race may hold its own, equal plan
        assert plan.parallel and plan.chunks == published.chunks
        assert plan.zones == published.zones
