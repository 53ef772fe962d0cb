"""One parallel engine, many caller threads.

A parallel run is a function of its arguments — the Load context and the
per-run fields are handed to ``ParallelInterpreter.run`` — so nothing
serialises the queries of a concurrent server: they overlap, they return
exactly the bits a single caller gets, and the only shared resource, the
worker-pool lease, is taken once and returned by ``close()``.  The pool
crossover is 0 throughout and the engine has a core per worker, so every
query's chunks go to the pool, on any host.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import native
from repro.compiler import ExecutionOptions
from repro.core import ops
from repro.parallel import REGISTRY, ParallelInterpreter
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.prepared import PreparedQuery, bind_params
from repro.storage import ColumnStore, Table
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate

THREADS = 8
PER_THREAD = 40


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=11)


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


def parallel_engine(store, use_native: bool) -> VoodooEngine:
    engine = VoodooEngine(
        store, config=EngineConfig(execution=ExecutionOptions(workers=2), native=use_native))
    engine._parallel_backend._effective = 2  # a real pool, also on a 1-CPU host
    return engine


def identical(a, b) -> bool:
    """dtype + bytes, NaN-for-NaN."""
    if a.columns != b.columns:
        return False
    for name in a.columns:
        x, y = a.column(name), b.column(name)
        if x.dtype != y.dtype or len(x) != len(y):
            return False
        if x.dtype.kind == "O":
            if x.tolist() != y.tolist():
                return False
        elif not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
            return False
    return True


@pytest.mark.parametrize("use_native", [False, True], ids=["numpy", "native"])
def test_eight_threads_bit_identical_to_a_single_caller(store, use_native):
    if use_native and not native.have_compiler():
        pytest.skip("no C compiler on this host")
    numbers = sorted(QUERIES)
    queries = {n: build(store, n) for n in numbers}
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as reference:
        expected = {n: reference.query(queries[n]) for n in numbers}
    leases = REGISTRY.stats()["active_leases"]
    mismatches: list[tuple[int, int]] = []

    def caller(thread: int) -> int:
        rng = np.random.default_rng(thread)
        done = 0
        for number in rng.choice(numbers, PER_THREAD):
            if not identical(expected[number], engine.query(queries[number])):
                mismatches.append((thread, int(number)))
            done += 1
        return done

    with parallel_engine(store, use_native) as engine:
        with ThreadPoolExecutor(THREADS) as callers:
            done = sum(callers.map(caller, range(THREADS)))
        assert REGISTRY.stats()["active_leases"] <= leases + 1
    assert done == THREADS * PER_THREAD
    assert mismatches == []
    assert REGISTRY.stats()["active_leases"] == leases  # close() returned it


def test_two_executions_are_in_flight_at_once(store, monkeypatch):
    """Both callers must be inside the parallel run step at the same
    time to pass the barrier: under a lock around whole executions the
    first would wait for a second that can never enter."""
    barrier = threading.Barrier(2)
    run_parallel = ParallelInterpreter._run_parallel

    def rendezvous(self, *args):
        barrier.wait(timeout=10)
        return run_parallel(self, *args)

    monkeypatch.setattr(ParallelInterpreter, "_run_parallel", rendezvous)
    query = build(store, 6)
    with parallel_engine(store, False) as engine:
        with ThreadPoolExecutor(2) as callers:
            tables = [f.result(timeout=30) for f in [
                callers.submit(engine.query, query) for _ in range(2)
            ]]
    assert not barrier.broken
    assert identical(tables[0], tables[1])


def test_racing_first_queries_take_exactly_one_lease(store):
    """The lazy pool lease is created once under concurrent first use
    (every plan sent to the pool: the crossover forced to 0)."""
    query = build(store, 1)
    before = REGISTRY.stats()
    gate = threading.Barrier(THREADS)

    def first_query(_):
        gate.wait(timeout=10)
        return engine.query(query)

    engine = parallel_engine(store, False)
    try:
        with ThreadPoolExecutor(THREADS) as callers:
            tables = list(callers.map(first_query, range(THREADS)))
        during = REGISTRY.stats()
        backend = engine._parallel_backend  # one backend per engine
        assert backend._lease is not None
        assert during["active_leases"] == before["active_leases"] + 1
        assert during["pools"].get("chunks:2", 0) == before["pools"].get("chunks:2", 0) + 1
    finally:
        engine.close()
    assert all(identical(tables[0], table) for table in tables[1:])
    assert REGISTRY.stats()["active_leases"] == before["active_leases"]
    assert backend._lease is None


MICRO_GROUPBY = ("SELECT k, SUM(v1) AS s1, SUM(v2) AS s2, COUNT(*) AS cnt, MAX(w) AS top "
                 "FROM facts WHERE w <= 95 GROUP BY k ORDER BY k")


def micro_facts() -> ColumnStore:
    rng = np.random.default_rng(3)
    rows = 4_000
    facts = ColumnStore()
    facts.add(Table.from_arrays(
        "facts", k=rng.integers(0, 12, rows), v1=rng.random(rows), v2=rng.random(rows),
        w=rng.integers(0, 100, rows)))
    return facts


@pytest.mark.parametrize("name", ["q1", "q6", "q19", "micro.groupby"])
def test_racing_first_runs_of_one_plan(store, name):
    """What a plan carries (constants, routes, control-vector metadata:
    ``program.memo["nodes"]``) is derived by its first run — here by
    eight first runs at once, on a fresh engine, switching threads every
    10 µs: each derives what it misses and publishes complete entries, so
    every table is the lone engine's and the plan ends up fully furnished."""
    data = micro_facts() if name == "micro.groupby" else store
    query = MICRO_GROUPBY if name == "micro.groupby" else build(store, int(name[1:]))
    with VoodooEngine(data, config=EngineConfig(tracing=False)) as lone:
        expected = lone.prepare(query).execute().table
    gate = threading.Barrier(THREADS)
    tables: dict = {}

    def first_run(thread: int) -> None:
        gate.wait(timeout=30)
        tables[thread] = prepared.execute().table

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with VoodooEngine(data, config=EngineConfig(tracing=False)) as engine:
            prepared = engine.prepare(query)
            callers = [threading.Thread(target=first_run, args=(i,)) for i in range(THREADS)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
            program = engine.compile(prepared.bind()).program
            warm = prepared.execute().table
    finally:
        sys.setswitchinterval(interval)
    assert sorted(tables) == list(range(THREADS))
    assert all(identical(expected, table) for table in tables.values())
    assert identical(expected, warm)
    planned = program.memo["nodes"]
    carried = (ops.Constant, ops.Range, ops.Project, ops.Zip, ops.Binary)
    missing = [node.opname for node in program.order
               if isinstance(node, carried) and planned.get(id(node)) is None]
    assert not missing and any(isinstance(node, carried) for node in program.order)


def test_every_execute_is_one_counted_plan_lookup_under_a_race():
    """Eight threads execute four shapes, all starting at once on a cold
    cache, switching threads every microsecond: every execute looks its
    plan up once and is counted once — a miss for the one thread that
    compiles a shape, a hit for every other (racing misses included)."""
    shapes = [f"SELECT SUM(v1) AS s FROM facts WHERE w <= {w}" for w in (10, 30, 50, 70)]
    gate = threading.Barrier(THREADS)

    def caller(thread: int) -> None:
        gate.wait(timeout=30)
        for step in range(PER_THREAD):
            prepared[(thread + step) % len(shapes)].execute()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with VoodooEngine(micro_facts(), config=EngineConfig(tracing=False)) as engine:
            prepared = [engine.prepare(sql) for sql in shapes]
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(THREADS)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
            info = engine.cache_info()
    finally:
        sys.setswitchinterval(interval)
    assert info["plan_misses"] == len(shapes)
    assert info["plan_hits"] + info["plan_misses"] == THREADS * PER_THREAD


@pytest.mark.parametrize("site", ["prepare", "bind"])
def test_racing_misses_evict_without_error(monkeypatch, site):
    """``prepare()`` and ``bind()`` insert into their bounded caches under
    no lock.  Eight threads cycling over more shapes / values than a
    capacity of 2 holds keep both evicting at once: every call must still
    return the right object, and the cache must come back under its cap."""
    monkeypatch.setattr(VoodooEngine, "CACHE_CAPACITY", 2)
    monkeypatch.setattr(PreparedQuery, "BIND_CAPACITY", 2)
    data = micro_facts()
    wrong: list[int] = []
    errors: list[Exception] = []
    deadline = time.monotonic() + 1.5

    def caller(thread: int) -> None:
        step = thread
        try:
            while time.monotonic() < deadline and not errors:
                step += 3
                value = step % 8
                if site == "prepare":
                    right = engine.prepare(shapes[value]).query is shapes[value]
                else:
                    right = prepared.bind(w=value) == bound[value]
                if not right:
                    wrong.append(step)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with VoodooEngine(data, config=EngineConfig(tracing=False)) as engine:
            shapes = [engine.prepare(f"SELECT SUM(v1) AS s FROM facts WHERE w <= {w}").query
                      for w in range(8)]
            prepared = engine.prepare("SELECT SUM(v1) AS s FROM facts WHERE w <= :w")
            bound = [bind_params(prepared.query, {"w": w}) for w in range(8)]
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(THREADS)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
            engine.prepare(shapes[0])
            prepared.bind(w=0)
            assert len(engine._prepared) <= 2 and len(prepared._bound) <= 2
            misses = engine.plan_cache_misses
            total = engine.query(shapes[3]).column("s")[0]
            assert engine.query(shapes[3]).column("s")[0] == total
            assert (engine.plan_cache_misses, engine.plan_cache_hits) == (misses + 1, 1)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and wrong == []
