"""Both ways the partition-parallel backend runs a program, and merges
that move only what the sequential zone reads.

A plan's chunks go to the worker pool at or above
:data:`repro.parallel.planner.POOL_CROSSOVER`; below it the program runs
whole — so with the constant forced to 0 (every plan pooled) and to
infinity (none) every query returns the fused tier's bits.  A merge hands
the SEQ zone the unsliced column for a chunk column that is still its
seeded slice, and one unread gather for unread gathers over such slices.
"""

import numpy as np
import pytest

from repro.compiler import ExecutionOptions
from repro.compiler.columns import Compact, Dense, Lazy, Slots, Taken, zero_fill
from repro.compiler.rt_fast import FusedVal, fused_slice, to_fused
from repro.core.keypath import kp
from repro.parallel import REGISTRY, PartitionPlanner, executor, planner
from repro.parallel.merge import Merger
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import ColumnStore, Table
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate

TWO_WORKERS = EngineConfig(execution=ExecutionOptions(workers=2))
FUSED = EngineConfig(tracing=False)
MICRO_SQL = {
    "select": "SELECT SUM(v2) AS total FROM facts WHERE v1 <= 0.1",
    "project": "SELECT SUM(v1 * v2 + w) AS total FROM facts WHERE v1 <= 0.2",
    "groupby": ("SELECT k, SUM(v1) AS s1, SUM(v2) AS s2, COUNT(*) AS cnt, MAX(w) AS top "
                "FROM facts WHERE w <= 95 GROUP BY k ORDER BY k"),
}


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.005, seed=5)


def micro_facts(rows: int = 6_000) -> ColumnStore:
    rng = np.random.default_rng(8)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "facts", k=rng.integers(0, 12, rows), v1=rng.random(rows), v2=rng.random(rows),
        w=rng.integers(0, 100, rows)))
    return store


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


def two_worker_engine(store) -> VoodooEngine:
    """A 2-worker engine with a second core, on any host."""
    engine = VoodooEngine(store, config=TWO_WORKERS)
    engine._parallel_backend._effective = 2  # a real pool, also on a 1-CPU host
    return engine


# ------------------------------------------------------- pool or whole


@pytest.mark.parametrize("value", [0, float("inf")], ids=["pool", "whole"])
def test_every_op_is_bit_identical_to_the_fused_tier_pooled_or_whole(tpch_store, value):
    facts = micro_facts()
    cases = [(tpch_store, build(tpch_store, n)) for n in sorted(QUERIES)]
    cases += [(facts, sql) for sql in MICRO_SQL.values()]
    engines = {}
    try:
        with crossover(value):
            for store, query in cases:
                if id(store) not in engines:
                    engines[id(store)] = (VoodooEngine(store, config=FUSED),
                                          two_worker_engine(store))
                fused, parallel = engines[id(store)]
                for _ in range(2):  # cold and warm plan
                    assert identical(fused.query(query), parallel.query(query)), query
                plan = parallel._parallel_backend.last_plan
                assert plan.parallel is (value == 0), query
    finally:
        for fused, parallel in engines.values():
            fused.close()
            parallel.close()


@pytest.mark.parametrize("value", [0, float("inf")], ids=["pool", "whole"])
def test_a_lease_is_taken_exactly_when_the_plan_is_parallel(tpch_store, value):
    before = REGISTRY.stats()["active_leases"]
    engine = two_worker_engine(tpch_store)
    try:
        with crossover(value):
            engine.query(build(tpch_store, 6))
        backend = engine._parallel_backend
        assert (backend._lease is not None) is (value == 0) is backend.last_plan.parallel
    finally:
        engine.close()
    assert REGISTRY.stats()["active_leases"] == before


def test_a_small_plan_runs_whole_and_takes_no_pool_lease(tpch_store):
    """At the constant as shipped, a plan of a few thousand rows is
    sequential: the program runs whole, and no pool is leased."""
    before = REGISTRY.stats()["active_leases"]
    with two_worker_engine(tpch_store) as engine:
        backend = engine._parallel_backend
        for n in sorted(QUERIES):
            engine.query(build(tpch_store, n))
            plan = backend.last_plan
            assert not plan.parallel and plan.work < planner.POOL_CROSSOVER
            assert plan.reason == "below the pool crossover", n
        assert backend._lease is None
        assert REGISTRY.stats()["active_leases"] == before


def test_a_plan_below_the_crossover_makes_no_run_chunk_call(tpch_store, monkeypatch):
    """Below the crossover the program is one ``run_program`` call; at or
    above it, one ``run_chunk`` call per worker and no whole run."""
    calls = []
    run_chunk, run_program = executor.run_chunk, executor.run_program

    def spy_chunk(*args, **kwargs):
        calls.append("chunk")
        return run_chunk(*args, **kwargs)

    def spy_program(*args, **kwargs):
        calls.append("whole")
        return run_program(*args, **kwargs)

    monkeypatch.setattr(executor, "run_chunk", spy_chunk)
    monkeypatch.setattr(executor, "run_program", spy_program)
    with two_worker_engine(tpch_store) as engine:
        for value, expected in ((float("inf"), ["whole"]), (0, ["chunk", "chunk"])):
            calls.clear()
            with crossover(value):
                engine.query(build(tpch_store, 6))
            assert calls == expected, value


def test_work_is_rows_per_chunk_times_chunked_nodes(tpch_store):
    with VoodooEngine(tpch_store, config=FUSED) as engine:
        program = engine.compile(build(tpch_store, 6)).program
    with crossover(0):
        plan = PartitionPlanner(program, tpch_store.vectors(), 2).plan()
    chunked = [i for i in plan.chunk_nodes() if i != plan.driving]
    assert plan.work == max(hi - lo for lo, hi in plan.chunks) * len(chunked) > 0
    shipped = PartitionPlanner(program, tpch_store.vectors(), 2).plan()
    assert shipped.work == plan.work
    assert shipped.parallel is (plan.work >= planner.POOL_CROSSOVER)


# ------------------------------------------------------------- merges


def lazy_facts(rows: int = 1_000) -> FusedVal:
    store = micro_facts(rows)
    value = to_fused(store.vectors()["facts"])
    assert all(isinstance(column, Lazy) for column in value.columns.values())
    return value


def seeded(value: FusedVal, cuts) -> tuple[Merger, list[FusedVal]]:
    merger = Merger(len(cuts))
    parts = []
    for chunk, (lo, hi) in enumerate(cuts):
        parts.append(fused_slice(value, lo, hi))
        merger.seed(chunk, value, parts[-1], lo)
    return merger, parts


def test_a_pass_through_column_merges_back_to_the_unsliced_column():
    whole = lazy_facts()
    merger, parts = seeded(whole, [(0, 400), (400, 1_000)])
    merged = merger.concat(parts)
    assert merged.length == whole.length
    for path, column in whole.columns.items():
        assert merged.column(path) is column  # no copy: still Lazy, still the segments


def test_a_slice_merged_out_of_order_or_in_part_is_copied():
    whole = lazy_facts()
    merger, parts = seeded(whole, [(0, 400), (400, 1_000)])
    path = next(iter(whole.columns))
    swapped = merger.concat([parts[1], parts[0]])
    assert swapped.column(path) is not whole.column(path)
    expected = np.concatenate([whole.attr(path)[400:], whole.attr(path)[:400]])
    assert np.array_equal(swapped.attr(path), expected)
    # an unseeded slice of the right column is no pass-through either
    other = Merger(2).concat(parts)
    assert other.column(path) is not whole.column(path)
    assert np.array_equal(other.attr(path), whole.attr(path))


def test_an_unread_gather_merges_unread_with_shifted_positions():
    whole = lazy_facts()
    merger, parts = seeded(whole, [(0, 400), (400, 1_000)])
    rng = np.random.default_rng(3)
    picks = [(np.sort(rng.choice(part.length, 150, replace=False)).astype(np.int64),
              Slots(np.sort(rng.choice(part.length, 150, replace=False)), part.length))
             for part in parts]

    def gathers() -> list[FusedVal]:
        return [FusedVal(part.length, {
            path: Taken(column, index, slots) for path, column in part.columns.items()
        }) for part, (index, slots) in zip(parts, picks)]

    expected = gathers()
    merged = merger.concat(gathers())
    columns = list(merged.columns.values())
    assert all(isinstance(c, Taken) and c._column is None for c in columns)
    assert all(c.source is whole.column(path) for path, c in merged.columns.items())
    # one position array and one slot pattern for every column of the gather
    assert all(c.index is columns[0].index and c.slots is columns[0].slots for c in columns)
    for path, column in merged.columns.items():
        assert np.array_equal(column.pad()[0], np.concatenate([g.attr(path) for g in expected]))
        assert np.array_equal(column.mask(), np.concatenate([g.mask(path) for g in expected]))


def test_shared_chunk_columns_merge_once_and_keep_sharing_slots():
    x, y, a = kp(".x"), kp(".y"), kp(".a")
    slots = [Slots(np.array([0, 3]), 5), Slots(np.array([1, 4]), 5)]
    dense = [Dense(np.arange(5.0)), Dense(np.arange(5.0, 10.0))]
    first = [FusedVal(5, {
        x: Compact(s, np.array([1.0, 2.0]), zero_fill(np.float64)),
        y: Compact(s, np.array([3, 4]), zero_fill(np.int64)),
        a: column,
    }) for s, column in zip(slots, dense)]
    second = [FusedVal(5, {x: f.column(x)}) for f in first]
    merger = Merger(2)
    one, two = merger.concat(first), merger.concat(second)
    assert two.column(x) is one.column(x)  # merged once for both values
    assert one.column(x).slots is one.column(y).slots  # same_as answers by identity
    assert one.column(x).slots.index.tolist() == [0, 3, 6, 9]
    assert np.array_equal(one.attr(a), np.arange(10.0))


def test_merged_values_in_a_parallel_run_stay_lazy(tpch_store, monkeypatch):
    """Through the executor: Q1's merged Upsert hands the SEQ zone its
    untouched ``lineitem`` columns as the Load's own Lazy columns, and a
    group-by's gathered columns as unread gathers of them."""
    merged: list = []
    plain = Merger.concat

    def spy(self, chunks):
        merged.append(result := plain(self, chunks))
        return result

    monkeypatch.setattr(Merger, "concat", spy)
    with crossover(0):
        with two_worker_engine(tpch_store) as engine:
            engine.query(build(tpch_store, 1))
        kinds = [type(c).__name__ for value in merged for c in value.columns.values()]
        assert kinds.count("Lazy") >= 9, kinds
        merged.clear()
        with two_worker_engine(micro_facts()) as engine:
            engine.query(MICRO_SQL["groupby"])
    gathers = [c for value in merged for c in value.columns.values() if isinstance(c, Taken)]
    assert gathers and all(isinstance(c.source, Lazy) for c in gathers)
