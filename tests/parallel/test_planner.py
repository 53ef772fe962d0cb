"""Partition planner: chunk geometry, zone classification, the merge."""

import numpy as np
import pytest

from repro.compiler.rt_fast import FusedRuntime
from repro.core import Builder, StructuredVector
from repro.errors import ExecutionError
from repro.interpreter import Interpreter
from repro.parallel import (
    GLOBAL,
    PARTITIONED,
    SEQ,
    ParallelInterpreter,
    PartitionPlanner,
    chunk_ranges,
    concat_fused,
    executor,
    to_fused,
)
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
from repro.tpch import build, generate


def _forced(val) -> StructuredVector:
    return FusedRuntime({}).force(val)


# the merges work on the raw chunk values the workers return; the tests
# state their chunks as Structured Vectors and read the result as one

def concat_chunks(chunks):
    return _forced(concat_fused([to_fused(c) for c in chunks]))


def assert_bit_identical(expected: dict, got: dict) -> None:
    assert expected.keys() == got.keys()
    for name in expected:
        a, b = expected[name], got[name]
        assert len(a) == len(b) and set(a.paths) == set(b.paths), name
        for p in a.paths:
            assert a.attr(p).dtype == b.attr(p).dtype, (name, str(p))
            assert np.array_equal(a.attr(p), b.attr(p)), (name, str(p), "values")
            assert np.array_equal(a.present(p), b.present(p)), (name, str(p), "masks")


def _store(n: int, dtype="int64", seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    if np.dtype(dtype).kind == "f":
        data = rng.random(n).astype(dtype)
    else:
        data = rng.integers(0, 100, n).astype(dtype)
    return {"facts": StructuredVector.single(".val", data)}


def _builder(store) -> Builder:
    return Builder({name: vec.schema for name, vec in store.items()})


class TestChunkRanges:
    def test_even_split(self):
        assert chunk_ranges(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_uneven_split_covers_everything(self):
        ranges = chunk_ranges(103, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 103
        assert all(lo < hi for lo, hi in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_alignment_respected(self):
        ranges = chunk_ranges(100_000, 4, align=8192)
        for lo, _ in ranges[1:]:
            assert lo % 8192 == 0
        assert ranges[-1][1] == 100_000

    def test_fewer_chunks_than_workers(self):
        # 3 aligned units cannot feed 8 workers: no empty partitions
        assert chunk_ranges(3 * 64, 8, align=64) == [(0, 64), (64, 128), (128, 192)]

    def test_tiny_input_single_chunk(self):
        assert chunk_ranges(10, 4, align=64) == [(0, 10)]

    def test_empty_input(self):
        assert chunk_ranges(0, 4) == []

    def test_single_worker(self):
        assert chunk_ranges(100, 1) == [(0, 100)]


class TestZones:
    def _plan(self, store, program, workers=4):
        with crossover(0):  # the zones of a plan that splits, whatever its size
            return PartitionPlanner(program, store, workers).plan()

    def test_selection_pipeline_zones(self):
        store = _store(100_000)
        b = _builder(store)
        facts = b.load("facts")
        pred = b.less_equal(facts, b.constant(50), out=".sel")
        ctrl = b.divide(b.range(facts), b.constant(4096), out=".chunk")
        sel = b.fold_select(b.zip(b.zip(facts, pred), ctrl), sel_kp=".sel",
                            fold_kp=".chunk", out=".pos")
        program = b.build(out=sel)
        plan = self._plan(store, program)
        assert plan.parallel
        assert plan.align == 4096
        zones = plan.summary()
        assert zones.get(PARTITIONED, 0) >= 6
        assert zones.get(SEQ, 0) == 0 or zones[SEQ] <= 1  # only the Persist wrapper

    def test_global_float_sum_is_sequential(self):
        store = _store(100_000, dtype="float64")
        b = _builder(store)
        total = b.fold_sum(b.load("facts"), agg_kp=".val", out=".total")
        plan = self._plan(store, b.build(total=total))
        order = list(plan.program.order)
        fold_idx = next(
            i for i, node in enumerate(order) if node.opname == "FoldAggregate"
        )
        assert plan.zones[fold_idx] == SEQ  # float sum: chunked rounding differs

    def _pooled_sequential(self, store, program, opname):
        """The *opname* node is SEQ in a split plan, and the pooled run
        returns the interpreter's bits."""
        plan = self._plan(store, program)
        idx = next(i for i, node in enumerate(plan.program.order) if node.opname == opname)
        assert plan.parallel and plan.zones[idx] == SEQ
        with crossover(0), ParallelInterpreter(store, workers=4) as runner:
            runner._effective = 4
            got = runner.run(program)
            assert runner.last_plan.parallel
        assert_bit_identical(Interpreter(store).run(program), got)

    def test_global_int_sum_is_sequential(self):
        store = _store(100_000, dtype="int64")
        b = _builder(store)
        doubled = b.multiply(b.load("facts"), b.constant(2), out=".val")
        total = b.fold_sum(doubled, agg_kp=".val", out=".total")
        self._pooled_sequential(store, b.build(total=total), "FoldAggregate")

    def test_global_float_max_is_sequential(self):
        store = _store(100_000, dtype="float64")
        b = _builder(store)
        halved = b.multiply(b.load("facts"), b.constant(0.5), out=".val")
        top = b.fold_max(halved, agg_kp=".val", out=".top")
        self._pooled_sequential(store, b.build(top=top), "FoldAggregate")

    def test_global_select_is_sequential(self):
        store = _store(100_000)
        b = _builder(store)
        facts = b.load("facts")
        pred = b.less_equal(facts, b.constant(50), out=".sel")
        sel = b.fold_select(b.zip(facts, pred), sel_kp=".sel", out=".pos")
        self._pooled_sequential(store, b.build(out=sel), "FoldSelect")

    def test_scatter_blocks_partitioning(self):
        store = _store(100_000)
        b = _builder(store)
        facts = b.load("facts")
        lanes = b.modulo(b.range(facts), b.constant(8), out=".lane")
        positions = b.partition(lanes, b.range(8, out=".pv"), out=".pos")
        scattered = b.scatter(b.zip(facts, lanes), positions, pos_kp=".pos")
        plan = self._plan(store, b.build(out=scattered))
        order = list(plan.program.order)
        for i, node in enumerate(order):
            if node.opname in ("Partition", "Scatter"):
                assert plan.zones[i] == SEQ

    def test_dimension_load_is_global(self):
        store = _store(100_000)
        store["dim"] = StructuredVector.single(".d", np.arange(100, dtype=np.int64))
        b = _builder(store)
        facts = b.load("facts")
        dim = b.load("dim")
        picked = b.gather(dim, facts, pos_kp=".val")
        plan = self._plan(store, b.build(out=picked))
        order = list(plan.program.order)
        dim_idx = next(
            i for i, node in enumerate(order)
            if node.opname == "Load" and node.name == "dim"
        )
        assert plan.zones[dim_idx] == GLOBAL
        assert dim_idx in plan.global_feeds  # fed whole

    def test_empty_table_not_parallel(self):
        store = {"facts": StructuredVector(0, {".val": np.zeros(0, dtype=np.int64)})}
        b = _builder(store)
        plan = self._plan(store, b.build(out=b.load("facts")))
        assert not plan.parallel

    def test_small_table_degrades_to_singleton_chunks(self):
        store = _store(3)
        b = _builder(store)
        doubled = b.multiply(b.load("facts"), b.constant(2), out=".val")
        plan = self._plan(store, b.build(out=doubled), workers=8)
        # fewer chunks than workers, never an empty one, full coverage
        assert plan.chunks == [(0, 1), (1, 2), (2, 3)]


class TestMerge:
    def test_concat_preserves_epsilon_masks(self):
        a = StructuredVector(
            3, {".v": np.array([1, 2, 3])}, {".v": np.array([True, False, True])}
        )
        b = StructuredVector(2, {".v": np.array([4, 5])})  # dense chunk
        merged = concat_chunks([a, b])
        assert len(merged) == 5
        assert np.array_equal(merged.attr(".v"), [1, 2, 3, 4, 5])
        assert np.array_equal(merged.present(".v"), [True, False, True, True, True])

    def test_concat_all_dense_stays_dense(self):
        a = StructuredVector.single(".v", np.array([1, 2]))
        b = StructuredVector.single(".v", np.array([3]))
        merged = concat_chunks([a, b])
        assert merged.is_dense(".v")

    def test_concat_redensifies_fully_present_masks(self):
        # a mask that is all-True after merging must be suppressed, exactly
        # as the sequential constructor would
        a = StructuredVector(
            2, {".v": np.array([1, 2])}, {".v": np.array([True, True])}
        )
        b = StructuredVector.single(".v", np.array([3]))
        assert concat_chunks([a, b]).is_dense(".v")

    def test_concat_empty_errors(self):
        with pytest.raises(ExecutionError):
            concat_chunks([])


# -- the TPC-H plans ----------------------------------------------------------

#: (partitioned, global, seq) node counts of each TPC-H plan at SF 0.01
#: (seed 42) on 2 workers, every plan split (Q7 and Q19 carry the five
#: nodes of the selection their lineitem conjuncts make below the joins:
#: (57, 29, 9) and (87, 30, 1) with them above)
TPCH_ZONES = {
    1: (39, 5, 36), 4: (15, 22, 17), 5: (51, 22, 5), 6: (29, 6, 1), 7: (62, 29, 9),
    8: (73, 31, 9), 9: (54, 39, 7), 10: (46, 29, 15), 11: (25, 14, 15), 12: (53, 12, 7),
    14: (40, 12, 6), 15: (24, 13, 24), 19: (92, 30, 1), 20: (29, 48, 43),
}


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.01, seed=42)


@pytest.mark.parametrize("number", sorted(TPCH_ZONES))
def test_tpch_plan_zones_pinned(tpch_store, number, monkeypatch):
    with VoodooEngine(tpch_store, config=EngineConfig(tracing=False)) as engine:
        program = engine.compile(build(tpch_store, number)).program
    sliced: list = []
    plain = executor.fused_slice
    monkeypatch.setattr(executor, "fused_slice",
                        lambda value, lo, hi: sliced.append(value) or plain(value, lo, hi))
    with crossover(0), ParallelInterpreter(tpch_store.vectors(), workers=2) as runner:
        runner._effective = 2
        runner.run(program)
        plan = runner.last_plan
    assert plan.parallel
    zones = plan.summary()
    assert (zones.get(PARTITIONED, 0), zones.get(GLOBAL, 0), zones.get(SEQ, 0)) \
        == TPCH_ZONES[number]
    # every global feed is fed whole: the driving vector is the one value
    # cut, once per chunk
    assert all(plan.zones[j] == GLOBAL for j in plan.global_feeds)
    assert len(sliced) == len(plan.chunks) and all(v is sliced[0] for v in sliced)
