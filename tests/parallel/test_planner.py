"""Partition planner: chunk geometry, zone classification, merge helpers."""

import numpy as np
import pytest

from repro.compiler.rt_fast import FusedRuntime
from repro.core import Builder, StructuredVector
from repro.core.keypath import Keypath
from repro.errors import ExecutionError
from repro.parallel import (
    GFOLD,
    GLOBAL,
    GSELECT,
    PARTITIONED,
    SEQ,
    PartitionPlanner,
    chunk_ranges,
    concat_fused,
    merge_fold_fused,
    merge_select_fused,
    to_fused,
)
from repro.testing import crossover


def _forced(val) -> StructuredVector:
    return FusedRuntime({}).force(val)


# the merges work on the raw chunk values the workers return; the tests
# state their chunks as Structured Vectors and read the result as one

def concat_chunks(chunks):
    return _forced(concat_fused([to_fused(c) for c in chunks]))


def merge_select(chunks, path):
    return _forced(merge_select_fused([to_fused(c) for c in chunks], path))


def merge_fold(fn, chunks, path):
    return _forced(merge_fold_fused(fn, [to_fused(c) for c in chunks], path))


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

    def test_global_int_sum_refolds(self):
        store = _store(100_000, dtype="int64")
        b = _builder(store)
        total = b.fold_sum(b.load("facts"), agg_kp=".val", out=".total")
        plan = self._plan(store, b.build(total=total))
        order = list(plan.program.order)
        fold_idx = next(
            i for i, node in enumerate(order) if node.opname == "FoldAggregate"
        )
        assert plan.zones[fold_idx] == GFOLD

    def test_global_float_max_refolds(self):
        store = _store(100_000, dtype="float64")
        b = _builder(store)
        top = b.fold_max(b.load("facts"), agg_kp=".val", out=".top")
        plan = self._plan(store, b.build(top=top))
        order = list(plan.program.order)
        fold_idx = next(
            i for i, node in enumerate(order) if node.opname == "FoldAggregate"
        )
        assert plan.zones[fold_idx] == GFOLD  # max is exactly associative

    def test_global_select_merges(self):
        store = _store(100_000)
        b = _builder(store)
        pred = b.less_equal(b.load("facts"), b.constant(50), out=".sel")
        sel = b.fold_select(b.zip(b.load("facts"), pred), sel_kp=".sel", out=".pos")
        plan = self._plan(store, b.build(out=sel))
        order = list(plan.program.order)
        idx = next(i for i, node in enumerate(order) if node.opname == "FoldSelect")
        assert plan.zones[idx] == GSELECT

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
        assert plan.global_feeds.get(dim_idx) == "full"

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

    def test_merge_select_stable_remap(self):
        path = Keypath(["pos"])
        a = StructuredVector(
            4, {path: np.array([7, 9, 0, 0])},
            {path: np.array([True, True, False, False])},
        )
        b = StructuredVector(
            3, {path: np.array([12, 0, 0])}, {path: np.array([True, False, False])}
        )
        merged = merge_select([a, b], path)
        assert len(merged) == 7
        assert np.array_equal(merged.attr(path)[:3], [7, 9, 12])
        assert np.array_equal(
            merged.present(path), [True, True, True, False, False, False, False]
        )
        assert np.array_equal(merged.attr(path)[3:], np.zeros(4, dtype=np.int64))

    def test_merge_select_no_hits(self):
        path = Keypath(["pos"])
        a = StructuredVector(
            2, {path: np.zeros(2, dtype=np.int64)}, {path: np.zeros(2, dtype=bool)}
        )
        merged = merge_select([a, a], path)
        assert not merged.present(path).any()

    def test_merge_fold_sum(self):
        path = Keypath(["total"])
        chunks = [
            StructuredVector(
                2, {path: np.array([10, 0])}, {path: np.array([True, False])}
            ),
            StructuredVector(
                2, {path: np.array([32, 0])}, {path: np.array([True, False])}
            ),
        ]
        merged = merge_fold("sum", chunks, path)
        assert merged.attr(path)[0] == 42
        assert np.array_equal(merged.present(path), [True, False, False, False])

    def test_merge_fold_skips_epsilon_partials(self):
        path = Keypath(["top"])
        chunks = [
            StructuredVector(
                2, {path: np.array([0.0, 0.0])}, {path: np.zeros(2, dtype=bool)}
            ),
            StructuredVector(
                2, {path: np.array([3.5, 0.0])}, {path: np.array([True, False])}
            ),
        ]
        merged = merge_fold("max", chunks, path)
        assert merged.attr(path)[0] == 3.5
        assert merged.present(path)[0]

    def test_merge_fold_all_epsilon(self):
        path = Keypath(["total"])
        chunk = StructuredVector(
            2, {path: np.zeros(2, dtype=np.int64)}, {path: np.zeros(2, dtype=bool)}
        )
        merged = merge_fold("sum", [chunk, chunk], path)
        assert not merged.present(path).any()

    def test_merge_fold_unknown_combiner(self):
        path = Keypath(["x"])
        chunk = StructuredVector.single(path, np.array([1]))
        with pytest.raises(ExecutionError):
            merge_fold("median", [chunk], path)
