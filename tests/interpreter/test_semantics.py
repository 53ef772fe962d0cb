"""Ground-truth fold/scatter/partition semantics (paper Figures 7, 9, 11)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.interpreter import semantics as sem


class TestRuns:
    def test_run_starts(self):
        control = np.array([1, 1, 0, 0, 2, 2, 2])
        assert sem.run_starts(control).tolist() == [
            True, False, True, False, True, False, False]

    def test_run_ids(self):
        control = np.array([5, 5, 3, 3, 3, 5])
        assert sem.run_ids(control, 6).tolist() == [0, 0, 1, 1, 1, 2]

    def test_none_control_single_run(self):
        assert sem.run_ids(None, 4).tolist() == [0, 0, 0, 0]
        assert sem.run_offsets(None, 4).tolist() == [0]

    def test_length_mismatch_rejected(self):
        from repro.errors import ExecutionError
        with pytest.raises(ExecutionError):
            sem.run_ids(np.array([1, 2]), 3)

    def test_forward_fill(self):
        control = np.array([7, 0, 0, 9, 0])
        present = np.array([True, False, False, True, False])
        assert sem.forward_fill(control, present).tolist() == [7, 7, 7, 9, 9]

    def test_forward_fill_leading_empty(self):
        control = np.array([0, 0, 4, 0])
        present = np.array([False, False, True, True])
        # leading ε back-fills from the first present value
        assert sem.forward_fill(control, present).tolist() == [4, 4, 4, 0]

    def test_epsilon_slots_do_not_split_runs(self):
        """The paper's padding semantics: ε belongs to the preceding run."""
        control = np.array([1, 99, 1, 2, 99, 2])
        present = np.array([True, False, True, True, False, True])
        assert sem.run_ids(control, 6, present).tolist() == [0, 0, 0, 1, 1, 1]


class TestFoldSelect:
    def test_figure7_style(self):
        # runs of 4, qualifying positions written compacted at run starts
        control = np.repeat([0, 1], 4)
        sel = np.array([0, 0, 1, 1, 0, 0, 0, 1])
        out, present = sem.fold_select(control, sel)
        assert out[present].tolist() == [2, 3, 7]
        assert present.tolist() == [True, True, False, False,
                                    True, False, False, False]

    def test_respects_sel_mask(self):
        sel = np.ones(4, dtype=np.int64)
        mask = np.array([True, False, True, False])
        out, present = sem.fold_select(None, sel, mask)
        assert out[present].tolist() == [0, 2]

    def test_no_hits(self):
        out, present = sem.fold_select(None, np.zeros(5, dtype=np.int64))
        assert not present.any()

    def test_positions_are_global(self):
        control = np.repeat([0, 1, 2], 2)
        sel = np.array([0, 1, 0, 1, 0, 1])
        out, present = sem.fold_select(control, sel)
        assert out[present].tolist() == [1, 3, 5]


class TestFoldAggregate:
    def test_sum_per_run(self):
        control = np.array([0, 0, 1, 1, 1])
        values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        out, present = sem.fold_aggregate("sum", control, values)
        assert out[present].tolist() == [3, 12]
        assert present.tolist() == [True, False, True, False, False]

    def test_max_min(self):
        values = np.array([3.0, 1.0, 2.0])
        out, present = sem.fold_aggregate("max", None, values)
        assert out[0] == 3.0
        out, present = sem.fold_aggregate("min", None, values)
        assert out[0] == 1.0

    def test_empty_slots_skipped(self):
        values = np.array([1, 100, 2], dtype=np.int64)
        mask = np.array([True, False, True])
        out, present = sem.fold_aggregate("sum", None, values, mask)
        assert out[0] == 3

    def test_all_empty_run_gives_epsilon(self):
        control = np.array([0, 0, 1, 1])
        values = np.ones(4, dtype=np.int64)
        mask = np.array([False, False, True, True])
        out, present = sem.fold_aggregate("sum", control, values, mask)
        assert present.tolist() == [False, False, True, False]

    def test_sum_widens_int32(self):
        out, _ = sem.fold_aggregate("sum", None, np.array([1, 2], dtype=np.int32))
        assert out.dtype == np.int64

    def test_empty_input(self):
        out, present = sem.fold_aggregate("sum", None, np.zeros(0, dtype=np.int64))
        assert len(out) == 0


class TestFoldScan:
    def test_prefix_sum_restarts_per_run(self):
        control = np.array([0, 0, 1, 1])
        values = np.array([1, 2, 3, 4], dtype=np.int64)
        out, present = sem.fold_scan(control, values)
        assert out.tolist() == [1, 3, 3, 7]
        assert present.all()

    def test_exclusive_scan(self):
        values = np.array([1, 2, 3], dtype=np.int64)
        out, _ = sem.fold_scan(None, values, inclusive=False)
        assert out.tolist() == [0, 1, 3]

    def test_empty_contributes_zero(self):
        values = np.array([1, 5, 2], dtype=np.int64)
        mask = np.array([True, False, True])
        out, _ = sem.fold_scan(None, values, mask)
        assert out.tolist() == [1, 1, 3]


class TestFoldCount:
    def test_counts_per_run(self):
        control = np.array([0, 0, 0, 1, 1])
        out, present = sem.fold_count(control, 5)
        assert out[present].tolist() == [3, 2]

    def test_counts_present_only(self):
        mask = np.array([True, False, True])
        out, present = sem.fold_count(None, 3, mask)
        assert out[0] == 2


class TestScatterGather:
    def test_scatter_basic(self):
        cols = {"a": np.array([10, 20, 30], dtype=np.int64)}
        out, masks = sem.scatter(np.array([2, 0, 1]), None, 3, cols, {})
        assert out["a"].tolist() == [20, 30, 10]
        assert masks["a"].all()

    def test_scatter_conflict_last_wins(self):
        cols = {"a": np.array([1, 2], dtype=np.int64)}
        out, masks = sem.scatter(np.array([0, 0]), None, 2, cols, {})
        assert out["a"][0] == 2
        assert masks["a"].tolist() == [True, False]

    def test_scatter_oob_skipped(self):
        cols = {"a": np.array([1, 2], dtype=np.int64)}
        out, masks = sem.scatter(np.array([0, 99]), None, 2, cols, {})
        assert masks["a"].tolist() == [True, False]

    def test_scatter_respects_pos_mask(self):
        cols = {"a": np.array([1, 2], dtype=np.int64)}
        pmask = np.array([False, True])
        out, masks = sem.scatter(np.array([0, 1]), pmask, 2, cols, {})
        assert masks["a"].tolist() == [False, True]

    def test_gather_oob_empty(self):
        cols = {"a": np.array([10, 20], dtype=np.int64)}
        out, masks = sem.gather(np.array([1, 5, 0]), None, 2, cols, {})
        assert masks["a"].tolist() == [True, False, True]
        assert out["a"][0] == 20

    def test_gather_propagates_source_mask(self):
        cols = {"a": np.array([10, 20], dtype=np.int64)}
        src_mask = {"a": np.array([False, True])}
        out, masks = sem.gather(np.array([0, 1]), None, 2, cols, src_mask)
        assert masks["a"].tolist() == [False, True]


class TestPartition:
    def test_identity_pivots(self):
        values = np.array([2, 0, 1, 0, 2], dtype=np.int64)
        pivots = np.arange(3, dtype=np.int64)
        positions, present = sem.partition_positions(values, None, pivots)
        # partitions contiguous, stable within partition
        order = np.argsort(positions)
        assert values[order].tolist() == [0, 0, 1, 2, 2]

    def test_stability(self):
        values = np.array([1, 1, 0, 1], dtype=np.int64)
        pivots = np.arange(2, dtype=np.int64)
        positions, _ = sem.partition_positions(values, None, pivots)
        # rows 0,1,3 (all partition 1) keep their relative order
        assert positions[0] < positions[1] < positions[3]

    def test_range_pivots(self):
        values = np.array([5, 15, 25], dtype=np.int64)
        pivots = np.array([0, 10, 20], dtype=np.int64)
        positions, _ = sem.partition_positions(values, None, pivots)
        assert positions.tolist() == [0, 1, 2]


# ------------------------------------------------------------------ properties

control_arrays = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


@given(control_arrays)
def test_fold_sum_total_invariant(control):
    """Per-run sums always add up to the grand total."""
    values = np.arange(len(control), dtype=np.int64)
    out, present = sem.fold_aggregate("sum", control, values)
    assert out[present].sum() == values.sum()


@given(control_arrays, st.integers(0, 100))
def test_fold_select_counts_invariant(control, threshold):
    values = np.arange(len(control), dtype=np.int64) * 13 % 101
    sel = (values > threshold).astype(np.int64)
    out, present = sem.fold_select(control, sel)
    assert present.sum() == sel.sum()
    assert sorted(out[present].tolist()) == np.flatnonzero(sel).tolist()


@given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
def test_partition_is_permutation(group_list):
    values = np.array(group_list, dtype=np.int64)
    pivots = np.arange(6, dtype=np.int64)
    positions, _ = sem.partition_positions(values, None, pivots)
    assert sorted(positions.tolist()) == list(range(len(values)))


@given(control_arrays)
def test_fold_scan_last_equals_run_sum(control):
    values = np.ones(len(control), dtype=np.int64)
    scan, _ = sem.fold_scan(control, values)
    sums, present = sem.fold_aggregate("sum", control, values)
    starts = sem.run_offsets(control, len(control))
    ends = np.append(starts[1:], len(control)) - 1
    assert scan[ends].tolist() == sums[starts].tolist()


@pytest.mark.parametrize("bound", [0, 1, 256, 257, 65_536, 65_537, 200_000, 1 << 33])
def test_radix_order_is_the_int64_stable_argsort(bound):
    """``stable_order`` sorts narrow casts of the ids (NumPy radix-sorts
    keys of <= 16 bits); the permutation must not depend on the width."""
    rng = np.random.default_rng(bound % 1000)
    for n in (0, 1, 5_000):
        ids = rng.integers(0, max(bound, 1), size=n)
        ids[: n // 3] = ids[n // 2: n // 2 + n // 3]  # plenty of duplicates
        if n and bound:
            ids[-1] = bound - 1  # the widest id is present
        got = sem.stable_order(ids, max(bound, 1))
        assert np.array_equal(got, np.argsort(ids, kind="stable")), (bound, n)


@pytest.mark.parametrize("partitions", [1, 256, 257, 65_537])
def test_partition_positions_match_a_rank_by_hand(partitions):
    rng = np.random.default_rng(partitions)
    values = rng.integers(-3, partitions + 3, size=4_000)
    pivots = np.arange(partitions, dtype=np.int64)
    positions, present = sem.partition_positions(values, None, pivots)
    part = np.clip(values, 0, partitions - 1)
    by_hand = np.empty(len(values), dtype=np.int64)
    by_hand[np.argsort(part, kind="stable")] = np.arange(len(values))
    assert np.array_equal(positions, by_hand) and present.all()
