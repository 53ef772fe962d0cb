"""The fused group-by kernels vs the ground-truth run machinery.

``pack_keys`` must linearize composite keys exactly like the relational
translator's Subtract/Multiply/Add chain, and the ``GroupRuns`` +
``bincount``/``reduceat`` kernels must reproduce
``semantics.fold_aggregate`` over destination-ordered rows bit for bit —
including float addition order, integer wrapping, ε fill values and
empty-run masks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import kernels
from repro.compiler.rt import VirtualScatter
from repro.interpreter import semantics


class TestPackKeys:
    def test_matches_row_major_linearization(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 100).astype(np.int64)
        b = rng.integers(0, 7, 100).astype(np.int64)
        got = kernels.pack_keys([a, b], [4, 7])
        assert np.array_equal(got, a * 7 + b)

    def test_offsets(self):
        a = np.array([3, 4, 5], dtype=np.int64)
        b = np.array([10, 11, 12], dtype=np.int64)
        got = kernels.pack_keys([a, b], [3, 3], offsets=[3, 10])
        assert np.array_equal(got, (a - 3) * 3 + (b - 10))

    def test_single_key_identity(self):
        a = np.arange(5, dtype=np.int64)
        assert np.array_equal(kernels.pack_keys([a], [5]), a)

    def test_mismatched_cards_rejected(self):
        with pytest.raises(ValueError):
            kernels.pack_keys([np.zeros(3, dtype=np.int64)], [3, 4])
        with pytest.raises(ValueError):
            kernels.pack_keys([], [])


def reference_scattered_fold(fn, positions, size, control, values, mask, order):
    """The pre-kernel implementation: generic run machinery end to end."""
    dest_control = None if control is None else control[: len(positions)][order]
    ordered_values = values[: len(positions)][order]
    ordered_mask = None if mask is None else mask[: len(positions)][order]
    result_sorted, present_sorted = semantics.fold_aggregate(
        fn, dest_control, ordered_values, ordered_mask
    )
    result = np.zeros(size, dtype=result_sorted.dtype)
    present = np.zeros(size, dtype=bool)
    starts = semantics.run_offsets(dest_control, len(ordered_values))
    dest_slots = positions[order][starts] if len(starts) else np.zeros(0, dtype=np.int64)
    if len(dest_slots):
        dest_slots = dest_slots.copy()
        dest_slots[0] = 0
    result[dest_slots] = result_sorted[starts]
    present[dest_slots] = present_sorted[starts]
    return result, present, len(starts)


def scattered_case(seed: int):
    """A randomized group-by-shaped scattered fold (destination-sorted
    positions from a stable partition, non-uniform group sizes)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3_000))
    k = int(rng.integers(1, 16))
    gid = rng.integers(0, k, n).astype(np.int64)
    present = None if rng.random() < 0.4 else rng.random(n) > 0.2
    positions, _ = semantics.partition_positions(
        gid, None, np.arange(k, dtype=np.int64)
    )
    scat = VirtualScatter(positions=positions, pos_present=present, size=n)
    if rng.random() < 0.5:
        values = (rng.random(n) * 200 - 100).astype(
            rng.choice([np.float64, np.float32])
        )
    else:
        values = rng.integers(-(2**62), 2**62, n).astype(np.int64)
    mask = None if rng.random() < 0.5 else rng.random(n) > 0.3
    return scat, gid, values, mask


@given(seed=st.integers(0, 10_000), fn=st.sampled_from(["sum", "max", "min"]))
@settings(max_examples=60, deadline=None)
def test_property_scattered_fold_bit_identical(seed, fn):
    """Memoized GroupRuns + reduceat/bincount == generic run machinery,
    bit for bit (values at ε slots and fill values included)."""
    scat, gid, values, mask = scattered_case(seed)
    order = scat.fold_order()
    want = reference_scattered_fold(
        fn, scat.positions, scat.size, gid, values, mask, order
    )
    got = kernels.scattered_fold_aggregate(
        fn, scat.positions, scat.size, gid, values, mask,
        order=order, runs=scat.group_runs(gid),
    )
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_property_grouped_count_bit_identical(seed):
    """grouped_fold_count == summing ones through the aggregate kernel."""
    scat, gid, _, mask = scattered_case(seed)
    order = scat.fold_order()
    runs = scat.group_runs(gid)
    ones = np.ones(scat.size, dtype=np.int64)
    want = reference_scattered_fold(
        "sum", scat.positions, scat.size, gid, ones, mask, order
    )
    ordered_mask = None if mask is None else mask[: len(scat.positions)][order]
    per_run, nonempty = kernels.grouped_fold_count(runs, len(order), ordered_mask)
    result = np.zeros(scat.size, dtype=np.int64)
    present = np.zeros(scat.size, dtype=bool)
    result[runs.dest_slots] = per_run
    present[runs.dest_slots] = nonempty
    assert np.array_equal(result, want[0])
    assert np.array_equal(present, want[1])


class TestGroupRunsMemo:
    def test_memoized_per_control_array(self):
        scat, gid, _, _ = scattered_case(11)
        runs = scat.group_runs(gid)
        assert scat.group_runs(gid) is runs  # same control array: cached
        other = gid.copy()
        assert scat.group_runs(other) is not runs  # different array: rebuilt

    def test_single_run_when_control_none(self):
        positions = np.array([3, 0, 2, 1], dtype=np.int64)
        scat = VirtualScatter(positions=positions, pos_present=None, size=4)
        runs = scat.group_runs(None)
        assert runs.n_runs == 1
        assert runs.dest_slots.tolist() == [0]

    def test_order_hint_matches_argsort(self):
        """A Partition-provided order hint must equal the argsort it skips."""
        rng = np.random.default_rng(5)
        gid = rng.integers(0, 6, 500).astype(np.int64)
        present = rng.random(500) > 0.3
        positions, _, order = semantics.partition_positions(
            gid, None, np.arange(6, dtype=np.int64), with_order=True
        )
        hinted = VirtualScatter(
            positions=positions, pos_present=present, size=500, order_hint=order
        )
        plain = VirtualScatter(positions=positions, pos_present=present, size=500)
        assert np.array_equal(hinted.fold_order(), plain.fold_order())

    @pytest.mark.parametrize("size", [7, 256, 257, 70_000])
    def test_hintless_order_is_the_int64_stable_argsort(self, size):
        """Without a hint the destinations are radix-sorted on a narrow
        cast; stray positions (no bound to cast by) take the int64 sort."""
        rng = np.random.default_rng(size)
        positions = rng.integers(0, size, 3_000).astype(np.int64)
        present = rng.random(3_000) > 0.2
        for pos in (positions, np.where(rng.random(3_000) < 0.01, -5, positions)):
            keep = np.flatnonzero(present)
            expected = keep[np.argsort(pos[keep], kind="stable")]
            scat = VirtualScatter(positions=pos, pos_present=present, size=size)
            assert np.array_equal(scat.fold_order(), expected)
        empty = VirtualScatter(positions=positions[:0], pos_present=None, size=size)
        assert len(empty.fold_order()) == 0
