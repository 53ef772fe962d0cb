"""Ground-truth NumPy semantics for Voodoo operators.

These functions define what every operator *means*; the interpreter calls
them directly and the compiling backend is property-tested against them.
All functions are pure and operate on plain arrays + presence masks, so
they are reusable by tests and by the baselines.

Run semantics (paper section 2.2 / Figure 7): a *run* is a maximal stretch
of adjacent equal control values; every controlled fold writes its result
at the run start and pads the rest of the run with ε.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError

# ----------------------------------------------------------------------- runs


def forward_fill(control: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Replace ε control slots with the preceding present value.

    ε slots are fold *padding* — they belong to the run of the value that
    precedes them.  Leading ε slots are back-filled from the first present
    value (they cannot start a run of their own).
    """
    if present.all():
        return control
    idx = np.arange(len(control))
    have = np.where(present, idx, -1)
    np.maximum.accumulate(have, out=have)
    first = np.argmax(present) if present.any() else 0
    have = np.where(have < 0, first, have)
    return control[have]


def run_starts(control: np.ndarray, control_present: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask marking the first slot of every value-run."""
    n = len(control)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if control_present is not None:
        control = forward_fill(control, control_present)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(control[1:], control[:-1], out=starts[1:])
    return starts


def run_ids(
    control: np.ndarray | None,
    length: int,
    control_present: np.ndarray | None = None,
) -> np.ndarray:
    """Dense run index per slot (0-based); ``None`` control = single run."""
    if control is None:
        return np.zeros(length, dtype=np.int64)
    if len(control) != length:
        raise ExecutionError(
            f"control vector length {len(control)} != data length {length}"
        )
    return np.cumsum(run_starts(control, control_present)).astype(np.int64) - 1


def run_offsets(
    control: np.ndarray | None,
    length: int,
    control_present: np.ndarray | None = None,
) -> np.ndarray:
    """Start index of every run (the fold output slots)."""
    if control is None:
        return np.zeros(1 if length else 0, dtype=np.int64)
    return np.flatnonzero(run_starts(control, control_present)).astype(np.int64)


# -------------------------------------------------------------------- folds


def fold_select(
    control: np.ndarray | None,
    selected: np.ndarray,
    sel_present: np.ndarray | None = None,
    control_present: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of slots with non-zero *selected*, compacted per run.

    Returns ``(values, present)`` of the same length as the input; the
    qualifying global positions of each run are written contiguously from
    the run start, remaining slots ε (paper Figure 9).
    """
    n = len(selected)
    qualifies = selected != 0
    if sel_present is not None:
        qualifies &= sel_present
    rids = run_ids(control, n, control_present)
    starts = run_offsets(control, n, control_present)

    out = np.zeros(n, dtype=np.int64)
    present = np.zeros(n, dtype=bool)
    hit_positions = np.flatnonzero(qualifies)
    if len(hit_positions):
        hit_runs = rids[hit_positions]
        # rank of each hit within its run = position among hits of same run
        boundaries = np.flatnonzero(np.diff(hit_runs) != 0) + 1
        segment_start = np.zeros(len(hit_positions), dtype=np.int64)
        segment_start[boundaries] = boundaries
        np.maximum.accumulate(segment_start, out=segment_start)
        rank = np.arange(len(hit_positions)) - segment_start
        slots = starts[hit_runs] + rank
        out[slots] = hit_positions
        present[slots] = True
    return out, present


_AGG_UFUNC = {"sum": np.add, "max": np.maximum, "min": np.minimum}


def fold_fill(fn: str, acc_dtype: np.dtype):
    """Identity element for a min/max fold accumulator.

    Floats use ±inf — not ``finfo.min``/``finfo.max`` — so genuine
    infinities in the data survive the fold: ``max`` over ``{-inf}``
    must be ``-inf`` on every backend, including kernels whose unmasked
    ``reduceat`` fast path computes the true extremum.  (Found by the
    conformance fuzzer: the clamped fill diverged from the fused path.)
    """
    if acc_dtype.kind == "f":
        return -np.inf if fn == "max" else np.inf
    if acc_dtype.kind == "b":   # np.iinfo rejects bool; fold over e.g. a
        return fn != "max"      # bool group key hit this (fuzzer finding)
    info = np.iinfo(acc_dtype)
    return info.min if fn == "max" else info.max


def fold_aggregate(
    fn: str,
    control: np.ndarray | None,
    values: np.ndarray,
    present: np.ndarray | None = None,
    control_present: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum/Max/Min per run, result at the run start, ε elsewhere.

    ε input slots do not contribute; a run with no present slot yields an
    ε result (which downstream folds skip, keeping totals correct).
    """
    n = len(values)
    if fn == "sum":
        acc_dtype = np.float64 if values.dtype.kind == "f" else np.int64
    else:
        acc_dtype = values.dtype
    out = np.zeros(n, dtype=acc_dtype)
    out_present = np.zeros(n, dtype=bool)
    if n == 0:
        return out, out_present

    rids = run_ids(control, n, control_present)
    starts = run_offsets(control, n, control_present)
    n_runs = len(starts)

    if present is None:
        usable = np.ones(n, dtype=bool)
    else:
        usable = present
    use_idx = np.flatnonzero(usable)
    if len(use_idx) == 0:
        return out, out_present
    use_runs = rids[use_idx]
    use_vals = values[use_idx].astype(acc_dtype, copy=False)

    ufunc = _AGG_UFUNC[fn]
    if fn == "sum":
        if acc_dtype == np.float64:
            # bincount adds weights sequentially in input order with a
            # float64 accumulator — the exact additions np.add.at would
            # perform, an order of magnitude faster
            per_run = np.bincount(use_runs, weights=use_vals, minlength=n_runs)
        else:
            per_run = np.zeros(n_runs, dtype=acc_dtype)
            np.add.at(per_run, use_runs, use_vals)
    else:
        per_run = np.full(n_runs, fold_fill(fn, acc_dtype), dtype=acc_dtype)
        ufunc.at(per_run, use_runs, use_vals)
    run_nonempty = np.zeros(n_runs, dtype=bool)
    run_nonempty[use_runs] = True

    out[starts] = per_run
    out_present[starts] = run_nonempty
    return out, out_present


def fold_scan(
    control: np.ndarray | None,
    values: np.ndarray,
    present: np.ndarray | None = None,
    inclusive: bool = True,
    control_present: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run prefix sum; ε input slots contribute zero; output is dense."""
    n = len(values)
    acc_dtype = np.float64 if values.dtype.kind == "f" else np.int64
    if n == 0:
        return np.zeros(0, dtype=acc_dtype), np.zeros(0, dtype=bool)
    vals = values.astype(acc_dtype, copy=True)
    if present is not None:
        vals[~present] = 0
    cumulative = np.cumsum(vals)
    starts = run_offsets(control, n, control_present)
    # subtract the cumulative total at each run start to restart the sum
    base = np.zeros(n, dtype=acc_dtype)
    base_at_start = cumulative[starts] - vals[starts]
    base[starts] = base_at_start
    # broadcast the base of each run across the run via a cummax-style fill
    rid = run_ids(control, n, control_present)
    base = base_at_start[rid]
    scan = cumulative - base
    if not inclusive:
        scan = scan - vals
    return scan, np.ones(n, dtype=bool)


def fold_count(
    control: np.ndarray | None,
    length: int,
    counted_present: np.ndarray | None = None,
    control_present: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Number of (present) slots per run, at run starts, ε elsewhere."""
    ones = np.ones(length, dtype=np.int64)
    return fold_aggregate("sum", control, ones, counted_present, control_present)


# -------------------------------------------------------- scatter & partition


def scatter(
    positions: np.ndarray,
    pos_present: np.ndarray | None,
    size: int,
    columns: dict,
    masks: dict,
) -> tuple[dict, dict]:
    """Position-directed write; later writes win; unfilled slots are ε."""
    n = min(len(positions), *(len(c) for c in columns.values())) if columns else 0
    pos = positions[:n]
    valid = (pos >= 0) & (pos < size)
    if pos_present is not None:
        valid &= pos_present[:n]
    src = np.flatnonzero(valid)
    dst = pos[src]
    out_cols: dict = {}
    out_masks: dict = {}
    for path, col in columns.items():
        out = np.zeros(size, dtype=col.dtype)
        mask = np.zeros(size, dtype=bool)
        out[dst] = col[:n][src]
        m = masks.get(path)
        mask[dst] = True if m is None else m[:n][src]
        out_cols[path] = out
        out_masks[path] = mask
    return out_cols, out_masks


def partition_ids(values: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Partition of each value: index of the greatest pivot <= v, clipped to 0."""
    pivot_order = np.argsort(pivots, kind="stable")
    sorted_pivots = pivots[pivot_order]
    if (
        values.dtype.kind in "iub"
        and sorted_pivots.dtype.kind in "iub"
        and len(sorted_pivots)
        and np.array_equal(sorted_pivots, np.arange(len(pivots)))
    ):
        # identity-hash pivots 0..k-1 over integral keys: the interval
        # search collapses to a clip (bit-identical to searchsorted)
        return np.clip(values, 0, len(pivots) - 1).astype(np.int64, copy=False)
    part = np.searchsorted(sorted_pivots, values, side="right") - 1
    np.clip(part, 0, len(pivots) - 1, out=part)
    return part.astype(np.int64)


def stable_order(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for integer ids in ``[0, bound)``.

    NumPy radix-sorts keys of at most 16 bits and merge-sorts wider
    ones, so the ids are cast to the narrowest unsigned type that holds
    ``bound - 1``; wider ids take one stable pass per 16-bit digit, low
    digit first.  The permutation equals the ``int64`` argsort's.
    """
    if bound <= 1 << 8:
        return np.argsort(ids.astype(np.uint8), kind="stable")
    if bound <= 1 << 16:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    order = np.argsort((ids & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (bound - 1) >> shift:
        digit = ((ids[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def partition_positions(
    values: np.ndarray,
    present: np.ndarray | None,
    pivots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable scatter positions grouping *values* by pivot intervals.

    Partition of v = index of the greatest pivot <= v (clipped to 0), i.e.
    with pivots ``0..k-1`` and integral group ids, the id itself.  Output
    positions lay partitions out contiguously, stable within a partition.
    """
    n = len(values)
    part = partition_ids(values, pivots)
    counts = np.bincount(part, minlength=len(pivots))
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    # stable rank within partition
    order = stable_order(part, len(pivots))
    rank_sorted = np.arange(n, dtype=np.int64) - np.repeat(offsets, counts)
    positions = np.empty(n, dtype=np.int64)
    positions[order] = offsets[part[order]] + rank_sorted
    out_present = np.ones(n, dtype=bool) if present is None else present.copy()
    return positions, out_present


def gather(
    positions: np.ndarray,
    pos_present: np.ndarray | None,
    source_len: int,
    columns: dict,
    masks: dict,
) -> tuple[dict, dict]:
    """Resolve positions; OOB / ε positions yield ε output slots.

    ε output slots are zero-filled rather than left with whatever row the
    clamped position touched: deterministic ε content is what lets the
    partition-parallel backend produce bit-identical vectors (a chunk
    worker has no access to the full vector's row 0).
    """
    valid = (positions >= 0) & (positions < source_len)
    if pos_present is not None:
        valid &= pos_present
    safe = np.where(valid, positions, 0).astype(np.int64, copy=False)
    all_valid = bool(valid.all())
    out_cols: dict = {}
    out_masks: dict = {}
    for path, col in columns.items():
        taken = col[safe]
        if not all_valid:
            taken[~valid] = 0
        out_cols[path] = taken
        m = masks.get(path)
        out_masks[path] = valid.copy() if m is None else (valid & m[safe])
    return out_cols, out_masks
