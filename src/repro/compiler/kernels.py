"""Shared raw-array fold kernels for the compiling backend.

Three kinds of kernel live here:

* **Uniform-run fast kernels** used by the fused fast path
  (:mod:`repro.compiler.rt_fast`): when the compiler statically knows a
  fold's control vector has uniform runs of length ``L`` (or a single run
  spanning the vector), the generic run machinery of
  :mod:`repro.interpreter.semantics` — forward-fill, run-start detection,
  cumulative run ids — is unnecessary.  These kernels compute the same
  result directly from ``L``, read dense columns or the present rows of
  compact ones, and return the result without its ε padding (values plus
  the slots they sit on).  They are *bit-identical* to the generic
  path: integer/boolean outputs are order-independent, and floating-point
  sums accumulate in the exact element order of ``np.add.at`` (via
  ``np.bincount``, which also adds weights in input order).

* **The scattered-fold core** shared by the simulated runtime
  (:class:`repro.compiler.rt.Runtime`) and the fused runtime: folding over
  a *virtually* scattered vector (paper Figure 11) in input order into
  partition-aligned output slots.

* **Fused group-by kernels**: multi-column key packing
  (:func:`pack_keys`) and direct ``bincount``/``reduceat`` aggregation
  over the *non-uniform* destination runs of a scattered fold
  (:class:`GroupRuns` / :func:`grouped_fold_aggregate`).  A grouped
  query folds many aggregates over one scatter; detecting the run
  structure once (memoized on
  :class:`repro.compiler.rt.VirtualScatter`) and replacing the generic
  ``ufunc.at`` machinery with segment reductions is what lifts the
  Q1/Q19-class aggregation-bound plans off the scattered-fold slow
  path.  Bit-identity is preserved: float sums keep the exact
  ``np.bincount`` input-order additions, integer sums and ``max``/``min``
  are order-independent, and ε fill values match
  :func:`repro.interpreter.semantics.fold_aggregate` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.interpreter import semantics
from repro.interpreter.semantics import fold_fill

# -------------------------------------------------------- uniform-run folds
#
# A fold writes one result per run and pads the rest of the run with ε;
# these kernels never build that padding (paper section 3.1.2).  They
# return the *compact* result — the values and the slots they sit on —
# and come in two input shapes: a dense, mask-free column of ``n`` rows,
# or the ``k`` present values of a column plus their sorted slot indices.


def select_slots(hits: np.ndarray, run_length: int, n: int) -> np.ndarray:
    """Output slot of every FoldSelect hit (sorted positions below *n*):
    hits compact to the start of their run (``run_length == 0``: one
    run, so to slot 0)."""
    slots = np.arange(len(hits), dtype=np.int64)
    if run_length and len(hits):
        # where each run's hits begin among all hits, per run — the runs
        # are few, the hits many
        run_starts = np.arange(0, n, run_length, dtype=np.int64)
        first = np.searchsorted(hits, run_starts)
        slots += np.repeat(run_starts - first, np.diff(first, append=len(hits)))
    return slots


def fold_select_uniform(
    selected: np.ndarray,
    sel_present: np.ndarray | None,
    run_length: int,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``semantics.fold_select`` for uniform runs of ``run_length``, as
    ``(hits, slots)``: the qualifying positions and the slots they
    compact to.  ``run_length == 0`` means a single run."""
    qualifies = selected if selected.dtype.kind == "b" else selected != 0
    if sel_present is not None:
        qualifies = qualifies & sel_present
    hits = np.flatnonzero(qualifies)
    return hits, select_slots(hits, run_length, n)


def fold_aggregate_uniform(
    fn: str,
    values: np.ndarray,
    run_length: int,
    n: int,
) -> np.ndarray:
    """Per-run ``semantics.fold_aggregate`` of a dense column of ``n > 0``
    rows with uniform runs of ``run_length`` (0: a single run; the last
    run may be ragged); run *r* lands on slot ``r * run_length``.

    Float sums go through ``np.bincount``, which accumulates weights
    sequentially in input order — the same order (and float64
    accumulator) as the ``np.add.at`` ground truth, so results are
    bit-identical.  Integer sums are order-independent.
    """
    L = run_length if run_length else n
    if fn == "sum":
        if values.dtype.kind == "f":
            rids = np.arange(n, dtype=np.int64) // L
            return np.bincount(rids, weights=values.astype(np.float64, copy=False))
        vals = values.astype(np.int64, copy=False)
        if n % L == 0:
            return vals.reshape(n // L, L).sum(axis=1)
        return np.add.reduceat(vals, np.arange(0, n, L))
    ufunc = np.maximum if fn == "max" else np.minimum
    return ufunc.reduceat(values, np.arange(0, n, L))


def run_segments(index: np.ndarray, run_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the non-empty runs start among ``k`` present rows at sorted
    slots *index*: ``(segment starts into the k rows, output slots)``.
    A run with no present slot has no segment — its result is ε."""
    if len(index) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if run_length == 0:
        zero = np.zeros(1, dtype=np.int64)
        return zero, zero
    runs = index // run_length
    starts = np.concatenate(([0], np.flatnonzero(runs[1:] != runs[:-1]) + 1))
    return starts, runs[starts] * run_length


def fold_aggregate_segments(
    fn: str, values: np.ndarray, starts: np.ndarray, rids: np.ndarray | None = None
) -> np.ndarray:
    """Per-segment aggregate of ``k`` present values in input order
    (*starts* from :func:`run_segments`, :func:`control_segments` or a
    :class:`GroupRuns`; *rids* — the segment of every value — when the
    caller already holds it).

    Bit-identical to ``semantics.fold_aggregate`` over the padded column:
    ε slots contribute nothing there, float sums add each run's present
    values in the same order through the same ``np.bincount``, integer
    sums wrap associatively, ``max``/``min`` are order-independent.
    """
    is_float = values.dtype.kind == "f"
    if len(starts) == 0:
        sums = np.float64 if is_float else np.int64
        return np.zeros(0, dtype=sums if fn == "sum" else values.dtype)
    if fn == "sum":
        if is_float:
            if rids is None:
                rids = np.zeros(len(values), dtype=np.int64)
                rids[starts[1:]] = 1
                np.cumsum(rids, out=rids)
            return np.bincount(
                rids, weights=values.astype(np.float64, copy=False),
                minlength=len(starts),
            ).astype(np.float64, copy=False)
        return np.add.reduceat(values.astype(np.int64, copy=False), starts)
    ufunc = np.maximum if fn == "max" else np.minimum
    return ufunc.reduceat(values, starts)


def control_segments(
    control: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`run_segments` for a data-dependent control column whose
    ``k`` present values sit on the same slots *index* as the folded
    column.  ε control slots belong to the run of the preceding present
    value (leading ones to the first run, which therefore starts at slot
    0 — ``semantics.forward_fill``), so the runs of the padded column
    are exactly the value-runs of the present rows."""
    if len(index) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    starts = np.concatenate(([0], np.flatnonzero(control[1:] != control[:-1]) + 1))
    out_slots = index[starts]
    out_slots[0] = 0
    return starts, out_slots


def partition_positions_slots(
    values: np.ndarray,
    index: np.ndarray,
    n: int,
    fill: np.ndarray,
    pivots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``semantics.partition_positions`` for the ``k`` present rows of a
    compact column, as ``(positions, stable destination order)``.

    The reference ranks *every* row by the value sitting in its slot, so
    the ``n - k`` ε rows — which all hold *fill* — are counted into
    ``partition(fill)``, interleaved with its present rows by slot index:
    a present row is pushed back by every ε row of an earlier partition
    and, inside the fill's partition, by the ε rows at earlier slots.
    """
    k = len(values)
    part = semantics.partition_ids(values, pivots)
    order = semantics.stable_order(part, len(pivots))
    ranked = np.arange(k, dtype=np.int64)  # destination of order[i], so far
    if k < n:
        fill_part = semantics.partition_ids(fill, pivots)[0]
        counts = np.bincount(part, minlength=len(pivots))
        beside = counts[:fill_part].sum()
        after = beside + counts[fill_part]
        ranked[after:] += n - k
        rows = order[beside:after]  # the fill's partition, in slot order
        ranked[beside:after] += index[rows] - rows
    positions = np.empty(k, dtype=np.int64)
    positions[order] = ranked
    return positions, order


def fold_scan_uniform(
    values: np.ndarray,
    mask: np.ndarray | None,
    run_length: int,
    n: int,
    inclusive: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """``semantics.fold_scan`` for uniform runs of ``run_length``.

    Uses the same global ``cumsum`` and per-run rebase arithmetic as the
    generic kernel (identical float operations in identical order), only
    computing run starts/ids from ``run_length`` instead of the control
    array.
    """
    acc_dtype = np.float64 if values.dtype.kind == "f" else np.int64
    if n == 0:
        return np.zeros(0, dtype=acc_dtype), np.zeros(0, dtype=bool)
    vals = values.astype(acc_dtype, copy=True)
    if mask is not None:
        vals[~mask] = 0
    cumulative = np.cumsum(vals)
    L = run_length if run_length else n
    starts = np.arange(0, n, L)
    base_at_start = cumulative[starts] - vals[starts]
    base = np.repeat(base_at_start, L)[:n]  # the last run may be ragged
    scan = cumulative - base
    if not inclusive:
        scan = scan - vals
    return scan, np.ones(n, dtype=bool)


def fold_runs(
    fn: str,
    values: np.ndarray,
    lengths: np.ndarray | None,
) -> np.ndarray:
    """Single-run fold directly over (possibly RLE) segment data.

    An RLE run and a control-vector run are the same shape, so this is
    :func:`fold_aggregate_uniform`'s single-run case lifted onto
    compressed data: ``lengths is None`` folds plain values; otherwise
    ``values``/``lengths`` are run values and run lengths and the fold
    never materializes the decompressed column.  Returns a 0-d array.

    Restricted to the bit-identity-safe cases — callers must pre-check
    eligibility (:meth:`repro.storage.segment.ColumnData.fold` returns
    ``None`` otherwise):

    * ``sum`` over ints/bools: int64 addition wraps associatively, so
      ``Σ value·length`` equals the repeated additions exactly.  Float
      sums are *ineligible* — per-run multiplies round differently than
      the sequential accumulation order.
    * ``min``/``max`` over any dtype: deduplicating adjacent equal
      (bit-identical) elements preserves both the reduction order of the
      distinct values and NaN propagation, so the result is bit-exact.
    """
    if fn == "sum":
        vals = values.astype(np.int64, copy=False)
        if lengths is None:
            return np.asarray(vals.sum())
        return np.asarray((vals * lengths.astype(np.int64, copy=False)).sum())
    ufunc = np.maximum if fn == "max" else np.minimum
    return np.asarray(ufunc.reduce(values))


def combine_fold_partials(fn: str, partials: list[np.ndarray]) -> np.ndarray:
    """Combine per-segment :func:`fold_runs` partials in segment order.

    Segment order matters only for bitwise tie determinism (e.g. a
    ``max`` over ``-0.0`` and ``0.0``): combining in order reproduces
    exactly what one reduction over the concatenated values yields.
    """
    if len(partials) == 1:
        return partials[0]
    stacked = np.stack(partials)
    if fn == "sum":
        return np.asarray(np.add.reduce(stacked))
    ufunc = np.maximum if fn == "max" else np.minimum
    return np.asarray(ufunc.reduce(stacked))


# ------------------------------------------------------- fused group-by


def pack_keys(
    columns: list[np.ndarray],
    cards: list[int],
    offsets: list[int] | None = None,
) -> np.ndarray:
    """Row-major linearization of composite group keys into one id.

    ``gid = Σ (column_i - offset_i) * stride_i`` with strides derived
    from the key cardinalities — the same arithmetic the relational
    translator lowers to a ``Subtract``/``Multiply``/``Add`` chain and
    the row-engine baselines inline by hand, as a single int64 kernel.
    """
    if not columns or len(columns) != len(cards):
        raise ValueError("pack_keys needs one cardinality per key column")
    offsets = offsets or [0] * len(columns)
    stride = 1
    for card in cards:
        stride *= card
    gid = np.zeros(len(columns[0]), dtype=np.int64)
    for col, card, offset in zip(columns, cards, offsets):
        stride //= card
        term = col.astype(np.int64, copy=False)
        if offset:
            term = term - offset
        gid += term * stride if stride != 1 else term
    return gid


class GroupRuns:
    """Precomputed run structure of one scattered fold's destinations.

    Built once per (scatter, control) pair from the destination-ordered
    control values: run ids per ordered row, run start offsets, and the
    output slot of every run.  Every aggregate folded over the same
    scatter reuses this instead of re-detecting runs — the dominant cost
    of multi-aggregate group-by plans.
    """

    __slots__ = ("rids", "starts", "dest_slots", "n_runs")

    def __init__(self, rids: np.ndarray, starts: np.ndarray, dest_slots: np.ndarray):
        self.rids = rids
        self.starts = starts
        self.dest_slots = dest_slots
        self.n_runs = len(starts)


def group_runs(
    dest_control: np.ndarray | None,
    dest_positions: np.ndarray,
) -> GroupRuns:
    """Non-uniform run detection over destination-ordered control values.

    ``dest_control is None`` means a single run.  ``dest_positions`` are
    the scatter positions in the same (destination-sorted) order; the
    first run's result always lands at destination slot 0 — ε padding
    belongs to the *preceding* run and leading padding to the first run
    (forward-fill semantics, Figure 7).
    """
    n = len(dest_positions)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return GroupRuns(empty, empty, empty)
    if dest_control is None:
        rids = np.zeros(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
    else:
        is_start = np.empty(n, dtype=bool)
        is_start[0] = True
        np.not_equal(dest_control[1:], dest_control[:-1], out=is_start[1:])
        rids = np.cumsum(is_start).astype(np.int64) - 1
        starts = np.flatnonzero(is_start).astype(np.int64)
    dest_slots = dest_positions[starts].astype(np.int64, copy=True)
    dest_slots[0] = 0
    return GroupRuns(rids, starts, dest_slots)


def grouped_fold_aggregate(
    fn: str,
    runs: GroupRuns,
    values: np.ndarray,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run aggregate over precomputed non-uniform runs.

    Returns ``(per_run, nonempty)`` of length ``runs.n_runs``.
    Bit-identical to :func:`repro.interpreter.semantics.fold_aggregate`
    on the same ordered values: float sums use the same sequential
    input-order ``np.bincount`` additions; integer sums wrap
    associatively so ``np.add.reduceat`` over ε-zeroed values equals
    ``np.add.at``; ``max``/``min`` are order-independent and ε slots are
    substituted with the shared :func:`~repro.interpreter.semantics.fold_fill`
    identities (±inf for floats, so genuine infinities survive the fold).
    """
    n_runs = runs.n_runs
    if mask is None:
        per_run = fold_aggregate_segments(fn, values, runs.starts, runs.rids)
        return per_run, np.ones(n_runs, dtype=bool)
    is_float = values.dtype.kind == "f"
    acc_dtype = (np.float64 if is_float else np.int64) if fn == "sum" else values.dtype
    if n_runs == 0:
        return np.zeros(0, dtype=acc_dtype), np.zeros(0, dtype=bool)

    if fn == "sum":
        if is_float:
            weights = values.astype(np.float64, copy=False)
            use_idx = np.flatnonzero(mask)
            use_runs = runs.rids[use_idx]
            # bincount returns int64 (not float64) for *empty* weights —
            # an all-ε input must still produce a float sum vector
            # (conformance-fuzzer finding)
            per_run = np.bincount(
                use_runs, weights=weights[use_idx], minlength=n_runs
            ).astype(np.float64, copy=False)
            nonempty = np.zeros(n_runs, dtype=bool)
            nonempty[use_runs] = True
            return per_run, nonempty
        vals = values.astype(np.int64, copy=False)
        per_run = np.add.reduceat(np.where(mask, vals, 0), runs.starts)
        return per_run, np.logical_or.reduceat(mask, runs.starts)

    ufunc = np.maximum if fn == "max" else np.minimum
    acc = np.dtype(acc_dtype)
    vals = values.astype(acc, copy=False)
    per_run = ufunc.reduceat(np.where(mask, vals, fold_fill(fn, acc)), runs.starts)
    return per_run, np.logical_or.reduceat(mask, runs.starts)


def grouped_fold_count(
    runs: GroupRuns,
    n: int,
    mask: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run count over precomputed non-uniform runs.

    A count is the integer sum of ones — with no ε mask the per-run
    value is simply the run length (``diff`` of the start offsets), no
    gather or reduction at all.  Bit-identical to summing ones through
    :func:`grouped_fold_aggregate`.
    """
    n_runs = runs.n_runs
    if n_runs == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    if mask is None:
        per_run = np.diff(runs.starts, append=n).astype(np.int64, copy=False)
        return per_run, np.ones(n_runs, dtype=bool)
    per_run = np.add.reduceat(mask.astype(np.int64), runs.starts)
    return per_run, np.logical_or.reduceat(mask, runs.starts)


# ---------------------------------------------------------- scattered folds


def scattered_fold_aggregate(
    fn: str,
    positions: np.ndarray,
    size: int,
    control: np.ndarray | None,
    values: np.ndarray,
    mask: np.ndarray | None,
    order: np.ndarray,
    runs: GroupRuns | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold over a virtually scattered vector (paper Figure 11).

    Aggregates in input order directly into partition-aligned output
    slots: no data movement for the scatter itself.  Returns
    ``(result, present, n_groups)``; ``n_groups`` feeds the simulated
    runtime's aggregation-table cost accounting.  ``order`` is the
    memoized stable destination order of present rows — the ε-drop and
    ordering rule lives only in
    :meth:`repro.compiler.rt.VirtualScatter.fold_order` — and ``runs``
    the (optionally memoized, see
    :meth:`repro.compiler.rt.VirtualScatter.group_runs`) destination-run
    structure shared by every aggregate folded over the same scatter.
    """
    pos = positions
    if runs is None:
        dest_control = None
        if control is not None:
            dest_control = control[: len(pos)][order]
        runs = group_runs(dest_control, pos[order])
    ordered_values = values[: len(pos)][order]
    ordered_mask = None if mask is None else mask[: len(pos)][order]
    per_run, nonempty = grouped_fold_aggregate(fn, runs, ordered_values, ordered_mask)

    result = np.zeros(size, dtype=per_run.dtype)
    present = np.zeros(size, dtype=bool)
    result[runs.dest_slots] = per_run
    present[runs.dest_slots] = nonempty
    return result, present, runs.n_runs
