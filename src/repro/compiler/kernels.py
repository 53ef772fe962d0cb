"""Shared raw-array fold kernels for the compiling backend.

Two kinds of kernel live here:

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

* **The scatter path's group kernels** (paper Figures 10/11): a grouped
  aggregate is ``Partition -> Scatter -> Fold``, and while the scatter
  stays virtual the fold "aggregates directly into partition-aligned
  slots: no data movement".  That is dense addressing, not a sort:
  :func:`fold_aggregate_groups` accumulates every row straight into its
  bucket's accumulator with the primitives
  :func:`repro.interpreter.semantics.fold_aggregate` is defined by
  (``bincount`` with weights, ``np.add.at``, ``np.maximum/minimum.at`` —
  0.35-0.40 ms per 250 k rows, against 1.9 ms for the stable radix sort
  plus 0.6 ms of gather and 0.6 ms of ``reduceat`` per aggregate it
  replaces), so it is bit-identical by construction; :func:`group_slots`
  places each bucket's result without ranking a row; and
  :func:`group_positions` ranks the rows — the one sort left — only when
  a scatter has to land.  (Composite group keys are linearized into
  one bucket id by the relational translator, as a Subtract/Multiply/Add
  chain of Voodoo operators, before they reach these kernels.)
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


def run_sizes(starts: np.ndarray, end: int) -> np.ndarray:
    """Sizes of the runs beginning at *starts* in a sequence of *end*
    items (``np.diff(starts, append=end)``, without its broadcast)."""
    return np.append(starts[1:], end) - starts


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
        slots += np.repeat(run_starts - first, run_sizes(first, len(hits)))
    return slots


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


def fold_aggregate_segments(fn: str, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment aggregate of ``k`` present values in input order
    (*starts* from :func:`run_segments` or :func:`control_segments`).

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


def group_positions(
    part: np.ndarray,
    counts: np.ndarray,
    index: np.ndarray | None,
    n: int,
    fill_part: int,
) -> np.ndarray:
    """``semantics.partition_positions`` for ``k`` present rows whose
    buckets are *part* (``counts`` rows per bucket; *index*: their sorted
    slots among ``n``, None when ``k == n``).

    The reference ranks *every* row by the value sitting in its slot, so
    the ``n - k`` ε rows — which all hold one fill, of bucket *fill_part*
    — are counted into that bucket, interleaved with its present rows by
    slot index: a present row is pushed back by every ε row of an earlier
    bucket and, inside the fill's bucket, by the ε rows at earlier slots.
    This is the one place the scatter path still sorts, and it runs only
    when something reads the positions (see ``columns.Groups``).
    """
    k = len(part)
    order = semantics.stable_order(part, len(counts))
    ranked = np.arange(k, dtype=np.int64)  # destination of order[i], so far
    if k < n:
        beside = counts[:fill_part].sum()
        after = beside + counts[fill_part]
        ranked[after:] += n - k
        rows = order[beside:after]  # the fill's bucket, in slot order
        ranked[beside:after] += index[rows] - rows
    positions = np.empty(k, dtype=np.int64)
    positions[order] = ranked
    return positions


def group_slots(
    part: np.ndarray,
    counts: np.ndarray,
    index: np.ndarray | None,
    n: int,
    fill_part: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(occupied buckets, the slot each one's fold result lands on)``
    — without ranking a row.

    Landed, a bucket is one run (the caller guarantees one control value
    per bucket) that starts at its first present row: its offset among
    the present rows, pushed back like :func:`group_positions` pushes
    that row — by all ``n - k`` ε rows past the fill's bucket, by the ε
    rows at earlier slots inside it.  ε slots belong to the preceding
    run and leading ones to the first (``semantics.forward_fill``), so
    the first result lands on slot 0.
    """
    occupied = np.flatnonzero(counts)
    at = (np.cumsum(counts) - counts)[occupied]
    k = len(part)
    if k < n and len(occupied):
        at[occupied > fill_part] += n - k
        if counts[fill_part]:
            first = np.argmax(part == fill_part)
            at[np.searchsorted(occupied, fill_part)] += index[first] - first
    at[:1] = 0
    return occupied, at


def fold_aggregate_groups(
    fn: str, values: np.ndarray, part: np.ndarray, buckets: int
) -> np.ndarray:
    """Per-bucket aggregate of *values* accumulated in input order
    straight into their bucket's accumulator — the dense-addressing fold
    over a virtual scatter (paper Figure 11): no data movement.

    These are the very primitives ``semantics.fold_aggregate`` is defined
    by, applied to the same values in the same order per group (a stable
    partition keeps input order inside a bucket), from the same initial
    accumulator: bit-identical by construction.  Buckets no value falls
    into keep the accumulator's identity.
    """
    if fn == "sum":
        if values.dtype.kind == "f":
            # (bincount returns int64 for *empty* weights)
            return np.bincount(
                part, weights=values.astype(np.float64, copy=False), minlength=buckets
            ).astype(np.float64, copy=False)
        acc = np.zeros(buckets, dtype=np.int64)
        np.add.at(acc, part, values.astype(np.int64, copy=False))
        return acc
    acc = np.full(buckets, fold_fill(fn, values.dtype), dtype=values.dtype)
    (np.maximum if fn == "max" else np.minimum).at(acc, part, values)
    return acc


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

