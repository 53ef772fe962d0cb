"""Merging per-chunk results back into full vectors.

Three merge kinds, matching the planner's zones, over the raw
:class:`~repro.compiler.rt_fast.FusedVal` chunks the workers return
(column arrays and shared masks merge directly, without round-tripping
every chunk through a Structured Vector):

* **concat** — partitioned values are slot-for-slot identical to the
  sequential result, so merging is pure concatenation (ε masks included:
  a dense chunk contributes all-True; a merged mask that ends up fully
  dense is re-suppressed, exactly as sequential execution would).
* **select** — a global ``FoldSelect`` compacts qualifying positions from
  slot 0.  Chunk partials already hold *global* positions (the chunk
  runner offsets them), so the merge concatenates the present values
  of every chunk, in chunk order, from slot 0 — a stable remap.
* **fold** — a global aggregate re-folds the per-chunk partials.  Only
  exactly-associative combinations reach this path (the planner keeps
  float sums sequential): integer sums wrap associatively, ``max``/``min``
  are order-insensitive, counts are integer sums.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.rt_fast import FusedVal
from repro.core.keypath import Keypath
from repro.errors import ExecutionError
from repro.interpreter.semantics import _AGG_UFUNC as _COMBINE


def concat_fused(chunks: list[FusedVal]) -> FusedVal:
    """Concatenate chunk values attribute-wise, preserving ε masks.

    Column arrays and presence masks concatenate directly; chunks that
    kept an attribute virtual (symbolic Range metadata) materialize it
    here, at the merge boundary, not inside the workers.  A mask that
    merges fully dense is re-suppressed to ``None``, exactly as the
    Structured Vector constructor does for the interpreter.
    """
    if not chunks:
        raise ExecutionError("merge: no chunks to concatenate")
    if len(chunks) == 1:
        return chunks[0]
    length = sum(c.length for c in chunks)
    cols: dict[Keypath, np.ndarray] = {}
    masks: dict[Keypath, np.ndarray | None] = {}
    for path in chunks[0].paths():
        cols[path] = np.concatenate([c.attr(path) for c in chunks])
        parts = [c.mask(path) for c in chunks]
        if all(m is None for m in parts):
            masks[path] = None
        else:
            merged = np.concatenate([
                np.ones(c.length, dtype=bool) if m is None else m
                for c, m in zip(chunks, parts)
            ])
            masks[path] = None if merged.all() else merged
    return FusedVal(length, cols, masks)


def merge_select_fused(chunks: list[FusedVal], path: Keypath) -> FusedVal:
    """Re-compact global-fold-select partials: all hits from slot 0."""
    length = sum(c.length for c in chunks)
    hits = []
    for c in chunks:
        values, mask = c.cols[path], c.masks.get(path)
        hits.append(values if mask is None else values[mask])
    out = np.zeros(length, dtype=np.int64)
    mask = np.zeros(length, dtype=bool)
    if hits:
        values = np.concatenate(hits)
        out[: len(values)] = values
        mask[: len(values)] = True
    return FusedVal(length, {path: out}, {path: mask})


def merge_fold_fused(fn: str, chunks: list[FusedVal], path: Keypath) -> FusedVal:
    """Re-fold per-chunk partial aggregates (result at global slot 0).

    Each chunk carries its partial at local slot 0 (ε when the chunk had
    no present input slot).  Combination is a left fold in chunk order —
    bit-identical to sequential execution for every combination the
    planner routes here.
    """
    try:
        combine = _COMBINE[fn]
    except KeyError:
        raise ExecutionError(f"merge: unknown fold combiner {fn!r}") from None
    length = sum(c.length for c in chunks)
    partials = []
    for c in chunks:
        if not c.length:
            continue
        mask = c.masks.get(path)
        if mask is None or mask[0]:
            partials.append(c.cols[path][0])
    out = np.zeros(length, dtype=chunks[0].cols[path].dtype)
    mask = np.zeros(length, dtype=bool)
    if partials:
        total = partials[0]
        for value in partials[1:]:
            total = combine(total, value)
        out[0] = total
        mask[0] = True
    return FusedVal(length, {path: out}, {path: mask})
