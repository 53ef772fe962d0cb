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

from repro.compiler.rt_fast import Compact, FusedVal, Slots, zero_fill
from repro.core.controlvector import IDENTITY
from repro.core.keypath import Keypath
from repro.errors import ExecutionError
from repro.interpreter.semantics import _AGG_UFUNC as _COMBINE


def concat_fused(chunks: list[FusedVal]) -> FusedVal:
    """Concatenate chunk values attribute-wise, preserving ε masks.

    An attribute every chunk holds compact (or fully dense) stays
    compact: present values concatenate, slots shift by the chunk
    origins, and attributes that shared slots in every chunk share the
    merged ones.  Anything else pads: column arrays and presence masks
    concatenate directly; chunks that kept an attribute virtual
    (symbolic Range metadata) materialize it here, at the merge
    boundary, not inside the workers.  A mask that merges fully dense is
    re-suppressed to ``None``, exactly as the Structured Vector
    constructor does for the interpreter.
    """
    if not chunks:
        raise ExecutionError("merge: no chunks to concatenate")
    if len(chunks) == 1:
        return chunks[0]
    length = sum(c.length for c in chunks)
    merged = FusedVal(length, {}, {})
    origins = np.cumsum([0] + [c.length for c in chunks[:-1]])
    shared: dict[tuple, Slots] = {}
    for path in chunks[0].paths():
        columns = [c.compact.get(path) for c in chunks]
        fills = {col.fill.tobytes() for col in columns if col is not None}
        if len(fills) == 1 and all(
            col is not None or (path in c.cols and c.masks.get(path) is None)
            for c, col in zip(chunks, columns)
        ):
            key = tuple(None if col is None else id(col.slots) for col in columns)
            slots = shared.get(key)
            if slots is None:
                slots = shared[key] = Slots(np.concatenate([
                    np.arange(lo, lo + c.length) if col is None else col.slots.index + lo
                    for c, col, lo in zip(chunks, columns, origins)
                ]), length)
            values = np.concatenate([
                c.cols[path] if col is None else col.values
                for c, col in zip(chunks, columns)
            ])
            fill = next(col.fill for col in columns if col is not None)
            merged.put(path, slots, values, fill)
            continue
        merged.cols[path] = np.concatenate([c.attr(path) for c in chunks])
        parts = [c.mask(path) for c in chunks]
        if all(m is None for m in parts):
            merged.masks[path] = None
        else:
            mask = np.concatenate([
                np.ones(c.length, dtype=bool) if m is None else m
                for c, m in zip(chunks, parts)
            ])
            merged.masks[path] = None if mask.all() else mask
    return merged


def merge_select_fused(chunks: list[FusedVal], path: Keypath) -> FusedVal:
    """Global-fold-select partials, merged: all hits from slot 0.

    Chunk partials hold *global* positions (the chunk runner offsets
    them) on chunk-local slots; the merge keeps the positions, in chunk
    order, and renumbers the slots."""
    length = sum(c.length for c in chunks)
    hits = [np.zeros(0, dtype=np.int64)]
    for c in chunks:
        column = c.compact.get(path)
        if column is not None:
            hits.append(column.values)
        else:  # symbolic (the chunk kept every row) or padded
            values, mask = c.attr(path), c.mask(path)
            hits.append(values if mask is None else values[mask])
    hits = np.concatenate(hits)
    if len(hits) == length:  # every chunk kept every row
        return FusedVal(length, {}, {}, {path: IDENTITY})
    slots = Slots(np.arange(len(hits), dtype=np.int64), length)
    return FusedVal(length, {}, {}, compact={
        path: Compact(slots, hits, zero_fill(np.int64))
    })


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
        column = c.compact.get(path)
        if column is not None:
            if len(column.values) and column.slots.index[0] == 0:
                partials.append(column.values[0])
        elif c.length:
            mask = c.mask(path)
            if mask is None or mask[0]:
                partials.append(c.attr(path)[0])
    column = chunks[0].compact.get(path)
    dtype = (chunks[0].attr(path) if column is None else column.values).dtype
    merged = FusedVal(length, {}, {})
    total = np.zeros(0, dtype=dtype)
    if partials:
        total = partials[0]
        for value in partials[1:]:
            total = combine(total, value)
        total = np.asarray(total, dtype=dtype).reshape(1)
    merged.put(path, Slots(np.arange(len(total), dtype=np.int64), length), total,
               zero_fill(dtype))
    return merged
