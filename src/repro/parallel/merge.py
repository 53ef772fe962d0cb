"""Merging per-chunk results back into full vectors.

Three merge kinds, matching the planner's zones, over the raw
:class:`~repro.compiler.rt_fast.FusedVal` chunks the workers return —
each asked, column by column, for its present rows or its padded image
(the protocol of :mod:`repro.compiler.columns`), never round-tripped
through a Structured Vector:

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

from repro.compiler.columns import Compact, Dense, Run, Slots, on_slots, zero_fill
from repro.compiler.rt_fast import FusedVal
from repro.core.controlvector import IDENTITY
from repro.core.keypath import Keypath
from repro.errors import ExecutionError
from repro.interpreter.semantics import _AGG_UFUNC as _COMBINE


def concat_fused(chunks: list[FusedVal]) -> FusedVal:
    """Concatenate chunk values attribute-wise, preserving ε masks.

    An attribute every chunk holds compact (or with every slot present)
    stays compact: present values concatenate, slots shift by the chunk
    origins, and attributes that shared slots in every chunk share the
    merged ones.  Anything else pads: arrays and presence masks
    concatenate directly.  A mask that merges fully dense is
    re-suppressed to ``None``, exactly as the Structured Vector
    constructor does for the interpreter.
    """
    if not chunks:
        raise ExecutionError("merge: no chunks to concatenate")
    if len(chunks) == 1:
        return chunks[0]
    length = sum(c.length for c in chunks)
    origins = np.cumsum([0] + [c.length for c in chunks[:-1]])
    shared: dict[tuple, Slots] = {}
    merged = {}
    for path in chunks[0].paths():
        columns = [c.column(path) for c in chunks]
        sparse = [column.sparse() for column in columns]
        fills = {part.fill.tobytes(): part.fill for part in sparse if part is not None}
        if len(fills) == 1 and all(
            part is not None or column.mask() is None
            for column, part in zip(columns, sparse)
        ):
            key = tuple(None if part is None else id(part.slots) for part in sparse)
            slots = shared.get(key)
            if slots is None:
                slots = shared[key] = Slots(np.concatenate([
                    np.arange(lo, lo + len(column)) if part is None else part.slots.index + lo
                    for column, part, lo in zip(columns, sparse, origins)
                ]), length)
            values = np.concatenate([column.rows()[0] for column in columns])
            (fill,) = fills.values()
            merged[path] = on_slots(slots, values, fill)
            continue
        arrays, masks = zip(*(column.pad() for column in columns))
        mask = None
        if any(m is not None for m in masks):
            mask = np.concatenate([
                np.ones(len(a), dtype=bool) if m is None else m
                for a, m in zip(arrays, masks)
            ])
            if mask.all():
                mask = None
        merged[path] = Dense(np.concatenate(arrays), mask)
    return FusedVal(length, merged)


def merge_select_fused(chunks: list[FusedVal], path: Keypath) -> FusedVal:
    """Global-fold-select partials, merged: all hits from slot 0.

    Chunk partials hold *global* positions (the chunk runner offsets
    them) on chunk-local slots; the merge keeps the positions, in chunk
    order, and renumbers the slots."""
    length = sum(c.length for c in chunks)
    hits = np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [c.column(path).rows()[0] for c in chunks]
    )
    if len(hits) == length:  # every chunk kept every row
        return FusedVal(length, {path: Run(IDENTITY, length)})
    slots = Slots(np.arange(len(hits), dtype=np.int64), length)
    return FusedVal(length, {path: Compact(slots, hits, zero_fill(np.int64))})


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
        values, slots = c.column(path).rows()
        if len(values) and (slots is None or slots.index[0] == 0):
            partials.append(values[0])
    dtype = chunks[0].dtype_of(path)
    total = np.zeros(0, dtype=dtype)
    if partials:
        total = partials[0]
        for value in partials[1:]:
            total = combine(total, value)
        total = np.asarray(total, dtype=dtype).reshape(1)
    slots = Slots(np.arange(len(total), dtype=np.int64), length)
    return FusedVal(length, {path: on_slots(slots, total, zero_fill(dtype))})
