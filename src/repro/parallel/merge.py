"""Merging per-chunk results back into full vectors.

There is one merge, concatenation, over the raw
:class:`~repro.compiler.rt_fast.FusedVal` chunks the workers return —
each asked, column by column, for its present rows or its padded image
(the protocol of :mod:`repro.compiler.columns`), never round-tripped
through a Structured Vector.  Partitioned values are slot-for-slot
identical to the sequential result, so merging is pure concatenation (ε
masks included: a dense chunk contributes all-True; a merged mask that
ends up fully dense is re-suppressed, exactly as sequential execution
would).

A concatenation moves only what the sequential zone would not have had
to move either (a :class:`Merger` holds what one run's merges share):

1. a chunk column that is still the slice of the driving value the
   executor seeded the chunk with merges back to the unsliced column
   itself, with no copy (a storage column stays
   :class:`~repro.compiler.columns.Lazy`: its RLE folds and segment
   reads still engage in the SEQ zone);
2. an unread :class:`~repro.compiler.columns.Taken` over such a slice (or
   over a global fed whole) merges to one unread gather of the unsliced
   column, its positions shifted by the chunk origins: a gather nobody
   reads after the merge is never moved;
3. merged columns, position arrays and :class:`Slots` are memoised per
   run by the identity of their chunk parts: a column two frontier
   values share merges once, and columns that shared slots in every
   chunk share the merged ones (``Slots.same_as`` answers by identity).
"""

from __future__ import annotations

import numpy as np

from repro.compiler.columns import Column, Dense, Slots, Taken, on_slots
from repro.compiler.rt_fast import FusedVal
from repro.errors import ExecutionError


class Merger:
    """What the merges of one run share.

    ``seed(chunk, whole, part, origin)`` records that chunk *chunk* was
    handed *part*, the rows of *whole* from *origin* on (``origin`` 0 and
    ``part is whole`` for a value fed whole).  Everything merged is
    memoised under the ids of its chunk parts, which the memo keeps alive
    and compares with ``is`` — a recycled id never matches.
    """

    def __init__(self, chunks: int):
        #: per chunk: id(seeded column) -> (that column, its unsliced column, origin)
        self._seeds: list[dict] = [{} for _ in range(chunks)]
        self._memo: dict = {}

    def seed(self, chunk: int, whole: FusedVal, part: FusedVal, origin: int) -> None:
        seeds = self._seeds[chunk]
        for path, column in part.columns.items():
            seeds[id(column)] = (column, whole.columns[path], origin)

    def _memoized(self, key: tuple, parts: list, build):
        hit = self._memo.get(key)
        if hit is not None and all(a is b for a, b in zip(hit[0], parts)):
            return hit[1]
        merged = build()
        self._memo[key] = (parts, merged)
        return merged

    def _whole(self, parts: list[Column]) -> tuple[Column, list[int]] | None:
        """``(unsliced column, origin per chunk)`` when every part is a
        seeded slice (or the whole) of one column, else None."""
        whole, shifts = None, []
        for seeds, part in zip(self._seeds, parts):
            seeded = seeds.get(id(part))
            if seeded is None or seeded[0] is not part or (
                    whole is not None and seeded[1] is not whole):
                return None
            whole = seeded[1]
            shifts.append(seeded[2])
        return (whole, shifts) if len(shifts) == len(parts) else None

    def slots(self, parts: list, origins: list[int], lengths: list[int], length: int) -> Slots:
        """The concatenated presence pattern of chunk patterns *parts*
        (None: every slot of that chunk present)."""
        return self._memoized(("slots", *origins, length, *map(id, parts)), parts, lambda: Slots(
            _shifted([np.arange(n) if part is None else part.index
                      for part, n in zip(parts, lengths)], origins), length))

    def column(self, parts: list[Column], origins: list[int], lengths: list[int],
               length: int) -> Column:
        """The chunk columns *parts* (at *origins*) as one column."""
        return self._memoized(("column", *map(id, parts)), parts,
                              lambda: self._concat(parts, origins, lengths, length))

    def _concat(self, parts, origins, lengths, length) -> Column:
        whole = self._whole(parts)
        if whole is not None and len(whole[0]) == length and whole[1] == origins:
            return whole[0]  # the chunks' slices, back together: no copy
        taken = self._taken(parts, origins, lengths, length)
        if taken is not None:
            return taken
        sparse = [part.sparse() for part in parts]
        fills = {s.fill.tobytes(): s.fill for s in sparse if s is not None}
        if len(fills) == 1 and all(
            s is not None or part.mask() is None for part, s in zip(parts, sparse)
        ):
            # every chunk compact (or with every slot present) on one ε image
            slots = self.slots([None if s is None else s.slots for s in sparse],
                               origins, lengths, length)
            values = np.concatenate([part.rows()[0] for part in parts])
            (fill,) = fills.values()
            return on_slots(slots, values, fill)
        arrays, masks = zip(*(part.pad() for part in parts))
        mask = None
        if any(m is not None for m in masks):
            mask = np.concatenate([
                np.ones(len(a), dtype=bool) if m is None else m
                for a, m in zip(arrays, masks)
            ])
            if mask.all():
                mask = None
        return Dense(np.concatenate(arrays), mask)

    def _taken(self, parts, origins, lengths, length) -> Taken | None:
        """Unread gathers of seeded slices of one mask-free column, as one
        unread gather of that column."""
        if not all(isinstance(part, Taken) and part._column is None for part in parts):
            return None
        whole = self._whole([part.source for part in parts])
        if whole is None or whole[0].mask() is not None:
            return None
        source, shifts = whole
        indices = [part.index for part in parts]
        index = self._memoized(("index", *shifts, *map(id, indices)), indices,
                               lambda: _shifted(indices, shifts))
        slots = None
        if any(part.slots is not None for part in parts):
            slots = self.slots([part.slots for part in parts], origins, lengths, length)
        return Taken(source, index, slots)

    def concat(self, chunks: list[FusedVal]) -> FusedVal:
        """Concatenate chunk values attribute-wise, preserving ε masks.

        A seeded slice, or an unread gather of one, merges without moving
        a row (rules 1 and 2 of the module docstring).  Otherwise an
        attribute every chunk holds compact (or with every slot
        present) stays compact: present values concatenate, slots shift
        by the chunk origins.  Anything else pads: arrays and presence
        masks concatenate directly.  A mask that merges fully dense is
        re-suppressed to ``None``, exactly as the Structured Vector
        constructor does for the interpreter.
        """
        if not chunks:
            raise ExecutionError("merge: no chunks to concatenate")
        if len(chunks) == 1:
            return chunks[0]
        lengths = [c.length for c in chunks]
        origins = np.cumsum([0] + lengths[:-1]).tolist()
        length = sum(lengths)
        return FusedVal(length, {
            path: self.column([c.column(path) for c in chunks], origins, lengths, length)
            for path in chunks[0].paths()
        })


def _shifted(arrays: list[np.ndarray], shifts: list[int]) -> np.ndarray:
    """``concatenate([a + shift, ...])`` as int64, written in place (no
    temporary per part)."""
    out = np.empty(sum(map(len, arrays)), dtype=np.int64)
    at = 0
    for array, shift in zip(arrays, shifts):
        np.add(array, shift, out=out[at:at + len(array)])
        at += len(array)
    return out


def concat_fused(chunks: list[FusedVal]) -> FusedVal:
    """:meth:`Merger.concat` outside a run: nothing seeded, nothing shared."""
    return Merger(len(chunks)).concat(chunks)
