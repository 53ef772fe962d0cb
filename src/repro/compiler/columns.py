"""The columns of a runner value: seven kinds, one protocol.

A :class:`~repro.compiler.rt_fast.FusedVal` is one ``{keypath: column}``
mapping — the paper's Structured Vector, whose attributes may be
ε-padded (section 3.1.2) or never materialised (control vectors, the
deferred ranking of a ``Partition``, the rows a ``Gather`` or a landing
``Scatter`` would move, the comparisons of a compressed column — an
annotation until something reads them, section 3.1.3).  Every column
here answers the same questions, whatever stores it:

``dtype``, ``len()``
    what it holds, over how many slots;
``present(upto)``
    how many of the first *upto* slots are present (nothing is built);
``mask()``
    the padded presence mask, None when every slot is present;
``rows()``
    ``(values, slots)``: the present values and the :class:`Slots` they
    sit on — ``slots`` None when that is every slot;
``take(index)``
    ``(values, present)`` at in-bounds slot numbers, ε slots holding
    what ``pad()`` would show there — without padding;
``slice(lo, hi)``
    the column over that slot range (views; shared slots stay shared);
``pad()``
    ``(array, mask)``, full length: what an ε-padding kernel would have
    produced — the generic operand every operator can fall back on;
``once()``
    ``pad()`` for a single pass that keeps nothing (a fold): a gather
    nobody has read is made for that reader and not memoized, so its
    rows die with the fold instead of with the run's last value.

What only one kind can do cheaply is a method of that kind, answered
``None`` by all others (:class:`Column` holds the defaults): an operator
tries it and takes the ``pad()`` path when it gets None.

**Columns and values are immutable once built.**  Derived state lives on
the column it derives from — the padded image of a :class:`Compact`, the
materialised :class:`Run`, the decode of a :class:`Lazy`, the bools of a
:class:`Compared`, the ranking of a :class:`Deferred`, the rows of a
:class:`Taken` — each published by one attribute assignment of a
complete result (a racing reader computes it again, to the same bits),
so columns are shared freely between values and between chunk workers.
Masks and arrays are shared likewise and never written — and the ones a
plan carries from run to run (a ``Constant``'s) are read-only arrays, so
a write raises.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import kernels
from repro.core.controlvector import RunInfo
from repro.interpreter.engine import apply_binary

#: Dense addressing — one scratch slot per bucket or destination instead of
#: a sort of the rows — is used while the scratch array is at most this many
#: times longer than the rows written into it; past that, sorting the few
#: rows is cheaper than sweeping the array.  Measured (NumPy 2.4, this
#: repository's sizes): ``np.full`` + ``np.maximum.at`` + ``flatnonzero``
#: against ``semantics.stable_order`` + adjacent-dedupe break even at a
#: ratio of 6 (30 k slots) to 8 (120-250 k slots).
DENSE_RATIO = 8


class Slots:
    """The presence pattern of compact columns: the sorted indices of the
    ``k`` present rows among ``length`` slots.

    Columns with the same pattern share one instance where they can, and
    sharing is how operators recognise that two columns line up (see
    :meth:`same_as`).
    """

    __slots__ = ("index", "length", "_mask")

    def __init__(self, index: np.ndarray, length: int):
        self.index = index
        self.length = length
        self._mask: np.ndarray | None = None

    def same_as(self, other: "Slots") -> bool:
        """Do both describe one pattern?  Usually by identity; two folds
        of one vector build equal slots independently, and comparing
        ``k`` indices is cheaper than padding to ``length``."""
        return other is self or (
            other.length == self.length
            and len(other.index) == len(self.index)
            and bool((other.index == self.index).all())
        )

    def mask(self) -> np.ndarray:
        """The padded presence mask (built once; shared, never mutated)."""
        mask = self._mask
        if mask is None:
            mask = np.zeros(self.length, dtype=bool)
            mask[self.index] = True
            self._mask = mask
        return mask

    def cut(self, lo: int, hi: int) -> tuple["Slots", int, int]:
        """The pattern over slots ``[lo, hi)`` and the rows ``[a, b)`` on it."""
        a, b = np.searchsorted(self.index, (lo, hi))
        return Slots(self.index[a:b] - lo, hi - lo), a, b


def present_upto(slots: Slots | None, rows: int, upto: int | None) -> int:
    """How many of the *rows* present rows on *slots* (None: every slot)
    sit in the first *upto* slots (None: anywhere)."""
    if upto is None:
        return rows
    return min(upto, rows) if slots is None else int(np.searchsorted(slots.index, upto))


def zero_fill(dtype) -> np.ndarray:
    """The ε image of a selection, gather or fold result."""
    return np.zeros(1, dtype=dtype)


class Column:
    """The questions with one answer for most kinds, and — answered None —
    the fast paths only one kind has."""

    __slots__ = ()

    #: the group structure whose ranking a :class:`Deferred` column defers
    groups = None
    #: the run metadata a :class:`Run` column is (control-vector
    #: arithmetic derives from it and never materializes)
    info = None

    def mask(self) -> np.ndarray | None:
        return None

    def present(self, upto: int | None = None) -> int:
        n = len(self) if upto is None else min(upto, len(self))
        mask = self.mask()
        return n if mask is None else int(np.count_nonzero(mask[:n]))

    def shifted(self, offset: int) -> "Column":
        """The (position) column plus *offset*, as int64."""
        array, mask = self.pad()
        return Dense(array.astype(np.int64) + offset, mask)

    def once(self) -> tuple:
        """``pad()`` for a reader that makes one pass and keeps nothing (a
        fold): an unread :class:`Taken` gathers for that reader alone."""
        return self.pad()

    def resolved(self) -> "Column":
        """The column with nothing left unread behind it (:class:`Taken`:
        its rows, free of the source and positions they came from)."""
        return self

    def sparse(self) -> "Compact | None":
        """The column itself when it is present rows on slots with one ε
        image (:class:`Compact`) — what a map over present rows needs."""
        return None

    def dense_on(self, slots: "Slots") -> "Column | None":
        """The present rows as a dense column of their own, when they sit
        on exactly *slots* (a scatter of compact rows onto their own
        slots moves nothing)."""
        sparse = self.sparse()
        if sparse is not None and slots.same_as(sparse.slots):
            return Dense(sparse.values)
        return None

    def span(self) -> tuple[int, int] | None:
        """``(lo, hi)`` when the values are the consecutive integers
        ``lo .. hi - 1`` by construction (:class:`Run`)."""
        return None

    def runs(self) -> int | None:
        """The static run structure of a control column: 0 — one run
        spans it; ``L`` — uniform runs of ``L`` (the last may be ragged);
        None — the runs depend on data (every kind but :class:`Run`)."""
        return None

    def whole(self) -> np.ndarray | None:
        """The column as the one full-length array it is — every slot
        present, nothing cheaper to map than all of it (an unmasked
        :class:`Dense`, a :class:`Lazy` without RLE runs, a dense gather):
        the operand a full-length map hands NumPy as is."""
        return None

    def stored(self) -> bool:
        """Is the column a compressed storage column nothing has decoded
        yet (:class:`Lazy`)?  Asked by every map: O(1) for every kind."""
        return False

    def map_stored(self, fn: str, other) -> np.ndarray | None:
        """``fn(column, other)`` read off the stored segments — FoR codes,
        RLE runs — instead of a decode (:class:`Lazy`)."""
        return None

    def fold(self, fn: str, run_length: int) -> np.ndarray | None:
        """Per-run aggregates (``run_length`` 0: one run) straight off the
        stored segments (:class:`Lazy`)."""
        return None


class Dense(Column):
    """A full-length array and its presence mask (None: every slot present)."""

    __slots__ = ("array", "_mask")

    def __init__(self, array: np.ndarray, mask: np.ndarray | None = None):
        self.array = array
        self._mask = mask

    dtype = property(lambda self: self.array.dtype)

    def __len__(self) -> int:
        return len(self.array)

    def mask(self):
        return self._mask

    def rows(self):
        if self._mask is None:
            return self.array, None
        index = np.flatnonzero(self._mask)
        return self.array[index], Slots(index, len(self.array))

    def take(self, index, found=None):
        return self.array[index], None if self._mask is None else self._mask[index]

    def slice(self, lo, hi, cuts=None):
        return Dense(self.array[lo:hi], None if self._mask is None else self._mask[lo:hi])

    def pad(self):
        return self.array, self._mask

    def whole(self):
        return self.array if self._mask is None else None


class Compact(Column):
    """A column stored without its ε slots.

    ``values[i]`` is the row at slot ``slots.index[i]``; ``fill`` (a
    length-1 array of the column's dtype) is what every ε slot of the
    padded column holds — 0 out of a selection, a gather or a fold, and
    ``fn(fill_a, fill_b)`` after a map.  ε contents are invisible to
    every operator but ``Partition``, which ranks ε rows by them; a
    column whose ε slots would not all hold one value is never made
    compact.
    """

    __slots__ = ("slots", "values", "fill", "_padded")

    def __init__(self, slots: Slots, values: np.ndarray, fill: np.ndarray):
        self.slots = slots
        self.values = values
        self.fill = fill
        self._padded: tuple | None = None

    dtype = property(lambda self: self.values.dtype)

    def __len__(self) -> int:
        return self.slots.length

    def mask(self):
        return self.slots.mask()

    def present(self, upto=None):
        return present_upto(self.slots, len(self.values), upto)

    def rows(self):
        return self.values, self.slots

    def take(self, index, found=None):
        """*found*: the lookups one gather has made so far, per pattern —
        columns sharing slots share the search, and the caller recognises
        columns hit alike by the identity of ``present``."""
        hit = None if found is None else found.get(id(self.slots))
        if hit is None:
            slots = self.slots.index
            if len(slots):
                at = np.searchsorted(slots, index)
                np.minimum(at, len(slots) - 1, out=at)
                ok = slots[at] == index
            else:
                at, ok = None, np.zeros(len(index), dtype=bool)
            hit = (at, None if ok.all() else ok)
            if found is not None:
                found[id(self.slots)] = hit
        at, ok = hit
        if at is None:
            return np.full(len(index), self.fill[0], dtype=self.values.dtype), ok
        values = self.values[at]
        if ok is not None:
            values[~ok] = self.fill[0]
        return values, ok

    def slice(self, lo, hi, cuts=None):
        """*cuts*: the patterns one value's slice has cut so far — columns
        sharing slots keep sharing them."""
        cuts = {} if cuts is None else cuts
        cut = cuts.get(id(self.slots))
        if cut is None:
            cut = cuts[id(self.slots)] = self.slots.cut(lo, hi)
        slots, a, b = cut
        return on_slots(slots, self.values[a:b], self.fill)

    def zero_filled(self) -> bool:
        """Do the ε slots hold all-zero bytes (``-0.0`` does not count)?"""
        return not self.fill.tobytes().strip(b"\0")

    def pad(self) -> tuple[np.ndarray, np.ndarray]:
        """Built once per column, however many values it travels through."""
        padded = self._padded
        if padded is None:
            n = self.slots.length
            if self.zero_filled():
                array = np.zeros(n, dtype=self.values.dtype)
            else:
                array = np.full(n, self.fill[0], dtype=self.values.dtype)
            array[self.slots.index] = self.values
            padded = self._padded = (array, self.slots.mask())
        return padded

    def shifted(self, offset):
        return Compact(self.slots, self.values.astype(np.int64) + offset, self.fill)

    def sparse(self):
        return self


def on_slots(slots: Slots | None, values: np.ndarray, fill: np.ndarray) -> Column:
    """The column given by its present rows: compact — or, when every
    slot is present (``slots`` None says so outright), plain dense."""
    if slots is None or len(values) == slots.length:
        return Dense(values)
    return Compact(slots, values, fill)


class Run(Column):
    """A control vector kept as its :class:`RunInfo` (paper section 3.1.1):
    int64, every slot present, materialised only when something reads
    the values (*array*: them, when the maker has them — a constant)."""

    __slots__ = ("info", "length", "_array")

    dtype = np.dtype(np.int64)

    def __init__(self, info: RunInfo, length: int, array: np.ndarray | None = None):
        self.info = info
        self.length = length
        self._array = array

    def __len__(self) -> int:
        return self.length

    def take(self, index, found=None):
        return self.info.take(index), None

    def slice(self, lo, hi, cuts=None):
        if lo == 0:
            return Run(self.info, hi)
        return Dense(self.info.take(np.arange(lo, hi, dtype=np.int64)))

    def rows(self):
        array = self._array
        if array is None:
            array = self._array = self.info.materialize(self.length)
        return array, None

    pad = rows  # every slot is present: one answer to both

    def shifted(self, offset):
        if self.info.cap is not None:
            return super().shifted(offset)
        return Run(self.info.add(offset), self.length)

    def span(self):
        info = self.info
        if info.step == 1 and info.cap is None:
            return info.start, info.start + self.length
        return None

    def runs(self):
        run_length = self.info.run_length(self.length)
        return 0 if run_length >= self.length else run_length


class Lazy(Column):
    """A storage column as its segment handle
    (:class:`repro.storage.segment.ColumnData`): every slot present,
    decoded when something reads all of it — once per column, so every
    value the column travels through sees the one decode.  Folds and
    gathers read the segments directly (RLE runs fold without
    decompressing, positions resolve by random access), and so do
    comparisons (:meth:`map_stored`: FoR codes against a shifted
    threshold)."""

    __slots__ = ("handle", "_array")

    def __init__(self, handle):
        self.handle = handle
        self._array: np.ndarray | None = None

    dtype = property(lambda self: np.dtype(self.handle.dtype))

    def __len__(self) -> int:
        return len(self.handle)

    def take(self, index, found=None):
        if self._array is not None:
            return self._array[index], None
        return np.asarray(self.handle.take(index)), None

    def slice(self, lo, hi, cuts=None):
        if self._array is not None:
            return Dense(self._array[lo:hi])
        return Lazy(self.handle.slice(lo, hi))

    def rows(self):
        array = self._array
        if array is None:
            array = self._array = np.asarray(self.handle.materialize())
        return array, None

    pad = rows  # every slot is present: one answer to both

    def whole(self):
        return None if "rle" in self.handle.column.encoded else self.rows()[0]

    def stored(self):
        return self._array is None and self.handle.column.stored()

    def map_stored(self, fn: str, other) -> Column | None:
        """``fn(column, other)`` read off the stored segments, or None
        when one decode of the whole column is no dearer.

        *other* is a length-1 operand or an unread column of the same
        length (only a :class:`Lazy` one is read here).  A comparison
        against a length-1 integer is a :class:`Compared` column, read on
        its first use; any other map evaluates RLE pieces per run and
        expands the results (both bit-identical: the maps are
        element-wise and integer comparisons exact).  Two FoR columns on
        one piece grid compare code differences.  A float operand, a
        column other than signed integers, or an unsigned 64-bit side
        take the decode."""
        encoded = self.handle.column.encoded
        ufunc = _COMPARE.get(fn)
        exact = (ufunc is not None and "for" in encoded
                 and _exact(self.dtype, np.dtype(other.dtype)))
        if isinstance(other, Column):
            if not (exact and isinstance(other, Lazy) and other.stored()):
                return None
            compared = self.handle.compare_stored(ufunc, other.handle)
            return None if compared is None else Dense(compared)
        if exact and len(self.handle):
            return Compared(self.handle, None, ((fn, other),))
        if "rle" not in encoded or not len(self.handle):
            return None
        return Dense(self.handle.map_stored(lambda values: apply_binary(fn, values, other)))

    def fold(self, fn, run_length):
        if run_length:
            return self.handle.fold_grained(fn, run_length)
        folded = self.handle.fold(fn)
        return None if folded is None else folded.reshape(1)


class Compared(Column):
    """Comparisons of one compressed storage column against integer
    literals (:meth:`Lazy.map_stored`), read when something first reads
    a value: every slot present, one bool per row.

    Until then the comparisons combine: an ``And`` of two bounds is one
    window and an ``Or`` of ``Equals`` one membership test, so a range or
    an IN-list reads each FoR piece's codes in one routine into one bool
    array (:meth:`Segment.range_codes`, :meth:`Segment.member_codes`)
    where each comparison would read them again and each ``And`` /
    ``Or`` make one more array.  ``terms`` are the ``(fn, operand)``
    comparisons and ``op`` the ``LogicalAnd`` / ``LogicalOr`` joining
    them (None for one): a plain or RLE piece applies them as written,
    so every piece equals the decode-then-map result bit for bit."""

    __slots__ = ("handle", "op", "terms", "_array")

    def __init__(self, handle, op: str | None, terms: tuple):
        self.handle = handle
        self.op = op
        self.terms = terms
        self._array: np.ndarray | None = None

    dtype = property(lambda self: np.dtype(bool))

    def __len__(self) -> int:
        return len(self.handle)

    def rows(self):
        array = self._array
        if array is None:
            array = self.handle.map_stored(self._apply, self._codes())
            if array is None:  # an empty view
                array = np.zeros(0, dtype=bool)
            self._array = array
        return array, None

    pad = rows  # every slot is present: one answer to both

    def whole(self):
        return self.rows()[0]

    def take(self, index, found=None):
        return self.rows()[0][index], None

    def slice(self, lo, hi, cuts=None):
        if self._array is not None:
            return Dense(self._array[lo:hi])
        return Compared(self.handle.slice(lo, hi), self.op, self.terms)

    def stored(self):
        return self._array is None

    def map_stored(self, fn: str, other) -> Column | None:
        """The ``And`` of two bounds or the ``Or`` of equalities, unread,
        when *other* compares the same rows; else None."""
        mine, theirs = self.handle, getattr(other, "handle", None)
        if not isinstance(other, Compared) or other._array is not None or not (
                theirs.column is mine.column and (theirs.lo, theirs.hi) == (mine.lo, mine.hi)):
            return None
        if fn == "LogicalAnd" and self.op is other.op is None and (
                self.terms[0][0] in _BOUNDS and other.terms[0][0] in _BOUNDS):
            return Compared(self.handle, fn, self.terms + other.terms)
        if fn == "LogicalOr" and all(
                term[0] == "Equals" for term in self.terms + other.terms) and (
                self.op in (None, fn) and other.op in (None, fn)):
            return Compared(self.handle, fn, self.terms + other.terms)
        return None

    def _apply(self, values: np.ndarray) -> np.ndarray:
        (fn, operand), *rest = self.terms
        out = apply_binary(fn, values, operand)
        for fn, operand in rest:
            out = apply_binary(self.op, out, apply_binary(fn, values, operand))
        return out

    def _codes(self):
        """What a FoR piece answers from its codes: the one comparison,
        the window of the two bounds or the membership test."""
        if self.op is None:
            (fn, operand), = self.terms
            ufunc, threshold = _COMPARE[fn], int(operand[0])
            return lambda seg, lo, hi, out: seg.compare_codes(ufunc, lo, hi, threshold, out)
        if self.op == "LogicalOr":
            values = [int(operand[0]) for _, operand in self.terms]
            return lambda seg, lo, hi, out: seg.member_codes(lo, hi, values, out)
        low = high = None
        for fn, operand in self.terms:
            at_least, at_most = _BOUNDS[fn](int(operand[0]))
            if at_least is not None:
                low = at_least if low is None else max(low, at_least)
            if at_most is not None:
                high = at_most if high is None else min(high, at_most)
        return lambda seg, lo, hi, out: seg.range_codes(lo, hi, low, high, out)


#: the comparisons a window of integers answers: ``c`` -> (least, most)
#: value passing (None: unbounded)
_BOUNDS = {
    "Less": lambda c: (None, c - 1), "LessEqual": lambda c: (None, c),
    "Greater": lambda c: (c + 1, None), "GreaterEqual": lambda c: (c, None),
    "Equals": lambda c: (c, c),
}

#: the comparisons a storage column answers on its FoR codes
_COMPARE = {"Less": np.less, "LessEqual": np.less_equal, "Greater": np.greater,
            "GreaterEqual": np.greater_equal, "Equals": np.equal, "NotEquals": np.not_equal}


def _exact(column: np.dtype, other: np.dtype) -> bool:
    """Does NumPy compare a signed integer *column* with *other* exactly
    (an integer promotion — a uint64 or float side promotes to float)?"""
    return (column.kind == "i" and other.kind in "iub"
            and np.result_type(column, other).kind in "iu")


class Taken(Column):
    """A gather kept as an annotation: the rows of a *mask-free* column
    (``source.mask()`` is None) at the in-bounds positions ``index``,
    sitting on ``slots`` (None: every slot) with 0 on the ε slots.

    What it is — dtype, length, presence — it answers from ``index`` and
    ``slots``; the first read of a value makes the one
    ``source.take(index)``, and a column nobody reads is never moved.  A
    gather of an unread dense gather composes: it touches only the final
    rows of the first source.
    """

    __slots__ = ("source", "index", "slots", "_column")

    def __init__(self, source: Column, index: np.ndarray, slots: Slots | None = None):
        self.source = source
        self.index = index
        self.slots = None if slots is None or len(index) == slots.length else slots
        self._column: Column | None = None

    dtype = property(lambda self: self.source.dtype)

    def __len__(self) -> int:
        return len(self.index) if self.slots is None else self.slots.length

    def mask(self):
        return None if self.slots is None else self.slots.mask()

    def present(self, upto=None):
        return present_upto(self.slots, len(self.index), upto)

    def resolved(self) -> Column:
        column = self._column
        if column is None:
            values = self.source.take(self.index)[0]
            column = self._column = on_slots(self.slots, values, zero_fill(values.dtype))
        return column

    def take(self, index, found=None):
        if self._column is None and self.slots is None:
            return self.source.take(self.index[index])
        return self.resolved().take(index, found)

    def once(self):
        # not kept: rows only a fold reads would otherwise stay allocated,
        # a column's worth per aggregate, until the run's last value dies
        if self._column is None and self.slots is None:
            return self.source.take(self.index)
        return self.pad()

    def dense_on(self, slots):
        if self._column is not None:
            return self._column.dense_on(slots)
        if self.slots is not None and slots.same_as(self.slots):
            return Taken(self.source, self.index)  # still unread
        return None

    def rows(self):
        return self.resolved().rows()

    def pad(self):
        return self.resolved().pad()

    def sparse(self):
        return self.resolved().sparse()

    def whole(self):
        return self.resolved().whole()

    def slice(self, lo, hi, cuts=None):
        return self.resolved().slice(lo, hi, cuts)

    def shifted(self, offset):
        return self.resolved().shifted(offset)


class Groups:
    """What a ``Partition`` knows about its rows before it ranks one.

    ``part[i]`` is the bucket of present row ``i`` of the key column
    (``key``: its ``k`` values, ``column`` the column they were read from
    — what a fold's control is recognised by; ``slots``: where they sit,
    None when every slot is present) and ``counts`` the rows per bucket.
    ``direct`` says the keys lie inside a consecutive pivot range — every
    bucket holds exactly one key value, so a fold controlled by the key
    column folds per bucket — and that one accumulator per bucket is no
    more than :data:`DENSE_RATIO` per row.  Per-row positions are ranked
    (the one sort left on the scatter path) only when something reads them.
    """

    __slots__ = ("key", "column", "part", "counts", "slots", "length", "fill_part",
                 "direct", "_positions", "_landing")

    def __init__(self, key, column, part, buckets, slots, length, fill_part, direct):
        self.key = key
        self.column = column
        self.part = part
        self.counts = np.bincount(part, minlength=buckets)
        self.slots = slots
        self.length = length
        self.fill_part = fill_part
        self.direct = direct and buckets <= DENSE_RATIO * max(len(part), 1)
        self._positions = self._landing = None

    def _shape(self):
        index = None if self.slots is None else self.slots.index
        return self.part, self.counts, index, self.length, self.fill_part

    def positions(self) -> np.ndarray:
        """``semantics.partition_positions`` of the present rows."""
        if self._positions is None:
            self._positions = kernels.group_positions(*self._shape())
        return self._positions

    def landing(self) -> tuple[np.ndarray, np.ndarray]:
        """``(occupied buckets, the slot each one's fold result lands on)``."""
        if self._landing is None:
            self._landing = kernels.group_slots(*self._shape())
        return self._landing


class Deferred(Column):
    """A ``Partition``'s positions, not ranked yet: the column knows its
    :class:`Groups`, answers what it is from them, and ranks the rows the
    first time anything reads a value.  A ``Scatter`` takes the groups
    and never does."""

    __slots__ = ("groups", "_ranked")

    dtype = np.dtype(np.int64)

    def __init__(self, groups: Groups):
        self.groups = groups
        self._ranked: Column | None = None

    def __len__(self) -> int:
        return self.groups.length

    def ranked(self) -> Column:
        column = self._ranked
        if column is None:
            groups = self.groups
            column = self._ranked = on_slots(
                groups.slots, groups.positions(), zero_fill(np.int64))
        return column

    def mask(self):
        slots = self.groups.slots
        return None if slots is None else slots.mask()

    def present(self, upto=None):
        return present_upto(self.groups.slots, len(self.groups.part), upto)

    def rows(self):
        return self.groups.positions(), self.groups.slots

    def take(self, index, found=None):
        return self.ranked().take(index, found)

    def slice(self, lo, hi, cuts=None):
        return self.ranked().slice(lo, hi, cuts)

    def pad(self):
        return self.ranked().pad()
