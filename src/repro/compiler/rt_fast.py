"""The runtime of the compiling backend: the operators, once.

:mod:`repro.compiler.runner` dispatches each operator of a program onto
a method here, over :class:`FusedVal` values — bare ``{keypath:
ndarray}`` dictionaries with shared (never copied) presence masks,
virtual :class:`RunInfo` attributes that stay symbolic until an operator
actually needs a buffer, and *compact* columns that store only their
present rows.  Folds whose control vectors carry static uniform-run
metadata dispatch to the direct kernels in :mod:`repro.compiler.kernels`
instead of the generic run machinery.

This is the only operator implementation a ``CompiledProgram`` executes.
Nothing here accounts for anything: a traced run shows the values these
methods return to :mod:`repro.compiler.pricing`, which prices what it
reads off them; an untraced run shows them to nobody.

Empty-slot suppression (paper section 3.1.2): a selection, the gathers
through it and every fold produce ε-padded vectors — a few present rows
in ``n`` slots.  Those are never built.  A :class:`Compact` column holds
the ``k`` present values, the :class:`Slots` they sit on and the one
value every ε slot would hold, and the operators below work on the ``k``
rows; an operator (or operand pairing) without a compact kernel calls
:meth:`Compact.pad`, which rebuilds exactly the padded arrays.

The scatter path (``Partition -> Scatter -> Fold``, the paper's group-by)
is dense addressing, not a sort: a ``Partition`` finds the bucket of each
row and defers ranking them (:class:`Groups`, :class:`PartitionVal`), a
fold over the still-virtual scatter accumulates straight into its group's
accumulator, and a scatter that has to land resolves the last writer of
every slot — see :meth:`FusedRuntime.partition`, ``fold_aggregate`` and
``_apply_scatter``.

Bit-identity contract: every output vector equals the interpreter's
output exactly — values, dtypes and ε masks — enforced by
``tests/compiler/test_fused.py`` and, node by node, by
``tests/compiler/test_runner.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from repro.compiler import kernels
from repro.core.controlvector import IDENTITY, RunInfo, constant_run, derive_runinfo
from repro.core.keypath import Keypath
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.interpreter import semantics
from repro.interpreter.engine import apply_binary, apply_unary


@dataclass
class VirtualScatter:
    """A scatter kept as an annotation: data + destination positions
    (paper section 3.1.3).

    It may also carry the group structure of the ``Partition`` its
    positions come from (``groups``, a :class:`Groups`): folds over the
    scatter then address their group's accumulator directly and nothing
    ranks a row — ``positions`` stays None until the scatter has to land.
    """

    positions: np.ndarray | None
    pos_present: np.ndarray | None
    size: int
    groups: object | None = field(default=None, repr=False, compare=False)
    #: what every fold over one scatter shares, built by the first of
    #: them: the slots their results land on (direct folds) and the landed
    #: value (all others)
    slots: object | None = field(default=None, repr=False, compare=False)
    landed: object | None = field(default=None, repr=False, compare=False)

    def destinations(self) -> np.ndarray:
        """The positions, ranked now if the Partition deferred them."""
        return self.groups.positions() if self.positions is None else self.positions

    def destination_runs(self, fold_kp: Keypath | None) -> int:
        """Runs of the landed control: the entries of the aggregation table
        a fold by *fold_kp* over this scatter writes (after that fold)."""
        if fold_kp is None or not self.size:
            return 1 if self.size else 0
        if self.landed is None:  # folded per group: one per occupied bucket
            return len(self.slots.index)
        control, _ = present_rows(self.landed, fold_kp)
        return int(np.count_nonzero(control[1:] != control[:-1])) + 1


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


class Compact:
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

    def zero_filled(self) -> bool:
        """Do the ε slots hold all-zero bytes (``-0.0`` does not count)?"""
        return not self.fill.tobytes().strip(b"\0")

    def pad(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(array, mask)`` an ε-padding kernel would have produced
        (built once per column, however many values it travels through)."""
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


def zero_fill(dtype) -> np.ndarray:
    """The ε image of a selection, gather or fold result."""
    return np.zeros(1, dtype=dtype)


#: the kinds of column a value does not have: one shared, read-only empty
#: mapping instead of three fresh dicts per value (a run allocates a value
#: per node; garbage-collector passes are triggered by allocation counts)
_NONE = MappingProxyType({})


class FusedVal:
    """A fused runtime value: raw column arrays plus shared masks.

    ``cols`` maps leaf keypaths to plain NumPy arrays; ``masks`` holds the
    presence mask per keypath (``None`` = dense); ``virtual`` holds
    attributes that exist only as :class:`RunInfo` metadata and are
    materialized on demand.  Masks are *shared, never mutated*: every
    consumer that combines masks allocates a fresh array.

    ``lazy`` holds storage-backed attributes that exist only as
    :class:`repro.storage.segment.ColumnData` handles — always dense —
    and decode on first touch.  Structural operators (project/zip/
    upsert/slice) pass handles through untouched; folds and gathers
    exploit them directly (fold over RLE runs, random access without
    decompressing); everything else extracts, which materializes.

    ``compact`` holds the attributes stored as :class:`Compact` columns;
    they too pass through the structural operators untouched.
    """

    __slots__ = ("length", "cols", "masks", "virtual", "scatter", "lazy", "compact")

    def __init__(self, length, cols, masks, virtual=_NONE, scatter=None,
                 lazy=_NONE, compact=_NONE):
        self.length = length
        self.cols = cols
        self.masks = masks
        self.virtual = virtual
        self.scatter = scatter
        self.lazy = lazy
        self.compact = compact

    def paths(self):
        return (tuple(self.cols) + tuple(self.virtual) + tuple(self.lazy)
                + tuple(self.compact))

    def put(self, path: Keypath, slots: Slots, values: np.ndarray,
            fill: np.ndarray) -> None:
        """Store a column given by its present rows: compact — or, when
        every slot is present, the plain dense column it then is."""
        if len(values) == slots.length:
            self.cols[path] = values
            self.masks[path] = None
        else:
            if self.compact is _NONE:
                self.compact = {}
            self.compact[path] = Compact(slots, values, fill)

    def attr(self, path: Keypath) -> np.ndarray:
        return extract(self, path)[0]

    def dtype_of(self, path: Keypath) -> np.dtype:
        """A leaf's dtype, read off whatever stores it (nothing is built)."""
        if path in self.virtual:
            return np.dtype(np.int64)
        column = self.compact.get(path)
        if column is not None:
            return column.values.dtype
        handle = self.lazy.get(path)
        return self.cols[path].dtype if handle is None else np.dtype(handle.dtype)

    def item_sizes(self) -> list[int]:
        return [self.dtype_of(path).itemsize for path in self.paths()]

    def present_count(self, path: Keypath, upto: int | None = None) -> int:
        """A leaf's present rows (among the first *upto*), likewise."""
        n = self.length if upto is None else min(upto, self.length)
        column = self.compact.get(path)
        if column is not None:
            return int(np.searchsorted(column.slots.index, n))
        mask = self.masks.get(path)  # (virtual and lazy leaves have none)
        return n if mask is None else int(np.count_nonzero(mask[:n]))

    def mask(self, path: Keypath) -> np.ndarray | None:
        if path in self.virtual or path in self.lazy:
            return None
        column = self.compact.get(path)
        if column is not None:
            return column.slots.mask()
        return self.masks.get(path)

    def runinfo(self, path: Keypath) -> RunInfo | None:
        return self.virtual.get(path)

    def scalar(self, path: Keypath):
        """The value of a length-1 dense attribute, else None."""
        if self.length != 1:
            return None
        info = self.virtual.get(path)
        if info is not None:
            return info.value(0)
        if path in self.lazy:
            return self.attr(path)[0]
        if path in self.cols and self.masks.get(path) is None:
            return self.cols[path][0]
        return None


#: Dense addressing — one scratch slot per bucket or destination instead of
#: a sort of the rows — is used while the scratch array is at most this many
#: times longer than the rows written into it; past that, sorting the few
#: rows is cheaper than sweeping the array.  Measured (NumPy 2.4, this
#: repository's sizes): ``np.full`` + ``np.maximum.at`` + ``flatnonzero``
#: against ``semantics.stable_order`` + adjacent-dedupe break even at a
#: ratio of 6 (30 k slots) to 8 (120-250 k slots).
DENSE_RATIO = 8


class Groups:
    """What a ``Partition`` knows about its rows before it ranks one.

    ``part[i]`` is the bucket of present row ``i`` of the key column
    (``key``: its ``k`` values and ``handle`` the storage handle they were
    read through, if any — what a fold's control is recognised by;
    ``slots``: where they sit, None when every slot is present) and
    ``counts`` the rows per bucket.  ``direct`` says the keys lie inside a
    consecutive pivot range — every bucket holds
    exactly one key value, so a fold controlled by the key column folds
    per bucket — and that one accumulator per bucket is no more than
    :data:`DENSE_RATIO` per row.  Per-row positions are ranked (the one
    sort left on the scatter path) only when something reads them.
    """

    __slots__ = ("key", "handle", "part", "counts", "slots", "length", "fill_part",
                 "direct", "_positions", "_landing")

    def __init__(self, key, handle, part, buckets, slots, length, fill_part, direct):
        self.key = key
        self.handle = handle
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


class PartitionVal(FusedVal):
    """A ``Partition``'s result with its positions deferred: a value that
    knows its :class:`Groups` and ranks the rows the first time anything
    reads a column of it (``cols`` / ``masks`` / ``compact`` stay unset
    until then).  A ``Scatter`` takes the groups and never does.
    """

    __slots__ = ("out", "groups")

    def __init__(self, length: int, out: Keypath, groups: Groups):
        self.length = length
        self.virtual = self.lazy = _NONE
        self.scatter = None
        self.out = out
        self.groups = groups

    def __getattr__(self, name):
        # reached for unset slots only
        if name not in ("cols", "masks", "compact"):
            raise AttributeError(name)
        groups = self.groups
        ranked = FusedVal(self.length, {}, {})
        if groups.slots is None:
            ranked.cols[self.out], ranked.masks[self.out] = groups.positions(), None
        else:
            ranked.put(self.out, groups.slots, groups.positions(), zero_fill(np.int64))
        # each attribute is published complete (a racing reader ranks again)
        self.cols, self.masks, self.compact = ranked.cols, ranked.masks, ranked.compact
        return getattr(ranked, name)

    # what the value is, answered from the groups: asking ranks nothing

    def paths(self):
        return (self.out,)

    def dtype_of(self, path: Keypath) -> np.dtype:
        return np.dtype(np.int64)

    def present_count(self, path: Keypath, upto: int | None = None) -> int:
        n = self.length if upto is None else min(upto, self.length)
        slots = self.groups.slots
        return n if slots is None else int(np.searchsorted(slots.index, n))


def extract(val: FusedVal, path: Keypath) -> tuple[np.ndarray, np.ndarray | None]:
    """(array, mask) of one attribute, full length: virtuals and lazies
    materialize on demand, compact columns pad."""
    info = val.virtual.get(path)
    if info is not None:
        return info.materialize(val.length), None
    if path in val.cols:
        return val.cols[path], val.masks.get(path)
    column = val.compact.get(path)
    if column is not None:
        return column.pad()
    handle = val.lazy.get(path)
    if handle is not None:
        array = np.asarray(handle.materialize())
        val.cols[path] = array
        val.lazy.pop(path, None)  # (two folds of one value may race here)
        return array, None
    raise ExecutionError(
        f"no attribute {path} in fused value with {list(val.paths())}"
    )


def compact_operands(operands):
    """``(slots, arrays, fills)`` when a map can run over present rows
    only: every operand is compact on one shared :class:`Slots` or a
    dense length-1 value (which broadcasts).  None for any other pairing
    — a full-length dense operand would leave the ε slots of the result
    holding different values, so that map pads and runs over all slots.
    """
    slots = None
    arrays = []
    fills = []
    for val, path in operands:
        column = val.compact.get(path)
        if column is not None:
            if slots is None:
                slots = column.slots
            elif not slots.same_as(column.slots):
                return None
            arrays.append(column.values)
            fills.append(column.fill)
        elif val.length == 1:
            array, mask = extract(val, path)
            if mask is not None:
                return None
            arrays.append(array)
            fills.append(array)
        else:
            return None
    if slots is None:
        return None
    return slots, arrays, fills


def present_rows(val: FusedVal, path: Keypath) -> tuple[np.ndarray, Slots | None]:
    """A fold's view of its input: ``(values, None)`` for a dense
    column, else the present values and the slots they sit on."""
    column = val.compact.get(path)
    if column is not None:
        return column.values, column.slots
    array, mask = extract(val, path)
    if mask is None:
        return array, None
    index = np.flatnonzero(mask)
    return array[index], Slots(index, val.length)


def from_padded(length: int, out: Keypath, array: np.ndarray,
                present: np.ndarray) -> FusedVal:
    """The result of an ε-padding reference kernel, stored compact."""
    index = np.flatnonzero(present)
    val = FusedVal(length, {}, {})
    val.put(out, Slots(index, length), array[index], zero_fill(array.dtype))
    return val


def fused_slice(val: FusedVal, lo: int, hi: int) -> FusedVal:
    """Row range ``[lo, hi)`` of a landed fused value (views, not copies)."""
    if val.scatter is not None:
        raise ExecutionError("fused_slice needs a landed value")
    if lo == 0 and hi == val.length:
        return val
    cols = {p: a[lo:hi] for p, a in val.cols.items()}
    masks = {p: (None if m is None else m[lo:hi]) for p, m in val.masks.items()}
    lazy = {p: h.slice(lo, hi) for p, h in val.lazy.items()}
    virtual = {}
    for path, info in val.virtual.items():
        if lo == 0:
            virtual[path] = info
        else:
            cols[path] = info.take(np.arange(lo, hi, dtype=np.int64))
            masks[path] = None
    out = FusedVal(hi - lo, cols, masks, virtual, lazy=lazy)
    cuts: dict[int, tuple] = {}  # columns sharing slots keep sharing them
    for path, column in val.compact.items():
        cut = cuts.get(id(column.slots))
        if cut is None:
            a, b = np.searchsorted(column.slots.index, (lo, hi))
            cut = cuts[id(column.slots)] = (
                Slots(column.slots.index[a:b] - lo, hi - lo), a, b
            )
        slots, a, b = cut
        out.put(path, slots, column.values[a:b], column.fill)
    return out


def _broadcast(a: np.ndarray, b: np.ndarray):
    if len(a) == 1 and len(b) != 1:
        return np.broadcast_to(a, (len(b),)), b, len(b)
    if len(b) == 1 and len(a) != 1:
        return a, np.broadcast_to(b, (len(a),)), len(a)
    n = min(len(a), len(b))
    return a[:n], b[:n], n


def _fit_mask(mask: np.ndarray | None, n: int) -> np.ndarray | None:
    if mask is None:
        return None
    if len(mask) == 1 and n != 1:
        return np.broadcast_to(mask, (n,))
    return mask[:n]


def fused_binary(fn, a, ma, b, mb):
    """One raw binary kernel: broadcast, apply, share-combine masks."""
    a, b, n = _broadcast(a, b)
    result = apply_binary(fn, a, b)
    ma = _fit_mask(ma, n)
    mb = _fit_mask(mb, n)
    if ma is None:
        mask = mb
    elif mb is None:
        mask = ma
    else:
        mask = ma & mb
    return result, mask


def fused_unary(fn, a, mask, dtype):
    """One raw unary kernel (the shared unary semantics)."""
    return apply_unary(fn, a, mask, dtype)


def literal(dtype: str, value) -> np.ndarray:
    """A length-1 constant operand (broadcasts)."""
    return np.array([value], dtype=np.dtype(dtype))


class FusedRuntime:
    """Execution context of one run: semantics only, no accounting.

    ``kernels`` provides the two per-run aggregate kernels the native
    tier replaces (``fold_aggregate_segments`` over present rows,
    ``fold_aggregate_uniform`` over a dense column): the NumPy ones of
    :mod:`repro.compiler.kernels` by default, :mod:`repro.native.runner`
    for C with a per-call NumPy fallback.
    """

    def __init__(self, storage, virtual_scatter: bool = True, kernels=kernels):
        self.storage = storage
        self.virtual_scatter_enabled = virtual_scatter
        self.kernels = kernels

    # -- maintenance --------------------------------------------------------

    def load(self, name: str) -> FusedVal:
        try:
            vector = self.storage[name]
        except KeyError:
            raise ExecutionError(f"Load: no vector named {name!r} in storage") from None
        cols = {}
        masks = {}
        lazy = {}
        for p in vector.paths:
            handle = vector.lazy_handle(p)
            if handle is not None:
                # storage column: stays a segment handle until touched
                lazy[p] = handle
                continue
            cols[p] = vector.attr(p)
            masks[p] = None if vector.is_dense(p) else vector.present(p)
        return FusedVal(len(vector), cols, masks, lazy=lazy)

    def force(self, val: FusedVal) -> StructuredVector:
        """Materialize into a plain Structured Vector (output boundary)."""
        val = self.dense(val)
        return StructuredVector(val.length, val.cols, val.masks)

    def dense(self, val: FusedVal) -> FusedVal:
        """*val* as plain full-length columns: a pending scatter landed,
        virtuals and lazies materialized, compact columns padded."""
        if val.scatter is not None:
            val = self._apply_scatter(val)
        if not (val.virtual or val.lazy or val.compact):
            return val
        cols = dict(val.cols)
        masks = dict(val.masks)
        for path, info in val.virtual.items():
            cols[path] = info.materialize(val.length)
            masks[path] = None
        for path, handle in val.lazy.items():
            cols[path] = np.asarray(handle.materialize())
            masks[path] = None
        for path, column in val.compact.items():
            cols[path], masks[path] = column.pad()
        return FusedVal(val.length, cols, masks)

    def _apply_scatter(self, val: FusedVal) -> FusedVal:
        """Land a pending scatter: position-directed write, later writes
        win, unfilled slots ε (``semantics.scatter``) — stored compact on
        the slots written, never zero-filling the rest.  Landed once per
        scatter, whoever asks."""
        scat = val.scatter
        if scat.landed is not None:
            return scat.landed
        rows = self.dense(FusedVal(val.length, val.cols, val.masks, val.virtual,
                                   lazy=val.lazy, compact=val.compact))
        out = FusedVal(scat.size, {}, {})
        pos = scat.destinations()
        n = min(len(pos), rows.length) if rows.cols else 0
        pos = pos[:n]
        valid = (pos >= 0) & (pos < scat.size)
        if scat.pos_present is not None:
            valid &= scat.pos_present[:n]
        src = np.flatnonzero(valid)
        dst = pos[src].astype(np.int64, copy=False)
        if scat.size <= DENSE_RATIO * len(src):
            # the last writer of every slot, by dense addressing
            writer = np.full(scat.size, -1, dtype=np.int64)
            np.maximum.at(writer, dst, src)
            dst = np.flatnonzero(writer >= 0)
            src = writer[dst]
        else:  # few rows among many slots: sort the rows
            order = semantics.stable_order(dst, scat.size)
            src, dst = src[order], dst[order]
            if len(dst) > 1:
                last = np.append(dst[1:] != dst[:-1], True)  # of each slot's writers
                if not last.all():
                    src, dst = src[last], dst[last]
        slots = Slots(dst, scat.size)
        for path, col in rows.cols.items():
            mask = rows.masks.get(path)
            written = None if mask is None else mask[src]
            if written is None or written.all():
                out.put(path, slots, col[src], zero_fill(col.dtype))
            else:
                # an ε row landed: its slot keeps what the row held — two
                # ε images (that and 0) in one column, so pad as written
                array = np.zeros(scat.size, dtype=col.dtype)
                array[dst] = col[src]
                present = np.zeros(scat.size, dtype=bool)
                present[dst] = written
                out.cols[path], out.masks[path] = array, present
        scat.landed = out
        return out

    # -- shape --------------------------------------------------------------

    def range_(self, out: Keypath, start: int, step: int, length: int) -> FusedVal:
        info = RunInfo(start=start, step=Fraction(step))
        return FusedVal(length, {}, {}, {out: info})

    def constant(self, out: Keypath, value, dtype: str) -> FusedVal:
        if isinstance(value, (int, bool)) and np.dtype(dtype).kind in "iub":
            return FusedVal(1, {}, {}, {out: constant_run(int(value))})
        return FusedVal(1, {out: literal(dtype, value)}, {out: None})

    def cross(self, kp1: Keypath, left: FusedVal, kp2: Keypath, right: FusedVal) -> FusedVal:
        n = left.length * right.length
        left_pos = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
        right_pos = np.tile(np.arange(right.length, dtype=np.int64), left.length)
        return FusedVal(n, {kp1: left_pos, kp2: right_pos}, {kp1: None, kp2: None})

    # -- element-wise -------------------------------------------------------

    def binary(self, fn: str, out: Keypath, left: FusedVal, kp1: Keypath,
               right: FusedVal, kp2: Keypath) -> FusedVal:
        # Symbolic fast path: control-vector arithmetic never materializes.
        info = left.runinfo(kp1)
        rscalar = right.scalar(kp2)
        integral = isinstance(rscalar, (int, np.integer, bool))
        if info is not None and rscalar is not None and integral:
            derived = derive_runinfo(fn, info, int(rscalar))
            if derived is not None:
                return FusedVal(left.length, {}, {}, {out: derived})
        # present rows only: the ε slots all hold fn(fill, fill)
        operands = compact_operands(((left, kp1), (right, kp2)))
        if operands is not None:
            slots, (a, b), (fa, fb) = operands
            column = Compact(slots, apply_binary(fn, a, b), apply_binary(fn, fa, fb))
            return FusedVal(slots.length, {}, {}, compact={out: column})
        # segment-wise fast path: an RLE-backed lazy column against a
        # length-1 operand evaluates per *run* and expands the results —
        # bit-identical (elementwise kernels) without ever materializing
        # the decompressed operand column
        handle = left.lazy.get(kp1) if left.scatter is None else None
        if (handle is not None and left.length > 1
                and handle.has_rle() and right.length == 1):
            b, mb = extract(right, kp2)
            if mb is None:
                pieces = []
                for vals, lengths in handle.run_pairs():
                    r = apply_binary(fn, vals, np.broadcast_to(b, (len(vals),)))
                    pieces.append(r if lengths is None else np.repeat(r, lengths))
                result = np.concatenate(pieces) if pieces else apply_binary(
                    fn, handle.materialize(), np.broadcast_to(b, (0,))
                )
                return FusedVal(len(result), {out: result}, {out: None})
        a, ma = extract(left, kp1)
        b, mb = extract(right, kp2)
        result, mask = fused_binary(fn, a, ma, b, mb)
        return FusedVal(len(result), {out: result}, {out: mask})

    def unary(self, fn: str, out: Keypath, source: FusedVal, kp: Keypath,
              dtype: str | None) -> FusedVal:
        column = source.compact.get(kp)
        if column is not None and fn == "IsPresent":
            # ε-ness reified as a dense boolean: the mask, not the column
            return FusedVal(source.length, {out: column.slots.mask().copy()}, {out: None})
        if column is not None:
            mapped = Compact(
                column.slots,
                fused_unary(fn, column.values, None, dtype)[0],
                fused_unary(fn, column.fill, None, dtype)[0],
            )
            return FusedVal(source.length, {}, {}, compact={out: mapped})
        a, mask = extract(source, kp)
        result, mask = fused_unary(fn, a, mask, dtype)
        return FusedVal(len(result), {out: result}, {out: mask})

    # -- structural ---------------------------------------------------------

    def zip(self, left: FusedVal, kp1: Keypath | None, out1: Keypath | None,
            right: FusedVal, kp2: Keypath | None, out2: Keypath | None) -> FusedVal:
        lv = self._side(left, kp1, out1)
        rv = self._side(right, kp2, out2)
        n = min(lv.length, rv.length)
        merged = FusedVal(n, {}, {}, {}, lazy={}, compact={})
        for side in (lv, rv):
            if side.length != n:
                side = fused_slice(side, 0, n)
            for kind in (side.cols, side.lazy, side.compact):
                for path in kind:
                    if path in merged.cols or path in merged.lazy or path in merged.compact:
                        raise ExecutionError(f"Zip would duplicate attribute {path}")
            merged.cols.update(side.cols)
            merged.masks.update(side.masks)
            merged.lazy.update(side.lazy)
            merged.compact.update(side.compact)
            merged.virtual.update(side.virtual)
        return merged

    def _side(self, val: FusedVal, kp: Keypath | None, out: Keypath | None) -> FusedVal:
        if kp is None:
            return val

        def renamed(kind: dict) -> dict:
            return {
                (out if path == kp else path.rebase(kp, out)): column
                for path, column in kind.items()
                if path == kp or path.startswith(kp)
            }

        side = FusedVal(val.length, renamed(val.cols), renamed(val.masks),
                        renamed(val.virtual), lazy=renamed(val.lazy),
                        compact=renamed(val.compact))
        if not side.paths():
            raise ExecutionError(f"Zip/Project: keypath {kp} not found")
        return side

    def project(self, out: Keypath, source: FusedVal, kp: Keypath) -> FusedVal:
        return self._side(source, kp, out)

    def upsert(self, target: FusedVal, out: Keypath, value: FusedVal, kp: Keypath) -> FusedVal:
        if target.scatter is not None:
            target = self._apply_scatter(target)
        n = target.length

        def others(kind):
            return {path: column for path, column in kind.items() if path != out}

        result = FusedVal(n, others(target.cols), others(target.masks),
                          target.virtual and others(target.virtual),
                          lazy=target.lazy and others(target.lazy),
                          compact=target.compact and others(target.compact))
        info = value.runinfo(kp)
        if info is not None and value.length >= n:
            result.virtual = {**result.virtual, out: info}
            return result
        column = value.compact.get(kp)
        if column is not None and value.length == n:
            result.compact = {**result.compact, out: column}
            return result
        handle = value.lazy.get(kp) if value.scatter is None else None
        if handle is not None and value.length >= n and (value.length == n or n > 1):
            # renaming a storage column: alias the segment handle under
            # the new path instead of decoding it
            result.lazy = {**result.lazy, out: handle if len(handle) == n else handle.slice(0, n)}
            return result
        array, mask = extract(value, kp)
        if len(array) == 1 and n != 1:
            array = np.broadcast_to(array, (n,)).copy()
            mask = None
        elif len(array) < n:
            raise ExecutionError(f"Upsert: value length {len(array)} < target {n}")
        result.cols[out] = array[:n]
        result.masks[out] = None if mask is None else mask[:n]
        return result

    def gather(self, source: FusedVal, positions: FusedVal, pos_kp: Keypath) -> FusedVal:
        if source.scatter is not None:
            # land the scatter first so bounds checks see the real length
            source = self._apply_scatter(source)
        info = positions.runinfo(pos_kp)
        if info is not None and info.step == 1 and info.cap is None:
            lo, hi = info.start, info.start + positions.length
            if 0 <= lo and hi <= source.length:
                # consecutive rows (a selection that kept everything):
                # the source itself, as views
                return fused_slice(source, lo, hi)
        column = positions.compact.get(pos_kp)
        if column is not None:
            gathered = self._gather_present(source, column)
            if gathered is not None:
                return gathered
        pos, pos_mask = extract(positions, pos_kp)
        if pos_mask is None and (
                len(pos) == 0 or (0 <= pos.min() and pos.max() < source.length)):
            # checked once: every position resolves, so index directly
            return self._rows_at(source, pos.astype(np.intp, copy=False))
        rows = self.dense(FusedVal(source.length, source.cols, source.masks,
                                   source.virtual, compact=source.compact))
        out_cols, out_masks = semantics.gather(
            pos, pos_mask, source.length, rows.cols, rows.masks
        )
        if source.lazy:  # random access through the handles, never a decode
            lazy_cols, lazy_masks = _gather_lazy(
                source.lazy, pos, pos_mask, source.length
            )
            out_cols.update(lazy_cols)
            out_masks.update(lazy_masks)
        return FusedVal(len(pos), out_cols, _normalized(out_masks))

    def _gather_present(self, source: FusedVal, positions: Compact) -> FusedVal | None:
        """Gather through compact positions: resolve the ``k`` present
        ones, leave the ε ones ε.  The result sits on the positions' own
        slots, minus those whose position is out of bounds or lands on an
        ε slot of the source column.  None when a result column's ε slots
        would not all hold 0 (see below); the caller then pads.
        """
        slots = positions.slots
        pos = positions.values.astype(np.int64, copy=False)
        if len(pos) and (pos.min() < 0 or pos.max() >= source.length):
            keep = np.flatnonzero((pos >= 0) & (pos < source.length))
            pos = pos[keep]
            slots = Slots(slots.index[keep], slots.length)
        out = FusedVal(slots.length, {}, {})
        #: per source slots: which positions hit a present row — columns
        #: that shared a pattern in the source share one in the result,
        #: so maps over them stay compact
        hits: dict[int, tuple] = {}
        for mask in {id(m): m for m in source.masks.values() if m is not None}.values():
            if not mask[pos].all():
                # a position on an ε source row copies whatever that row
                # holds, an invalid one yields 0: no single ε image
                return None
        for path, col in source.cols.items():
            out.put(path, slots, col[pos], zero_fill(col.dtype))
        for path, info in source.virtual.items():
            out.put(path, slots, info.take(pos), zero_fill(np.int64))
        for path, handle in source.lazy.items():
            out.put(path, slots, np.asarray(handle.take(pos)), zero_fill(handle.dtype))
        for path, col in source.compact.items():
            hit = hits.get(id(col.slots))
            if hit is None:
                at = np.searchsorted(col.slots.index, pos)
                np.minimum(at, len(col.slots.index) - 1, out=at)
                ok = (col.slots.index[at] == pos) if len(col.slots.index) else (
                    np.zeros(len(pos), dtype=bool))
                hit = hits[id(col.slots)] = (
                    (slots, at, True) if ok.all()
                    else (Slots(slots.index[ok], slots.length), at[ok], False)
                )
            where, at, all_hit = hit
            if not all_hit and not col.zero_filled():
                # a position on an ε source slot copies the source's fill,
                # an invalid one yields 0: two ε images in one column
                return None
            out.put(path, where, col.values[at], zero_fill(col.values.dtype))
        return out

    def scatter(self, data: FusedVal, positions: FusedVal, pos_kp: Keypath,
                size: int, keep_virtual: bool) -> FusedVal:
        groups = pos = present = None
        if (type(positions) is PartitionVal and positions.out == pos_kp
                and positions.length <= min(data.length, size)):
            # straight from a Partition and every row of it lands: hand
            # the folds its group structure, leave the rows unranked
            groups = positions.groups
            slots = groups.slots
        else:
            column = positions.compact.get(pos_kp)
            if column is not None and data.length >= positions.length:
                slots, pos = column.slots, column.values
            else:
                pos, present = extract(positions, pos_kp)
                n = min(data.length, len(pos))
                slots, pos = None, pos[:n]
                present = None if present is None else present[:n]
        # ε positions land nowhere: scatter the present rows only (rows of
        # *data* past the last position land nowhere either)
        rows = data if slots is None else self._rows_at(data, slots.index, slots)
        val = FusedVal(rows.length, rows.cols, rows.masks,
                       rows.virtual and dict(rows.virtual),
                       VirtualScatter(pos, present, size, groups),
                       lazy=rows.lazy and dict(rows.lazy),
                       compact=rows.compact and dict(rows.compact))
        if keep_virtual and self.virtual_scatter_enabled:
            return val
        return self._apply_scatter(val)

    def _rows_at(self, val: FusedVal, index: np.ndarray,
                 slots: Slots | None = None) -> FusedVal:
        """The rows of *val* at *index* (in bounds), as a dense value;
        *slots*: the pattern the index is, when it is one."""
        cols = {}
        masks = {}
        for path, col in val.cols.items():
            cols[path] = col[index]
            mask = val.masks.get(path)
            masks[path] = None if mask is None else mask[index]
        for path, info in val.virtual.items():
            cols[path] = info.take(index)
            masks[path] = None
        for path, handle in val.lazy.items():
            cols[path] = np.asarray(handle.take(index))
            masks[path] = None
        for path, column in val.compact.items():
            if slots is not None and slots.same_as(column.slots):
                cols[path], masks[path] = column.values, None
            else:
                array, mask = column.pad()
                cols[path], masks[path] = array[index], mask[index]
        return FusedVal(len(index), cols, _normalized(masks))

    def materialize(self, source: FusedVal) -> FusedVal:
        # ``Materialize`` and ``Break``: chunking and seams are priced, not
        # executed — the identity (pending scatters must land, though)
        if source.scatter is not None:
            return self._apply_scatter(source)
        return source

    def partition(self, out: Keypath, source: FusedVal, kp: Keypath,
                  pivots: FusedVal, pivot_kp: Keypath,
                  scatter_only: bool = False) -> FusedVal:
        """Bucket ids and counts now, per-row positions when read.

        ``scatter_only``: every consumer is a Scatter reading *out* as
        its positions, so the positions of ε rows are never observed and
        a compact key yields compact positions."""
        column = source.compact.get(kp) if scatter_only else None
        handle = None
        if column is not None:
            key, slots, fill = column.values, column.slots, column.fill
        else:
            handle = source.lazy.get(kp)  # (read before extract() decodes it)
            key, mask = extract(source, kp)
            if mask is not None:  # ε rows rank by whatever their slots hold
                piv, _ = extract(pivots, pivot_kp)
                positions, present = semantics.partition_positions(key, mask, piv)
                return FusedVal(len(key), {out: positions},
                                {out: None if present.all() else present})
            slots, fill = None, key[:0]
        info = pivots.runinfo(pivot_kp)
        lo, hi = (info.start, info.start + pivots.length) if (
            info is not None and info.step == 1 and info.cap is None) else (0, 0)
        # keys inside a consecutive pivot range are their own bucket ids
        direct = lo < hi and key.dtype.kind in "iub" and (
            len(key) == 0 or (lo <= key.min() and key.max() < hi))
        if direct:
            part = key.astype(np.int64, copy=False)
            if lo:
                part = part - lo
            # (the fill may lie outside the range: its bucket is clipped)
            fill_part = min(max(int(fill[0]) - lo, 0), hi - lo - 1) if len(fill) else 0
        else:
            piv, _ = extract(pivots, pivot_kp)
            part = semantics.partition_ids(key, piv)
            fill_part = int(semantics.partition_ids(fill, piv)[0]) if len(fill) else 0
        return PartitionVal(source.length, out, Groups(
            key, handle, part, pivots.length, slots, source.length, fill_part, direct
        ))

    # -- folds --------------------------------------------------------------

    @staticmethod
    def _run_length(val: FusedVal, fold_kp: Keypath | None, n: int) -> int | None:
        """The fold's static run structure: 0 — one run spans the vector;
        ``L`` — uniform runs of ``L`` (the last may be ragged); None —
        the runs depend on the control column's data."""
        if fold_kp is None:
            return 0
        info = val.runinfo(fold_kp)
        if info is None:
            return None
        rl = info.run_length(n)
        return 0 if rl >= n else rl

    def fold_select(self, out: Keypath, val: FusedVal, sel_kp: Keypath,
                    fold_kp: Keypath | None) -> FusedVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        n = val.length
        run_length = self._run_length(val, fold_kp, n)
        if run_length is None:
            sel, sel_mask = extract(val, sel_kp)
            values, present = semantics.fold_select(
                val.attr(fold_kp), sel, sel_mask, val.mask(fold_kp)
            )
            return from_padded(n, out, values, present)
        column = val.compact.get(sel_kp)
        if column is not None:  # ε slots never qualify
            chosen = column.values
            hits = column.slots.index[chosen if chosen.dtype.kind == "b" else chosen != 0]
            slots = kernels.select_slots(hits, run_length, n)
        else:
            sel, sel_mask = extract(val, sel_kp)
            hits, slots = kernels.fold_select_uniform(sel, sel_mask, run_length, n)
        if len(hits) == n:  # every row kept: the identity, symbolically
            return FusedVal(n, {}, {}, {out: IDENTITY})
        return FusedVal(n, {}, {}, compact={
            out: Compact(Slots(slots, n), hits, zero_fill(np.int64))
        })

    def fold_aggregate(self, fn: str, out: Keypath, val: FusedVal, agg_kp: Keypath,
                       fold_kp: Keypath | None) -> FusedVal:
        if val.scatter is not None:
            groups = self._direct_groups(val, fold_kp)
            if groups is None:
                val = self._apply_scatter(val)
            else:
                values, mask = extract(val, agg_kp)
                part, k = groups.part, len(groups.part)
                hits = None
                if mask is not None:  # ε values contribute nothing
                    index = np.flatnonzero(mask[:k])
                    values, part = values[index], part[index]
                    hits = np.bincount(part, minlength=len(groups.counts))
                per_group = kernels.fold_aggregate_groups(
                    fn, values[:k], part, len(groups.counts)
                )
                return self._grouped_result(out, val.scatter, per_group, hits)
        n = val.length
        run_length = self._run_length(val, fold_kp, n)
        result = FusedVal(n, {}, {})
        if run_length is None:
            column, control = val.compact.get(agg_kp), val.compact.get(fold_kp)
            if column is None or control is None or not control.slots.same_as(column.slots):
                values, mask = extract(val, agg_kp)
                folded, present = semantics.fold_aggregate(
                    fn, val.attr(fold_kp), values, mask, val.mask(fold_kp)
                )
                return from_padded(n, out, folded, present)
            starts, at = kernels.control_segments(control.values, column.slots.index)
            per_run = self.kernels.fold_aggregate_segments(fn, column.values, starts)
        else:
            # a fold over a storage column folds directly over the
            # segments (RLE runs fold without decompressing; see
            # ColumnData.fold / fold_grained for the eligibility rules)
            handle = val.lazy.get(agg_kp)
            per_run = None
            if handle is not None and n > 0:
                if run_length:
                    per_run = handle.fold_grained(fn, run_length)
                else:
                    folded = handle.fold(fn)
                    per_run = None if folded is None else folded.reshape(1)
            if per_run is not None:
                at = np.arange(len(per_run), dtype=np.int64) * run_length
            else:
                values, slots = present_rows(val, agg_kp)
                if slots is not None:
                    starts, at = kernels.run_segments(slots.index, run_length)
                    per_run = self.kernels.fold_aggregate_segments(fn, values, starts)
                elif n == 0:
                    at = np.zeros(0, dtype=np.int64)
                    per_run = kernels.fold_aggregate_segments(fn, values, at)
                else:
                    per_run = self.kernels.fold_aggregate_uniform(
                        fn, values, run_length, n
                    )
                    at = np.arange(len(per_run), dtype=np.int64) * run_length
        result.put(out, Slots(at, n), per_run, zero_fill(per_run.dtype))
        return result

    @staticmethod
    def _direct_groups(val: FusedVal, fold_kp: Keypath | None) -> Groups | None:
        """The group structure a fold over a virtual scatter may address
        directly: the scatter's positions are a Partition of the fold's
        own control column, one key value per bucket.  The column is
        recognised by identity — the array, or the storage handle it was
        read through — and else by value (a parallel run merges the key
        and the data it is part of separately).  None for every other
        shape — that fold lands the scatter."""
        groups = val.scatter.groups
        if groups is None or not groups.direct or fold_kp is None:
            return None
        control = val.cols.get(fold_kp)
        if control is None:
            handle = val.lazy.get(fold_kp)
            if handle is None:
                return None
            if handle is groups.handle:
                return groups
            control = extract(val, fold_kp)[0]  # (landing would decode it too)
        elif val.masks.get(fold_kp) is not None:
            return None
        k = len(groups.key)
        if control is groups.key or (
                len(control) >= k and np.array_equal(control[:k], groups.key)):
            return groups
        return None

    @staticmethod
    def _grouped_result(out: Keypath, scat: VirtualScatter, per_group: np.ndarray,
                        hits: np.ndarray | None) -> FusedVal:
        """One value per occupied bucket, on the slot its run starts at;
        *hits*: the contributing rows per bucket (None: every row)."""
        occupied, at = scat.groups.landing()
        slots = scat.slots
        if slots is None:
            # every aggregate of a grouped query lands on the same slots:
            # share them, so the arithmetic after the folds stays compact
            slots = scat.slots = Slots(at, scat.size)
        if hits is not None:
            hit = hits[occupied] > 0
            if not hit.all():
                occupied, slots = occupied[hit], Slots(at[hit], scat.size)
        result = FusedVal(scat.size, {}, {})
        result.put(out, slots, per_group[occupied], zero_fill(per_group.dtype))
        return result

    def fold_scan(self, out: Keypath, val: FusedVal, s_kp: Keypath,
                  fold_kp: Keypath | None, inclusive: bool) -> FusedVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        n = val.length
        run_length = self._run_length(val, fold_kp, n)
        values, mask = extract(val, s_kp)  # the result is dense: pad
        if run_length is None:
            result, _ = semantics.fold_scan(
                val.attr(fold_kp), values, mask, inclusive, val.mask(fold_kp)
            )
        else:
            result, _ = kernels.fold_scan_uniform(values, mask, run_length, n, inclusive)
        return FusedVal(n, {out: result}, {out: None})

    def fold_count(self, out: Keypath, val: FusedVal, counted_kp: Keypath | None,
                   fold_kp: Keypath | None) -> FusedVal:
        kp = counted_kp or _single_path(val)
        if val.scatter is not None:
            # (no counted column: the landed runs count their ε slots too)
            groups = None if kp is None else self._direct_groups(val, fold_kp)
            if groups is None:
                val = self._apply_scatter(val)
            else:
                # count == sum of ones: the bucket sizes, already counted
                mask = val.mask(kp)
                if mask is None:
                    return self._grouped_result(out, val.scatter, groups.counts, None)
                counts = np.bincount(groups.part[mask[: len(groups.part)]],
                                     minlength=len(groups.counts))
                return self._grouped_result(out, val.scatter, counts, counts)
        n = val.length
        run_length = self._run_length(val, fold_kp, n)
        slots = None if kp is None else _presence(val, kp)
        if run_length is None:
            control = val.compact.get(fold_kp)
            if slots is None or control is None or not control.slots.same_as(slots):
                counts, present = semantics.fold_count(
                    val.attr(fold_kp), n, None if kp is None else val.mask(kp),
                    val.mask(fold_kp),
                )
                return from_padded(n, out, counts, present)
            starts, at = kernels.control_segments(control.values, slots.index)
        elif slots is not None:
            starts, at = kernels.run_segments(slots.index, run_length)
        else:  # dense: every run counts its own length
            starts = at = np.arange(0, n, run_length or max(n, 1), dtype=np.int64)
        counts = np.diff(starts, append=n if slots is None else len(slots.index))
        result = FusedVal(n, {}, {})
        result.put(out, Slots(at, n), counts, zero_fill(np.int64))
        return result


# ------------------------------------------------------------------ helpers


def _single_path(val: FusedVal):
    paths = val.paths()
    return paths[0] if len(paths) == 1 else None


def _presence(val: FusedVal, path: Keypath) -> Slots | None:
    """Where *path* is present: None — everywhere."""
    column = val.compact.get(path)
    if column is not None:
        return column.slots
    mask = val.mask(path)
    if mask is None:
        return None
    return Slots(np.flatnonzero(mask), val.length)


def _gather_lazy(lazy, pos, pos_mask, source_len):
    """Gather lazy columns by random access through their segment handles.

    Mirrors :func:`repro.interpreter.semantics.gather` exactly for a dense
    (mask-free) source column — same ε-zero-fill, same output masks —
    but resolves positions via ``handle.take``: binary search into RLE
    runs / fancy-indexed FoR deltas, never a full decode.
    """
    out_cols: dict = {}
    out_masks: dict = {}
    valid = (pos >= 0) & (pos < source_len)
    if pos_mask is not None:
        valid &= pos_mask
    safe = np.where(valid, pos, 0).astype(np.int64, copy=False)
    all_valid = bool(valid.all())
    for path, handle in lazy.items():
        taken = np.asarray(handle.take(safe))
        if not all_valid:
            taken[~valid] = 0
        out_cols[path] = taken
        out_masks[path] = valid.copy()
    return out_cols, out_masks


def _normalized(masks: dict) -> dict:
    """Drop all-True masks (what the StructuredVector constructor does for
    the interpreter) so downstream folds take the dense fast lanes."""
    return {
        p: (None if (m is not None and m.all()) else m) for p, m in masks.items()
    }
