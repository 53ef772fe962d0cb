"""The runtime of the compiling backend: the operators, once.

:mod:`repro.compiler.runner` dispatches each operator of a program onto
a method here, over :class:`FusedVal` values — one ``{keypath: column}``
mapping each, never written once built.  What a column can be, and the
one protocol every kind answers, is :mod:`repro.compiler.columns`: an
operator below tries the fast path of the kind it hopes for (symbolic
:class:`Run` arithmetic, a map over the present rows of :class:`Compact`
columns on shared slots, a fold straight off a :class:`Lazy` column's
segments, the :class:`Groups` of a :class:`Deferred` ranking) and else
asks for ``pad()`` — the full-length ``(array, mask)`` every kind can
give.  A map tests the case the time is in first: operands that *are*
one full-length array (:meth:`Column.whole`) or a present length-1 value
go to NumPy as they are — it broadcasts the length-1 one itself, so
nothing here calls ``np.broadcast_to``.  What an operator would derive
from the program alone — a constant's value, the renaming a ``Project``
or ``Zip`` does (:func:`route`), a constant operand and the control-vector
arithmetic of a ``Binary`` (:class:`MapPlan`) — is handed in by the
runner, which keeps it on the plan; the methods below apply it.  Nothing
moves a cell nobody reads: a gather, and a scatter that
lands, leave every mask-free column of their source a :class:`Taken` —
the positions, kept as an annotation until a value of that column is
read — and the output boundary (:meth:`FusedRuntime.force`) resolves the
present rows of the outputs and pads none of them.  Folds whose control
vectors carry static uniform-run metadata dispatch to the direct kernels
in :mod:`repro.compiler.kernels` instead of the generic run machinery.

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
row and defers ranking them (:class:`Groups`, :class:`Deferred`), a
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

import numpy as np

from repro.compiler import kernels
from repro.compiler.columns import (
    DENSE_RATIO,
    Column,
    Compact,
    Deferred,
    Dense,
    Groups,
    Lazy,
    Run,
    Slots,
    Taken,
    on_slots,
    zero_fill,
)
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
        control, _ = self.landed.column(fold_kp).rows()
        return int(np.count_nonzero(control[1:] != control[:-1])) + 1


class FusedVal:
    """A runtime value: one ``{keypath: column}`` mapping over ``length``
    slots (the kinds of column: :mod:`repro.compiler.columns`), plus the
    :class:`VirtualScatter` still pending on it, if any.

    A value is never written after it is built: operators build new
    mappings over shared columns, so one value may be read by any number
    of chunk workers at once.
    """

    __slots__ = ("length", "columns", "scatter")

    def __init__(self, length: int, columns: dict, scatter=None):
        self.length = length
        self.columns = columns
        self.scatter = scatter

    def paths(self):
        return tuple(self.columns)

    def column(self, path: Keypath) -> Column:
        try:
            return self.columns[path]
        except KeyError:
            raise ExecutionError(
                f"no attribute {path} in fused value with {list(self.columns)}"
            ) from None

    def attr(self, path: Keypath) -> np.ndarray:
        return self.column(path).pad()[0]

    def mask(self, path: Keypath) -> np.ndarray | None:
        return self.column(path).mask()

    def dtype_of(self, path: Keypath) -> np.dtype:
        return self.column(path).dtype

    def item_sizes(self) -> list[int]:
        return [column.dtype.itemsize for column in self.columns.values()]

    def present_count(self, path: Keypath, upto: int | None = None) -> int:
        return self.column(path).present(upto)

    def scalar(self, path: Keypath):
        """The value of a length-1 present attribute, else None."""
        if self.length != 1:
            return None
        column = self.columns.get(path)
        if column is None or column.present() != 1:
            return None
        return column.pad()[0][0]

    def integer(self, path: Keypath) -> int | None:
        """:meth:`scalar` when it is an integer, as an int."""
        scalar = self.scalar(path)
        return int(scalar) if isinstance(scalar, (int, np.integer, bool)) else None


def to_fused(vector: StructuredVector) -> FusedVal:
    """A value over a Structured Vector: arrays and presence masks are
    shared, storage columns stay segment handles until touched (a chunk
    worker decodes only its slice of what it reads)."""
    columns = {}
    for path in vector.paths:
        handle = vector.lazy_handle(path)
        columns[path] = Lazy(handle) if handle is not None else Dense(
            vector.attr(path), None if vector.is_dense(path) else vector.present(path))
    return FusedVal(len(vector), columns)


def compact_operands(operands):
    """``(slots, arrays, fills)`` when a map can run over present rows
    only: every operand is compact on one shared :class:`Slots` or a
    present length-1 value (which broadcasts).
    None for any other pairing — a full-length dense operand would leave
    the ε slots of the result holding different values, so that map pads
    and runs over all slots.
    """
    slots = None
    arrays, fills = [], []
    for val, path in operands:
        column = val.column(path)
        sparse = column.sparse()
        if sparse is not None:
            if slots is None:
                slots = sparse.slots
            elif not slots.same_as(sparse.slots):
                return None
            arrays.append(sparse.values)
            fills.append(sparse.fill)
        elif val.length == 1 and column.present() == 1:
            array = column.pad()[0]
            arrays.append(array)
            fills.append(array)
        else:
            return None
    if slots is None:
        return None
    return slots, arrays, fills


def from_padded(length: int, out: Keypath, array: np.ndarray,
                present: np.ndarray) -> FusedVal:
    """The result of an ε-padding reference kernel, stored compact."""
    index = np.flatnonzero(present)
    return FusedVal(length, {
        out: on_slots(Slots(index, length), array[index], zero_fill(array.dtype))
    })


def fused_slice(val: FusedVal, lo: int, hi: int) -> FusedVal:
    """Row range ``[lo, hi)`` of a landed fused value (views, not copies)."""
    if lo == 0 and hi == val.length:
        return val
    if val.scatter is not None:
        raise ExecutionError("fused_slice needs a landed value")
    cuts: dict = {}
    return FusedVal(hi - lo, {
        path: column.slice(lo, hi, cuts) for path, column in val.columns.items()
    })


def _fit(a: np.ndarray, b: np.ndarray):
    """The operands at lengths NumPy maps as they are: equal, or one of
    them 1 (it broadcasts inside the kernel, zero guards included) —
    else both cut to the shorter."""
    if len(a) == len(b) or len(a) == 1 or len(b) == 1:
        return a, b
    n = min(len(a), len(b))
    return a[:n], b[:n]


def _fit_mask(mask: np.ndarray | None, n: int) -> np.ndarray | None:
    if mask is None:
        return None
    if len(mask) == 1 and n != 1:
        return np.repeat(mask, n)
    return mask[:n]


def fused_binary(fn, a, ma, b, mb):
    """One raw binary kernel: fit, apply, share-combine masks."""
    result = apply_binary(fn, *_fit(a, b))
    ma = _fit_mask(ma, len(result))
    mb = _fit_mask(mb, len(result))
    if ma is None:
        mask = mb
    elif mb is None:
        mask = ma
    else:
        mask = ma & mb
    return result, mask


def literal(dtype: str, value) -> np.ndarray:
    """A length-1 constant operand (broadcasts)."""
    return np.array([value], dtype=np.dtype(dtype))


def constant(out: Keypath, value, dtype: str) -> FusedVal:
    """The value of a ``Constant``: built once per plan and read by every
    run of it, so its array is read-only — an operator that writes a value
    it was given fails on the spot instead of corrupting the next run."""
    if isinstance(value, (int, bool)) and np.dtype(dtype).kind in "iub":
        array = literal("int64", int(value))
        column: Column = Run(constant_run(int(value)), 1, array)
    else:
        array = literal(dtype, value)
        column = Dense(array)
    array.setflags(write=False)
    return FusedVal(1, {out: column})


def route(columns: dict, kp: Keypath | None, out: Keypath | None) -> tuple | None:
    """How a ``Project`` or one side of a ``Zip`` renames a value with
    *columns*: ``((out path, in path), ...)`` for the attributes under
    *kp*, re-rooted at *out* — None when the side passes through as it is.
    A function of the program and the schema it runs over, so the plan
    carries it (:class:`repro.compiler.runner.ProgramRunner`) and a warm
    run renames by one dict comprehension."""
    if kp is None:
        return None
    if kp in columns:  # a leaf is no struct: nothing else sits under it
        return ((out, kp),)
    pairs = tuple(
        (path.rebase(kp, out), path) for path in columns if path.startswith(kp)
    )
    if not pairs:
        raise ExecutionError(f"Zip/Project: keypath {kp} not found")
    return pairs


def zip_routes(left: dict, kp1, out1, right: dict, kp2, out2) -> tuple:
    """Both sides' :func:`route` of a ``Zip`` over values with columns
    *left* and *right* (their outputs must not collide)."""
    routes = route(left, kp1, out1), route(right, kp2, out2)
    outs: list = []
    for columns, pairs in zip((left, right), routes):
        outs.extend(columns if pairs is None else (out for out, _ in pairs))
    if len(set(outs)) != len(outs):
        twice = next(path for path in outs if outs.count(path) > 1)
        raise ExecutionError(f"Zip would duplicate attribute {twice}")
    return routes


class MapPlan:
    """What the program alone says about one ``Binary``: its right operand
    when that is a ``Constant`` (``array``, the length-1 operand; ``scalar``,
    its value when it is an integer) and the control-vector derivation the
    node made last, ``(RunInfo in, scalar, RunInfo out | None)``."""

    __slots__ = ("array", "scalar", "derived")

    def __init__(self, constant: "FusedVal | None" = None, path: Keypath | None = None):
        self.array = self.scalar = self.derived = None
        # (a constant without the attribute: the map says so when it runs)
        if constant is not None and path in constant.columns:
            self.array = constant.column(path).pad()[0]
            self.scalar = constant.integer(path)


class FusedRuntime:
    """Execution context of one run: semantics only, no accounting.

    ``kernels`` provides the two per-run aggregate kernels the native
    tier replaces (``fold_aggregate_segments`` over present rows,
    ``fold_aggregate_uniform`` over a dense column): the NumPy ones of
    :mod:`repro.compiler.kernels` by default, :mod:`repro.native.runner`
    for a C float sum with a per-call NumPy fallback.
    """

    def __init__(self, storage, *, kernels=kernels):
        self.storage = storage
        self.kernels = kernels

    # -- maintenance --------------------------------------------------------

    def load(self, name: str) -> FusedVal:
        try:
            vector = self.storage[name]
        except KeyError:
            raise ExecutionError(f"Load: no vector named {name!r} in storage") from None
        return to_fused(vector)

    def force(self, val: FusedVal) -> StructuredVector:
        """The output boundary: a pending scatter landed and every
        column's present rows resolved — here, inside the run — as a
        Structured Vector over the resolved columns (a result keeps no
        gather's source alive), padded when (and only if) something reads
        a full-length image.  A :class:`Dense` column is skipped: its rows
        are the array and mask it already holds, and a masked one's
        ``rows()`` is not kept, so calling it here would be thrown away."""
        val = self.materialize(val)
        columns = {path: column.resolved() for path, column in val.columns.items()}
        for column in columns.values():
            if not isinstance(column, Dense):
                column.rows()
        return StructuredVector.over(val.length, columns)

    def materialize(self, source: FusedVal) -> FusedVal:
        """*source*, its pending scatter landed (``Materialize`` and
        ``Break`` are no more than this: chunking and seams are priced,
        not executed)."""
        return source if source.scatter is None else self._apply_scatter(source)

    def _apply_scatter(self, source: FusedVal) -> FusedVal:
        """Land a pending scatter: position-directed write, later writes
        win, unfilled slots ε (``semantics.scatter``) — stored compact on
        the slots written, never zero-filling the rest.  Landed once per
        scatter, whoever asks."""
        scat = source.scatter
        if scat.landed is not None:
            return scat.landed
        pos = scat.destinations()
        pos = pos[:min(len(pos), source.length)] if source.columns else pos[:0]
        src = np.flatnonzero((pos >= 0) & (pos < scat.size))
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
        columns = {}
        for path, column in source.columns.items():
            if column.mask() is None:
                columns[path] = Taken(column, src, slots)
                continue
            array, mask = column.pad()
            written = mask[src]
            if written.all():
                columns[path] = on_slots(slots, array[src], zero_fill(array.dtype))
            else:
                # an ε row landed: its slot keeps what the row held — two
                # ε images (that and 0) in one column, so pad as written
                landed = np.zeros(scat.size, dtype=array.dtype)
                landed[dst] = array[src]
                present = np.zeros(scat.size, dtype=bool)
                present[dst] = written
                columns[path] = Dense(landed, present)
        scat.landed = FusedVal(scat.size, columns)
        return scat.landed

    # -- shape --------------------------------------------------------------

    def range_(self, out: Keypath, info: RunInfo, length: int) -> FusedVal:
        return FusedVal(length, {out: Run(info, length)})

    def cross(self, kp1: Keypath, left: FusedVal, kp2: Keypath, right: FusedVal) -> FusedVal:
        n = left.length * right.length
        left_pos = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
        right_pos = np.tile(np.arange(right.length, dtype=np.int64), left.length)
        return FusedVal(n, {kp1: Dense(left_pos), kp2: Dense(right_pos)})

    # -- element-wise -------------------------------------------------------

    def binary(self, fn: str, out: Keypath, left: FusedVal, kp1: Keypath,
               right: FusedVal, kp2: Keypath, plan: MapPlan) -> FusedVal:
        column = left.column(kp1)
        if column.stored():
            # a compressed storage column nothing has decoded (or its
            # comparisons, unread): answered from its stored form when
            # that is cheaper than the decode
            other = plan.array
            if other is None:
                other = right.column(kp2)
                if right.length == 1 and other.mask() is None:
                    other = other.pad()[0]
                elif right.length != left.length or not other.stored():
                    other = None
            mapped = None if other is None else column.map_stored(fn, other)
            if mapped is not None:
                return FusedVal(left.length, {out: mapped})
        a = column.whole()
        if a is not None:
            # where the time is: a full-length map asks both kinds once
            # and hands NumPy the arrays
            b = plan.array
            if b is None:
                other = right.column(kp2)
                b = other.whole()
                if b is None and right.length == 1 and other.present() == 1:
                    b = other.pad()[0]
            if b is not None:
                result = apply_binary(fn, *_fit(a, b))
                return FusedVal(len(result), {out: Dense(result)})
        info = column.info
        if info is not None:
            scalar = plan.scalar if plan.array is not None else right.integer(kp2)
            if scalar is not None:
                # control-vector arithmetic never materializes
                known = plan.derived
                if known is None or known[0] is not info or known[1] != scalar:
                    known = plan.derived = (info, scalar, derive_runinfo(fn, info, scalar))
                if known[2] is not None:
                    return FusedVal(left.length, {out: Run(known[2], left.length)})
        # present rows only: the ε slots all hold fn(fill, fill)
        operands = compact_operands(((left, kp1), (right, kp2)))
        if operands is not None:
            slots, (a, b), (fa, fb) = operands
            mapped = Compact(slots, apply_binary(fn, a, b), apply_binary(fn, fa, fb))
            return FusedVal(slots.length, {out: mapped})
        b, mb = right.column(kp2).pad()
        a, ma = column.pad()
        result, mask = fused_binary(fn, a, ma, b, mb)
        return FusedVal(len(result), {out: Dense(result, mask)})

    def unary(self, fn: str, out: Keypath, source: FusedVal, kp: Keypath,
              dtype: str | None) -> FusedVal:
        column = source.column(kp)
        if fn == "IsPresent":
            # ε-ness reified as a dense boolean: the mask, not the column
            mask = column.mask()
            present = np.ones(source.length, dtype=bool) if mask is None else mask.copy()
            return FusedVal(source.length, {out: Dense(present)})
        sparse = column.sparse()
        if sparse is not None:
            mapped = Compact(
                sparse.slots,
                apply_unary(fn, sparse.values, None, dtype)[0],
                apply_unary(fn, sparse.fill, None, dtype)[0],
            )
            return FusedVal(source.length, {out: mapped})
        result, mask = apply_unary(fn, *column.pad(), dtype)
        return FusedVal(len(result), {out: Dense(result, mask)})

    # -- structural ---------------------------------------------------------

    def zip(self, left: FusedVal, right: FusedVal, routes: tuple) -> FusedVal:
        """*routes*: :func:`zip_routes` of the two sides' paths."""
        n = min(left.length, right.length)
        columns: dict = {}
        for side, pairs in zip((left, right), routes):
            columns.update(fused_slice(self.project(side, pairs), 0, n).columns)
        return FusedVal(n, columns)

    def project(self, source: FusedVal, pairs: tuple | None) -> FusedVal:
        """*pairs*: the :func:`route` of the source's paths."""
        if pairs is None:
            return source
        columns = source.columns
        return FusedVal(source.length, {out: columns[path] for out, path in pairs})

    def upsert(self, target: FusedVal, out: Keypath, value: FusedVal, kp: Keypath) -> FusedVal:
        target = self.materialize(target)
        n = target.length
        column = value.column(kp)
        if value.length == 1 and n > 1:
            array = column.pad()[0]
            column = Dense(np.full(n, array[0], dtype=array.dtype))
        elif value.length < n:
            raise ExecutionError(f"Upsert: value length {value.length} < target {n}")
        elif value.length > n:
            column = column.slice(0, n)
        columns = dict(target.columns)  # (a copy hashes no keypath again)
        columns.pop(out, None)
        columns[out] = column  # last; shared, whatever kind it is: nothing is decoded
        return FusedVal(n, columns)

    def gather(self, source: FusedVal, positions: FusedVal, pos_kp: Keypath) -> FusedVal:
        # (a pending scatter lands first, so bounds checks see the real length)
        source = self.materialize(source)
        column = positions.column(pos_kp)
        span = column.span()
        if span is not None and 0 <= span[0] and span[1] <= source.length:
            # consecutive rows (a selection that kept everything): the
            # source itself, as views
            return fused_slice(source, *span)
        if column.present() < positions.length:
            gathered = self._gather_present(source, *column.rows())
            if gathered is not None:
                return gathered
        pos, pos_mask = column.pad()
        if pos_mask is None and (
                len(pos) == 0 or (0 <= pos.min() and pos.max() < source.length)):
            # checked once: every position resolves, so index directly
            return self._rows_at(source, pos.astype(np.intp, copy=False))
        # out-of-bounds and ε positions yield ε slots, zero-filled
        # (``semantics.gather``): row 0 stands in while the rest resolve
        valid = (pos >= 0) & (pos < source.length)
        if pos_mask is not None:
            valid &= pos_mask
        rows = self._rows_at(source, np.where(valid, pos, 0).astype(np.int64, copy=False))
        columns = {}
        for path, taken in rows.columns.items():
            array, mask = taken.pad()
            array[~valid] = 0
            mask = valid if mask is None else valid & mask
            columns[path] = Dense(array, None if mask.all() else mask)
        return FusedVal(len(pos), columns)

    def _gather_present(self, source: FusedVal, pos: np.ndarray,
                        slots: Slots) -> FusedVal | None:
        """Gather through ε-padded positions: resolve the ``k`` present
        ones (*pos*, on *slots*), leave the ε ones ε.  The result sits on
        the positions' own slots, minus those whose position is out of
        bounds or lands on an ε slot of the source column.  None when a
        result column's ε slots would not all hold 0 (see below); the
        caller then pads.
        """
        pos = pos.astype(np.int64, copy=False)
        if len(pos) and (pos.min() < 0 or pos.max() >= source.length):
            keep = np.flatnonzero((pos >= 0) & (pos < source.length))
            pos = pos[keep]
            slots = Slots(slots.index[keep], slots.length)
        columns = {}
        #: per source pattern: the lookup, and the slots of the positions
        #: that hit a present row — columns that shared a pattern in the
        #: source share one in the result, so maps over them stay compact
        found: dict = {}
        where: dict = {}
        for path, column in source.columns.items():
            if column.mask() is None:  # every position hits a row: unread until read
                columns[path] = Taken(column, pos, slots)
                continue
            values, hit = column.take(pos, found)
            on = slots
            if hit is not None and not hit.all():
                sparse = column.sparse()
                if sparse is None or not sparse.zero_filled():
                    # a position on an ε source slot copies what that slot
                    # holds, an invalid one yields 0: no single ε image
                    return None
                on = where.get(id(hit))
                if on is None:
                    on = where[id(hit)] = Slots(slots.index[hit], slots.length)
                values = values[hit]
            columns[path] = on_slots(on, values, zero_fill(values.dtype))
        return FusedVal(slots.length, columns)

    def scatter(self, data: FusedVal, positions: FusedVal, pos_kp: Keypath,
                size: int, keep_virtual: bool) -> FusedVal:
        column = positions.column(pos_kp)
        groups = column.groups
        if groups is not None and positions.length <= min(data.length, size):
            # straight from a Partition and every row of it lands: hand
            # the folds its group structure, leave the rows unranked
            pos, slots = None, groups.slots
        else:
            groups = None
            if positions.length > data.length:
                column = column.slice(0, data.length)
            pos, slots = column.rows()
        # ε positions land nowhere: scatter the present rows only (rows of
        # *data* past the last position land nowhere either)
        rows = data if slots is None else self._rows_at(data, slots.index, slots)
        val = FusedVal(rows.length, rows.columns, VirtualScatter(pos, size, groups))
        if keep_virtual:
            return val
        return self.materialize(val)

    def _rows_at(self, val: FusedVal, index: np.ndarray,
                 slots: Slots | None = None) -> FusedVal:
        """The rows of *val* at *index* (in bounds), as a dense value —
        of a mask-free column, unread until something reads them;
        *slots*: the pattern the index is, when it is one."""
        columns = {}
        for path, column in val.columns.items():
            own = None if slots is None else column.dense_on(slots)
            if own is not None:
                columns[path] = own
            elif column.mask() is None:
                columns[path] = Taken(column, index)
            else:  # an ε-padded column is probed through its padded image
                array, mask = column.pad()
                mask = mask[index]
                columns[path] = Dense(array[index], None if mask.all() else mask)
        return FusedVal(len(index), columns)

    def partition(self, out: Keypath, source: FusedVal, kp: Keypath,
                  pivots: FusedVal, pivot_kp: Keypath,
                  scatter_only: bool = False) -> FusedVal:
        """Bucket ids and counts now, per-row positions when read.

        ``scatter_only``: every consumer is a Scatter reading *out* as
        its positions, so the positions of ε rows are never observed and
        a compact key yields compact positions."""
        column = source.column(kp)
        sparse = column.sparse() if scatter_only else None
        if sparse is not None:
            key, slots, fill = sparse.values, sparse.slots, sparse.fill
        else:
            key, mask = column.pad()
            if mask is not None:  # ε rows rank by whatever their slots hold
                piv = pivots.attr(pivot_kp)
                positions, present = semantics.partition_positions(key, mask, piv)
                return FusedVal(len(key), {
                    out: Dense(positions, None if present.all() else present)
                })
            slots, fill = None, key[:0]
        lo, hi = pivots.column(pivot_kp).span() or (0, 0)
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
            piv = pivots.attr(pivot_kp)
            part = semantics.partition_ids(key, piv)
            fill_part = int(semantics.partition_ids(fill, piv)[0]) if len(fill) else 0
        return FusedVal(source.length, {out: Deferred(Groups(
            key, column, part, pivots.length, slots, source.length, fill_part, direct
        ))})

    # -- folds --------------------------------------------------------------

    @staticmethod
    def _run_length(val: FusedVal, fold_kp: Keypath | None) -> int | None:
        """The fold's static run structure (:meth:`Column.runs`; no control
        column: one run)."""
        return 0 if fold_kp is None else val.column(fold_kp).runs()

    def fold_select(self, out: Keypath, val: FusedVal, sel_kp: Keypath,
                    fold_kp: Keypath | None) -> FusedVal:
        val = self.materialize(val)
        n = val.length
        run_length = self._run_length(val, fold_kp)
        if run_length is None:
            sel, sel_mask = val.column(sel_kp).pad()
            values, present = semantics.fold_select(
                val.attr(fold_kp), sel, sel_mask, val.mask(fold_kp)
            )
            return from_padded(n, out, values, present)
        chosen, slots = val.column(sel_kp).rows()  # ε slots never qualify
        hits = np.flatnonzero(chosen)
        if slots is not None:
            hits = slots.index[hits]
        if len(hits) == n:  # every row kept: the identity, symbolically
            return FusedVal(n, {out: Run(IDENTITY, n)})
        at = Slots(kernels.select_slots(hits, run_length, n), n)
        return FusedVal(n, {out: Compact(at, hits, zero_fill(np.int64))})

    def fold_aggregate(self, fn: str, out: Keypath, val: FusedVal, agg_kp: Keypath,
                       fold_kp: Keypath | None) -> FusedVal:
        if val.scatter is not None:
            groups = self._direct_groups(val, fold_kp)
            if groups is not None:
                values, mask = val.column(agg_kp).once()
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
            val = self.materialize(val)
        n = val.length
        column = val.column(agg_kp)
        run_length = self._run_length(val, fold_kp)
        if run_length is None:
            values, slots = column.rows()
            control, where = val.column(fold_kp).rows()
            if slots is None or where is None or not where.same_as(slots):
                values, mask = column.pad()
                folded, present = semantics.fold_aggregate(
                    fn, val.attr(fold_kp), values, mask, val.mask(fold_kp)
                )
                return from_padded(n, out, folded, present)
            starts, at = kernels.control_segments(control, slots.index)
            per_run = self.kernels.fold_aggregate_segments(fn, values, starts)
        else:
            # a storage column folds directly over its segments (RLE runs
            # fold without decompressing; see ColumnData.fold /
            # fold_grained for the eligibility rules)
            per_run = column.fold(fn, run_length) if n else None
            slots = None
            if per_run is None:
                values, slots = column.rows()
                if slots is not None:
                    starts, at = kernels.run_segments(slots.index, run_length)
                    per_run = self.kernels.fold_aggregate_segments(fn, values, starts)
                elif n:
                    per_run = self.kernels.fold_aggregate_uniform(fn, values, run_length, n)
                else:
                    per_run = kernels.fold_aggregate_segments(fn, values, np.zeros(0, np.int64))
            if slots is None:  # every run has a result, on its first slot
                at = np.arange(len(per_run), dtype=np.int64) * run_length
        return FusedVal(n, {out: on_slots(Slots(at, n), per_run, zero_fill(per_run.dtype))})

    @staticmethod
    def _direct_groups(val: FusedVal, fold_kp: Keypath | None) -> Groups | None:
        """The group structure a fold over a virtual scatter may address
        directly: the scatter's positions are a Partition of the fold's
        own control column, one key value per bucket.  The column is
        recognised by identity and else by value (a parallel run merges
        the key and the data it is part of separately).  None for every
        other shape — that fold lands the scatter."""
        groups = val.scatter.groups
        if groups is None or not groups.direct or fold_kp is None:
            return None
        column = val.column(fold_kp)
        if column is groups.column:
            return groups
        if column.present() < val.length:
            return None
        control = column.pad()[0]  # (landing would decode it too)
        k = len(groups.key)
        if len(control) >= k and np.array_equal(control[:k], groups.key):
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
        return FusedVal(scat.size, {
            out: on_slots(slots, per_group[occupied], zero_fill(per_group.dtype))
        })

    def fold_scan(self, out: Keypath, val: FusedVal, s_kp: Keypath,
                  fold_kp: Keypath | None, inclusive: bool) -> FusedVal:
        val = self.materialize(val)
        n = val.length
        run_length = self._run_length(val, fold_kp)
        values, mask = val.column(s_kp).pad()  # the result is dense: pad
        if run_length is None:
            result, _ = semantics.fold_scan(
                val.attr(fold_kp), values, mask, inclusive, val.mask(fold_kp)
            )
        else:
            result, _ = kernels.fold_scan_uniform(values, mask, run_length, n, inclusive)
        return FusedVal(n, {out: Dense(result)})

    def fold_count(self, out: Keypath, val: FusedVal, counted_kp: Keypath | None,
                   fold_kp: Keypath | None) -> FusedVal:
        kp = counted_kp or (val.paths()[0] if len(val.columns) == 1 else None)
        if val.scatter is not None:
            # (no counted column: the landed runs count their ε slots too)
            groups = None if kp is None else self._direct_groups(val, fold_kp)
            if groups is not None:
                # count == sum of ones: the bucket sizes, already counted
                mask = val.mask(kp)
                if mask is None:
                    return self._grouped_result(out, val.scatter, groups.counts, None)
                counts = np.bincount(groups.part[mask[: len(groups.part)]],
                                     minlength=len(groups.counts))
                return self._grouped_result(out, val.scatter, counts, counts)
            val = self.materialize(val)
        n = val.length
        run_length = self._run_length(val, fold_kp)
        # where the counted column is present (None: everywhere)
        slots = None
        if kp is not None and val.present_count(kp) < n:
            slots = val.column(kp).rows()[1]
        if run_length is None:
            control, where = (None, None) if slots is None else val.column(fold_kp).rows()
            if where is None or not where.same_as(slots):
                counts, present = semantics.fold_count(
                    val.attr(fold_kp), n, None if kp is None else val.mask(kp),
                    val.mask(fold_kp),
                )
                return from_padded(n, out, counts, present)
            starts, at = kernels.control_segments(control, slots.index)
        elif slots is not None:
            starts, at = kernels.run_segments(slots.index, run_length)
        else:  # dense: every run counts its own length
            starts = at = np.arange(0, n, run_length or max(n, 1), dtype=np.int64)
        counts = kernels.run_sizes(starts, n if slots is None else len(slots.index))
        return FusedVal(n, {out: on_slots(Slots(at, n), counts, zero_fill(np.int64))})
