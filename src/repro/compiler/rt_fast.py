"""Fused wall-clock runtime for the compiling backend.

:class:`repro.compiler.rt.Runtime` computes ground-truth results *and*
emits the operation trace the cost model prices — every operator wraps
its result in a :class:`StructuredVector` so the accounting can inspect
it.  That is the right tool for simulation, but it pays real wall-clock
for bookkeeping the default execution path never uses.

This module is the fast path: :mod:`repro.compiler.runner` dispatches
each operator onto a method here, over :class:`FusedVal` values — bare
``{keypath: ndarray}`` dictionaries with shared (never copied) presence
masks and virtual :class:`RunInfo` attributes that stay symbolic until
an operator actually needs a buffer.
No trace events, no per-operator ``StructuredVector`` construction, no
footprint sampling; folds whose control vectors carry static uniform-run
metadata dispatch to the direct kernels in
:mod:`repro.compiler.kernels` instead of the generic run machinery.

Bit-identity contract: every output vector equals the interpreter's (and
the simulated runtime's) output exactly — values, dtypes and ε masks —
enforced by ``tests/compiler/test_fused.py``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.compiler import kernels
from repro.compiler.rt import VirtualScatter, _broadcast, _fit_mask, derive_runinfo
from repro.core.controlvector import RunInfo, constant_run
from repro.core.keypath import Keypath
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.interpreter import semantics
from repro.interpreter.engine import apply_binary, apply_unary


class FusedVal:
    """A fused runtime value: raw column arrays plus shared masks.

    ``cols`` maps leaf keypaths to plain NumPy arrays; ``masks`` holds the
    presence mask per keypath (``None`` = dense); ``virtual`` holds
    attributes that exist only as :class:`RunInfo` metadata and are
    materialized on demand.  Masks are *shared, never mutated*: every
    consumer that combines masks allocates a fresh array.  ``hints``
    carries optional producer metadata (currently the stable
    destination order a ``Partition`` computed, keyed by attribute) that
    downstream operators may exploit but never require.

    ``lazy`` holds storage-backed attributes that exist only as
    :class:`repro.storage.segment.ColumnData` handles — always dense —
    and decode on first touch.  Structural operators (project/zip/
    upsert/slice) pass handles through untouched; folds and gathers
    exploit them directly (fold over RLE runs, random access without
    decompressing); everything else extracts, which materializes.
    """

    __slots__ = ("length", "cols", "masks", "virtual", "scatter", "hints", "lazy")

    def __init__(self, length, cols, masks, virtual=None, scatter=None, hints=None,
                 lazy=None):
        self.length = length
        self.cols = cols
        self.masks = masks
        self.virtual = virtual if virtual is not None else {}
        self.scatter = scatter
        self.hints = hints
        self.lazy = lazy if lazy is not None else {}

    def paths(self):
        return tuple(self.cols) + tuple(self.virtual) + tuple(self.lazy)

    def attr(self, path: Keypath) -> np.ndarray:
        info = self.virtual.get(path)
        if info is not None:
            return info.materialize(self.length)
        try:
            return self.cols[path]
        except KeyError:
            pass
        handle = self.lazy.get(path)
        if handle is not None:
            array = np.asarray(handle.materialize())
            self.cols[path] = array
            del self.lazy[path]
            return array
        raise ExecutionError(
            f"no attribute {path} in fused value with {list(self.paths())}"
        )

    def mask(self, path: Keypath) -> np.ndarray | None:
        if path in self.virtual or path in self.lazy:
            return None
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


def extract(val: FusedVal, path: Keypath) -> tuple[np.ndarray, np.ndarray | None]:
    """(array, mask) of one attribute; virtuals/lazies materialize on demand."""
    info = val.virtual.get(path)
    if info is not None:
        return info.materialize(val.length), None
    if path in val.cols:
        return val.cols[path], val.masks.get(path)
    if path in val.lazy:
        return val.attr(path), None
    raise ExecutionError(
        f"no attribute {path} in fused value with {list(val.paths())}"
    )


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
    """A length-1 constant operand (broadcasts like the simulated path)."""
    return np.array([value], dtype=np.dtype(dtype))


class FusedRuntime:
    """Execution context for untraced runs: semantics only, zero tracing.

    Method names and signatures mirror :class:`repro.compiler.rt.Runtime`.
    ``kernels`` provides the four uniform-run kernels the native tier
    replaces (``fold_select_uniform``, ``fold_aggregate_uniform``,
    ``fold_count_uniform``, ``gather_compacted``): the NumPy ones of
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
        if val.scatter is not None:
            val = self._apply_scatter(val)
        columns = dict(val.cols)
        present = dict(val.masks)
        for path, info in val.virtual.items():
            columns[path] = info.materialize(val.length)
            present[path] = None
        for path, handle in val.lazy.items():
            columns[path] = np.asarray(handle.materialize())
            present[path] = None
        return StructuredVector(val.length, columns, present)

    def _dense_parts(self, val: FusedVal):
        """(cols, masks) with virtuals/lazies materialized, scatter applied."""
        if val.scatter is not None:
            val = self._apply_scatter(val)
        cols = dict(val.cols)
        masks = dict(val.masks)
        for path, info in val.virtual.items():
            cols[path] = info.materialize(val.length)
            masks[path] = None
        for path, handle in val.lazy.items():
            cols[path] = np.asarray(handle.materialize())
            masks[path] = None
        return cols, masks

    def _apply_scatter(self, val: FusedVal) -> FusedVal:
        scat = val.scatter
        cols, masks = self._dense_parts(
            FusedVal(val.length, val.cols, val.masks, dict(val.virtual),
                     lazy=dict(val.lazy))
        )
        out_cols, out_masks = semantics.scatter(
            scat.positions, scat.pos_present, scat.size, cols, masks
        )
        return FusedVal(scat.size, out_cols, _normalized(out_masks))

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
        a, mask = extract(source, kp)
        result, mask = fused_unary(fn, a, mask, dtype)
        return FusedVal(len(result), {out: result}, {out: mask})

    # -- structural ---------------------------------------------------------

    def zip(self, left: FusedVal, kp1: Keypath | None, out1: Keypath | None,
            right: FusedVal, kp2: Keypath | None, out2: Keypath | None) -> FusedVal:
        lv = self._side(left, kp1, out1)
        rv = self._side(right, kp2, out2)
        n = min(lv.length, rv.length)
        cols: dict[Keypath, np.ndarray] = {}
        masks: dict[Keypath, np.ndarray | None] = {}
        virtual: dict[Keypath, RunInfo] = {}
        lazy: dict[Keypath, object] = {}
        for side in (lv, rv):
            for path, array in side.cols.items():
                if path in cols:
                    raise ExecutionError(f"Zip would duplicate attribute {path}")
                cols[path] = array if len(array) == n else array[:n]
                m = side.masks.get(path)
                masks[path] = m if (m is None or len(m) == n) else m[:n]
            for path, handle in side.lazy.items():
                if path in cols or path in lazy:
                    raise ExecutionError(f"Zip would duplicate attribute {path}")
                lazy[path] = handle if len(handle) == n else handle.slice(0, n)
            virtual.update(side.virtual)
        return FusedVal(n, cols, masks, virtual, lazy=lazy)

    def _side(self, val: FusedVal, kp: Keypath | None, out: Keypath | None) -> FusedVal:
        if kp is None:
            return val
        virtual: dict[Keypath, RunInfo] = {}
        for path, info in val.virtual.items():
            if path == kp:
                virtual[out] = info
            elif path.startswith(kp):
                virtual[path.rebase(kp, out)] = info
        cols: dict[Keypath, np.ndarray] = {}
        masks: dict[Keypath, np.ndarray | None] = {}
        lazy: dict[Keypath, object] = {}
        for path, array in val.cols.items():
            if path == kp:
                new = out
            elif path.startswith(kp):
                new = path.rebase(kp, out)
            else:
                continue
            cols[new] = array
            masks[new] = val.masks.get(path)
        for path, handle in val.lazy.items():
            if path == kp:
                lazy[out] = handle
            elif path.startswith(kp):
                lazy[path.rebase(kp, out)] = handle
        if not cols and not virtual and not lazy:
            raise ExecutionError(f"Zip/Project: keypath {kp} not found")
        return FusedVal(val.length, cols, masks, virtual, lazy=lazy)

    def project(self, out: Keypath, source: FusedVal, kp: Keypath) -> FusedVal:
        return self._side(source, kp, out)

    def upsert(self, target: FusedVal, out: Keypath, value: FusedVal, kp: Keypath) -> FusedVal:
        info = value.runinfo(kp)
        if info is not None and value.length >= target.length:
            virtual = dict(target.virtual)
            virtual[out] = info
            cols = {p: a for p, a in target.cols.items() if p != out}
            masks = {p: m for p, m in target.masks.items() if p != out}
            lazy = {p: h for p, h in target.lazy.items() if p != out}
            return FusedVal(target.length, cols, masks, virtual, lazy=lazy)
        handle = value.lazy.get(kp) if value.scatter is None else None
        if (
            handle is not None
            and target.scatter is None
            and value.length >= target.length
            and (value.length == target.length or target.length > 1)
        ):
            # renaming a storage column: alias the segment handle under
            # the new path instead of decoding it
            n = target.length
            cols = {p: a for p, a in target.cols.items() if p != out}
            masks = {p: m for p, m in target.masks.items() if p != out}
            for path, info in target.virtual.items():
                cols[path] = info.materialize(n)
                masks[path] = None
            lazy = {p: h for p, h in target.lazy.items() if p != out}
            lazy[out] = handle if len(handle) == n else handle.slice(0, n)
            return FusedVal(n, cols, masks, lazy=lazy)
        array, mask = extract(value, kp)
        n = target.length
        if len(array) == 1 and n != 1:
            array = np.broadcast_to(array, (n,)).copy()
            mask = None
        elif len(array) < n:
            raise ExecutionError(f"Upsert: value length {len(array)} < target {n}")
        if target.scatter is None:
            # no pending scatter: untouched lazy columns stay lazy
            cols = dict(target.cols)
            masks = dict(target.masks)
            for path, info in target.virtual.items():
                cols[path] = info.materialize(n)
                masks[path] = None
            lazy = {p: h for p, h in target.lazy.items() if p != out}
        else:
            cols, masks = self._dense_parts(target)
            lazy = {}
        cols[out] = array[:n]
        masks[out] = None if mask is None else mask[:n]
        return FusedVal(n, cols, masks, lazy=lazy)

    def gather(self, source: FusedVal, positions: FusedVal, pos_kp: Keypath) -> FusedVal:
        if source.scatter is not None:
            # land the scatter first so bounds checks see the real length
            # (mirrors Runtime.gather's force())
            source = self._apply_scatter(source)
        pos, pos_mask = extract(positions, pos_kp)
        cols = dict(source.cols)
        masks = dict(source.masks)
        for path, info in source.virtual.items():
            cols[path] = info.materialize(source.length)
            masks[path] = None
        # compaction pays when positions are mostly ε (its premise); at
        # high hit density the direct gather's streaming access wins —
        # both kernels are bit-identical, this is purely a cost choice
        compacted = pos_mask is not None and np.count_nonzero(pos_mask) * 2 < len(pos)
        if compacted:
            out_cols, out_masks = self.kernels.gather_compacted(
                pos, pos_mask, source.length, cols, masks
            )
        else:
            out_cols, out_masks = semantics.gather(
                pos, pos_mask, source.length, cols, masks
            )
        if source.lazy:
            lazy_cols, lazy_masks = _gather_lazy(
                source.lazy, pos, pos_mask, source.length, compacted
            )
            out_cols.update(lazy_cols)
            out_masks.update(lazy_masks)
        return FusedVal(len(pos), out_cols, _normalized(out_masks))

    def scatter(self, data: FusedVal, positions: FusedVal, pos_kp: Keypath,
                size: int, keep_virtual: bool) -> FusedVal:
        pos, pos_mask = extract(positions, pos_kp)
        n = min(data.length, len(pos))
        order_hint = None
        if positions.hints is not None and n == len(pos):
            order_hint = positions.hints.get(("fold_order", pos_kp))
        scat = VirtualScatter(
            positions=pos[:n],
            pos_present=None if pos_mask is None else pos_mask[:n],
            size=size,
            order_hint=order_hint,
        )
        val = FusedVal(data.length, data.cols, data.masks, dict(data.virtual), scat,
                       lazy=dict(data.lazy))
        if keep_virtual and self.virtual_scatter_enabled:
            return val
        return self._apply_scatter(val)

    def materialize(self, source: FusedVal, chunk: int | None) -> FusedVal:
        # X100-style chunking only affects the cost model; semantically
        # Materialize is identity (pending scatters must land, though).
        if source.scatter is not None:
            return self._apply_scatter(source)
        return source

    def break_(self, source: FusedVal) -> FusedVal:
        if source.scatter is not None:
            return self._apply_scatter(source)
        return source

    def partition(self, out: Keypath, source: FusedVal, kp: Keypath,
                  pivots: FusedVal, pivot_kp: Keypath) -> FusedVal:
        values, mask = extract(source, kp)
        piv, _ = extract(pivots, pivot_kp)
        positions, out_present, order = semantics.partition_positions(
            values, mask, piv, with_order=True
        )
        present = None if out_present.all() else out_present
        # hand the already-computed stable destination order to a
        # downstream Scatter so its fold_order skips the argsort
        return FusedVal(
            len(values), {out: positions}, {out: present},
            hints={("fold_order", out): order},
        )

    # -- folds --------------------------------------------------------------

    def _control_arrays(self, val: FusedVal, fold_kp: Keypath | None, n: int):
        """(control, control_present, static_run_length) — mirrors
        :meth:`Runtime._control_arrays` without the read accounting."""
        if fold_kp is None:
            return None, None, 0
        info = val.runinfo(fold_kp)
        if info is not None:
            rl = info.run_length(n)
            if rl >= n:
                return None, None, 0
            if (n % rl) == 0 or rl == 1:
                return None, None, rl
            return info.materialize(n), None, None
        return val.attr(fold_kp), val.mask(fold_kp), None

    def fold_select(self, out: Keypath, val: FusedVal, sel_kp: Keypath,
                    fold_kp: Keypath | None) -> FusedVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        sel, sel_mask = extract(val, sel_kp)
        if control is None:
            values, present = self.kernels.fold_select_uniform(
                sel, sel_mask, static_rl or 0, n
            )
        else:
            values, present = semantics.fold_select(control, sel, sel_mask, cmask)
        return FusedVal(n, {out: values}, {out: present})

    def fold_aggregate(self, fn: str, out: Keypath, val: FusedVal, agg_kp: Keypath,
                       fold_kp: Keypath | None) -> FusedVal:
        if val.scatter is not None:
            return self._fold_scattered(fn, out, val, agg_kp, fold_kp)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        # single-run fold over a storage column: fold directly over the
        # segments (RLE runs fold without decompressing; see
        # ColumnData.fold for the bit-identity eligibility rules)
        if control is None and not static_rl and n > 0:
            handle = val.lazy.get(agg_kp)
            if handle is not None:
                folded = handle.fold(fn)
                if folded is not None:
                    result = np.zeros(n, dtype=folded.dtype)
                    result[0] = folded
                    present = np.zeros(n, dtype=bool)
                    present[0] = True
                    return FusedVal(n, {out: result}, {out: present})
        # grained (uniform-run) integer sum over a storage column: the
        # per-run partials come from RLE prefix sums without decoding.
        # A virtual control materialized only because its final run is
        # ragged still proves the run structure — reuse its run length.
        rl = static_rl if control is None else None
        if rl is None and control is not None and fold_kp is not None:
            info = val.runinfo(fold_kp)
            if info is not None:
                rl = info.run_length(n)
        if rl and n > 0:
            handle = val.lazy.get(agg_kp)
            if handle is not None:
                per_run = handle.fold_grained(fn, rl)
                if per_run is not None:
                    starts = np.arange(len(per_run), dtype=np.int64) * rl
                    result = np.zeros(n, dtype=per_run.dtype)
                    result[starts] = per_run
                    present = np.zeros(n, dtype=bool)
                    present[starts] = True
                    return FusedVal(n, {out: result}, {out: present})
        values, mask = extract(val, agg_kp)
        if control is None:
            result, present = self.kernels.fold_aggregate_uniform(
                fn, values, mask, static_rl or 0, n
            )
        else:
            result, present = semantics.fold_aggregate(fn, control, values, mask, cmask)
        return FusedVal(n, {out: result}, {out: present})

    def _scattered_control(self, val: FusedVal, fold_kp: Keypath | None):
        """The fold-control array of a scattered value.

        A virtual (RunInfo) control materializes once per value, cached
        in ``hints`` — every aggregate over the same scatter must hand
        the *same* array to :meth:`VirtualScatter.group_runs`, or the
        identity-keyed run-structure memo never engages.
        """
        if fold_kp is None:
            return None
        info = val.runinfo(fold_kp)
        if info is None:
            return val.attr(fold_kp)
        if val.hints is None:
            val.hints = {}
        control = val.hints.get(("control", fold_kp))
        if control is None:
            control = info.materialize(val.length)
            val.hints[("control", fold_kp)] = control
        return control

    def _fold_scattered(self, fn: str, out: Keypath, val: FusedVal,
                        agg_kp: Keypath, fold_kp: Keypath | None) -> FusedVal:
        scat = val.scatter
        control = self._scattered_control(val, fold_kp)
        values, mask = extract(val, agg_kp)
        result, present, _ = kernels.scattered_fold_aggregate(
            fn, scat.positions, scat.size, control, values, mask,
            order=scat.fold_order(), runs=scat.group_runs(control),
        )
        return FusedVal(scat.size, {out: result}, {out: present})

    def fold_scan(self, out: Keypath, val: FusedVal, s_kp: Keypath,
                  fold_kp: Keypath | None, inclusive: bool) -> FusedVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        values, mask = extract(val, s_kp)
        if control is None:
            result, _ = kernels.fold_scan_uniform(
                values, mask, static_rl or 0, n, inclusive
            )
        else:
            result, _ = semantics.fold_scan(control, values, mask, inclusive, cmask)
        return FusedVal(n, {out: result}, {out: None})

    def fold_count(self, out: Keypath, val: FusedVal, counted_kp: Keypath | None,
                   fold_kp: Keypath | None) -> FusedVal:
        kp = counted_kp or _single_path(val)
        if val.scatter is not None:
            # count == sum of ones over the destination runs: with a dense
            # counted attribute the per-run value is just the run length —
            # no ones vector, no gather, no reduction
            scat = val.scatter
            control = self._scattered_control(val, fold_kp)
            counted_mask = None if kp is None else val.mask(kp)
            order = scat.fold_order()
            runs = scat.group_runs(control)
            ordered_mask = (
                None if counted_mask is None
                else counted_mask[: len(scat.positions)][order]
            )
            per_run, nonempty = kernels.grouped_fold_count(runs, len(order), ordered_mask)
            result = np.zeros(scat.size, dtype=np.int64)
            present = np.zeros(scat.size, dtype=bool)
            result[runs.dest_slots] = per_run
            present[runs.dest_slots] = nonempty
            return FusedVal(scat.size, {out: result}, {out: present})
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        counted_mask = None if kp is None else val.mask(kp)
        if control is None:
            result, present = self.kernels.fold_count_uniform(
                counted_mask, static_rl or 0, n
            )
        else:
            result, present = semantics.fold_count(control, n, counted_mask, cmask)
        return FusedVal(n, {out: result}, {out: present})


# ------------------------------------------------------------------ helpers


def _single_path(val: FusedVal):
    paths = val.paths()
    return paths[0] if len(paths) == 1 else None


def _gather_lazy(lazy, pos, pos_mask, source_len, compacted):
    """Gather lazy columns by random access through their segment handles.

    Mirrors :func:`repro.interpreter.semantics.gather` (dense branch) and
    :func:`repro.compiler.kernels.gather_compacted` exactly for a dense
    (mask-free) source column — same ε-zero-fill, same output masks —
    but resolves positions via ``handle.take``: binary search into RLE
    runs / fancy-indexed FoR deltas, never a full decode.
    """
    out_cols: dict = {}
    out_masks: dict = {}
    n = len(pos)
    if compacted:
        idx = np.flatnonzero(pos_mask)
        taken_pos = pos[idx]
        in_bounds = (taken_pos >= 0) & (taken_pos < source_len)
        if not in_bounds.all():
            idx = idx[in_bounds]
            taken_pos = taken_pos[in_bounds]
        valid = np.zeros(n, dtype=bool)
        valid[idx] = True
        for path, handle in lazy.items():
            taken = np.zeros(n, dtype=handle.dtype)
            taken[idx] = handle.take(taken_pos)
            out_cols[path] = taken
            out_masks[path] = valid
        return out_cols, out_masks
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
    """Drop all-True masks (what the StructuredVector constructor does on
    the simulated path) so downstream folds take the dense fast lanes."""
    return {
        p: (None if (m is not None and m.all()) else m) for p, m in masks.items()
    }
