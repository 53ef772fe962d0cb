"""Kernel runtime for the compiling backend.

Generated fragment code (see :mod:`repro.compiler.codegen`) is a sequence
of calls into this runtime.  Each helper

1. computes the operator's result with the ground-truth semantics of
   :mod:`repro.interpreter.semantics` (so the compiled backend agrees
   bit-for-bit with the interpreter), and
2. emits :class:`~repro.hardware.trace.TraceEvent` records describing what
   the *generated machine code* would have done on the target device —
   fused operators charge compute only, fragment seams charge
   materialization traffic, gathers charge random accesses with measured
   footprints, selections charge branches with measured selectivities.

Values are :class:`RtVal` wrappers around Structured Vectors that carry
the backend's compile-time knowledge: virtual (never-materialized) control
attributes, virtual scatter annotations (paper section 3.1.3), and row
("interleaved") layout produced by materializing multi-attribute vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from repro.core.controlvector import RunInfo, constant_run
from repro.core.keypath import Keypath
from repro.core.vector import StructuredVector
from repro.errors import ControlVectorError, ExecutionError
from repro.hardware.device import DeviceProfile
from repro.hardware.trace import TraceEvent, TraceRecorder
from repro.interpreter import semantics
from repro.interpreter.engine import apply_binary, apply_unary

_SAMPLE = 65536  # positions sampled when measuring gather footprints
_LINE = 64


@dataclass
class VirtualScatter:
    """A scatter kept as an annotation: data + destination positions.

    The node runner's scatters may also carry the group structure of the
    ``Partition`` their positions come from (``groups``, a
    :class:`repro.compiler.rt_fast.Groups`): folds over the scatter then
    address their group's accumulator directly and nothing ranks a row —
    ``positions`` stays None until the scatter has to land.
    """

    positions: np.ndarray | None
    pos_present: np.ndarray | None
    size: int
    groups: object | None = field(default=None, repr=False, compare=False)
    #: what every fold over one scatter shares, built by the first of
    #: them: the slots their results land on (direct folds) and the landed
    #: value (all others; the traced Runtime keeps its landed control there)
    slots: object | None = field(default=None, repr=False, compare=False)
    landed: object | None = field(default=None, repr=False, compare=False)

    def destinations(self) -> np.ndarray:
        """The positions, ranked now if the Partition deferred them."""
        return self.groups.positions() if self.positions is None else self.positions


@dataclass
class RtVal:
    """A runtime value: a Structured Vector plus backend annotations."""

    # (materialization is tracked per *attribute*: zipping a loaded column
    # with a freshly computed one must charge reads only for the former)

    vector: StructuredVector | None
    length: int
    #: virtual attributes present only as run metadata
    virtual: dict[Keypath, RunInfo] = field(default_factory=dict)
    #: leaf attributes that live in memory (reads at seams are charged);
    #: attributes computed inside the current fragment are absent.
    mat_attrs: frozenset = frozenset()
    #: True when materialized row-wise (one gather fetches all attributes)
    interleaved: bool = False
    #: pending virtual scatter (positions annotation)
    scatter: VirtualScatter | None = None
    #: nonzero when the value lives in a cache-resident chunked buffer
    #: (X100-style Materialize); reads stream at cache bandwidth
    resident_footprint: int = 0

    # -- attribute access ---------------------------------------------------

    def paths(self) -> tuple[Keypath, ...]:
        real = self.vector.paths if self.vector is not None else ()
        return tuple(real) + tuple(self.virtual)

    def has(self, path: Keypath) -> bool:
        if path in self.virtual:
            return True
        if self.vector is None:
            return False
        try:
            self.vector.resolve(path)
            return True
        except Exception:
            return False

    def attr(self, path: Keypath) -> np.ndarray:
        if path in self.virtual:
            return self.virtual[path].materialize(self.length)
        if self.vector is None:
            raise ExecutionError(f"no attribute {path} on virtual value")
        return self.vector.attr(path)

    def present(self, path: Keypath) -> np.ndarray | None:
        """Presence mask or ``None`` when dense."""
        if path in self.virtual:
            return None
        if self.vector is None or self.vector.is_dense(path):
            return None
        return self.vector.present(path)

    def runinfo(self, path: Keypath) -> RunInfo | None:
        return self.virtual.get(path)

    def scalar(self, path: Keypath):
        """The value of a length-1 dense attribute, else None."""
        if self.length != 1:
            return None
        if path in self.virtual:
            return self.virtual[path].value(0)
        if self.vector is not None and self.present(path) is None:
            return self.vector.attr(path)[0]
        return None


class Runtime:
    """Execution context handed to generated fragment functions."""

    def __init__(
        self,
        storage,
        device: DeviceProfile,
        recorder: TraceRecorder | None = None,
        selection: str = "branching",
        slot_suppression: bool = True,
        virtual_scatter: bool = True,
        scale: float = 1.0,
        workers: int | None = None,
    ):
        self.storage = storage
        self.device = device
        self.recorder = recorder or TraceRecorder()
        self.selection = selection
        self.slot_suppression = slot_suppression
        self.virtual_scatter_enabled = virtual_scatter
        #: concurrently executing cores (ExecutionOptions.workers); charges
        #: per-core footprints — every active core owns its own chunk
        #: buffer, so X100-style residency scales with the core count.
        self.workers = int(workers) if workers else device.threads
        #: data-size scale: kernels execute over the (small) arrays in
        #: storage but the trace models a dataset `scale` times larger.
        #: Volumes and *parallel* extents scale; sequential work (extent 1)
        #: stays sequential — a global fold does not parallelize with n.
        self.scale = float(scale)
        self.outputs: dict[str, StructuredVector] = {}
        self._fragment = 0
        self._intent = 1
        self._segmented = False
        self._charged: set[tuple[int, Keypath]] = set()

    # -- kernel lifecycle ------------------------------------------------------

    def begin_kernel(self, fragment: int, intent: int, segmented: bool) -> None:
        """Start a fragment: resets per-kernel read-charging."""
        self._fragment = fragment
        self._intent = max(1, intent) if intent else 0
        self._segmented = segmented
        self._charged = set()
        self.recorder.begin_kernel(fragment, extent=0, intent=self._intent)

    def _extent(self, n: int, intent: int | None = None) -> int:
        intent = self._intent if intent is None else intent
        if intent == 0:  # a single run spanning everything: sequential
            return 1
        return max(1, n // max(1, intent))

    def _extent_dp(self, n: int) -> int:
        """Extent of a *data-parallel* step: every element is independent,
        even inside an intent-L fragment (only folds lose parallelism —
        paper section 3.1.1)."""
        return max(1, n)

    def _emit(self, **kwargs) -> None:
        event = TraceEvent(**kwargs)
        if self.scale != 1.0:
            scaled = event.scaled(self.scale)
            if event.extent > 1:
                scaled.extent = max(1, int(event.extent * self.scale))
            event = scaled
        self.recorder.emit(event)

    # -- seam accounting ----------------------------------------------------------

    def _charge_read(self, val: RtVal, path: Keypath, stream_footprint: int = 0) -> None:
        """Charge a streaming read of a materialized attribute, once per kernel."""
        if val.vector is None or not val.mat_attrs:
            return
        if stream_footprint == 0 and val.resident_footprint:
            stream_footprint = val.resident_footprint
        try:
            leaves = val.vector.resolve(path)
        except Exception:
            return
        for leaf in leaves:
            if leaf not in val.mat_attrs:
                continue  # computed in-fragment: lives in registers
            key = (id(val.vector), leaf)
            if key in self._charged:
                continue
            self._charged.add(key)
            nbytes = val.vector.attr(leaf).nbytes
            if self.slot_suppression and not val.vector.is_dense(leaf):
                # suppressed buffers store only the present slots (3.1.2)
                fraction = float(val.vector.present(leaf).mean())
                nbytes = int(nbytes * fraction)
            self._emit(
                label=f"read{leaf}",
                elements=val.length,
                bytes_read_seq=nbytes,
                extent=self._extent_dp(val.length),
                intent=1,
                stream_footprint=stream_footprint,
            )

    def _materialize_cost(self, vector: StructuredVector, n_useful: int | None = None,
                          stream_footprint: int = 0, label: str = "materialize") -> None:
        """Charge writing a vector to memory (a fragment seam)."""
        if n_useful is None and self.slot_suppression:
            counts = [
                int(vector.present(p).sum()) for p in vector.paths
                if not vector.is_dense(p)
            ]
            if counts and len(counts) == len(vector.paths):
                n_useful = max(counts)
        total = 0
        for path in vector.paths:
            nbytes = vector.attr(path).nbytes
            if n_useful is not None and self.slot_suppression and len(vector):
                nbytes = int(nbytes * min(1.0, n_useful / len(vector)))
            total += nbytes
        self._emit(
            label=label,
            elements=len(vector),
            bytes_written_seq=total,
            extent=self._extent_dp(len(vector)),
            intent=1,
            stream_footprint=stream_footprint,
        )

    # -- maintenance ------------------------------------------------------------------

    def load(self, name: str) -> RtVal:
        try:
            vector = self.storage[name]
        except KeyError:
            raise ExecutionError(f"Load: no vector named {name!r} in storage") from None
        return RtVal(vector=vector, length=len(vector),
                     mat_attrs=frozenset(vector.paths))

    def output(self, name: str, val: RtVal) -> StructuredVector:
        vector = self.force(val)
        self.outputs[name] = vector
        return vector

    # -- virtual value helpers -----------------------------------------------------------

    def force(self, val: RtVal) -> StructuredVector:
        """Materialize an RtVal into a plain Structured Vector."""
        if val.scatter is not None:
            val = self._apply_scatter(val)
        if val.vector is not None and not val.virtual:
            return val.vector
        columns: dict[Keypath, np.ndarray] = {}
        present: dict[Keypath, np.ndarray | None] = {}
        if val.vector is not None:
            for path in val.vector.paths:
                columns[path] = val.vector.attr(path)
                present[path] = None if val.vector.is_dense(path) else val.vector.present(path)
        for path, info in val.virtual.items():
            columns[path] = info.materialize(val.length)
            present[path] = None
        return StructuredVector(val.length, columns, present)

    def _apply_scatter(self, val: RtVal) -> RtVal:
        """Fall back to a real scatter when virtuality cannot be kept."""
        scat = val.scatter
        base = self.force(RtVal(vector=val.vector, length=val.length, virtual=dict(val.virtual)))
        cols = {p: base.attr(p) for p in base.paths}
        masks = {p: (None if base.is_dense(p) else base.present(p)) for p in base.paths}
        out_cols, out_masks = semantics.scatter(
            scat.positions, scat.pos_present, scat.size, cols, masks
        )
        out = StructuredVector(scat.size, out_cols, out_masks)
        # Honest accounting: a materialized scatter is random write traffic
        # (only present rows are actually written).
        n_written = val.length if scat.pos_present is None else int(scat.pos_present.sum())
        self._emit(
            label="scatter.materialize",
            elements=val.length,
            random_writes=n_written * len(base.paths),
            random_write_footprint=scat.size * base.schema.item_nbytes,
            int_ops=val.length,
            extent=self._extent_dp(val.length),
            intent=1,
        )
        return RtVal(vector=out, length=scat.size, mat_attrs=frozenset(out.paths))

    # -- shape ---------------------------------------------------------------------------

    def range_(self, out: Keypath, start: int, step: int, length: int) -> RtVal:
        info = RunInfo(start=start, step=Fraction(step))
        return RtVal(vector=None, length=length, virtual={out: info})

    def constant(self, out: Keypath, value, dtype: str) -> RtVal:
        if isinstance(value, (int, bool)) and np.dtype(dtype).kind in "iub":
            return RtVal(vector=None, length=1, virtual={out: constant_run(int(value))})
        vector = StructuredVector(1, {out: np.array([value], dtype=np.dtype(dtype))})
        return RtVal(vector=vector, length=1)

    def cross(self, kp1: Keypath, left: RtVal, kp2: Keypath, right: RtVal) -> RtVal:
        n = left.length * right.length
        left_pos = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
        right_pos = np.tile(np.arange(right.length, dtype=np.int64), left.length)
        vector = StructuredVector(n, {kp1: left_pos, kp2: right_pos})
        self._emit(
            label="cross",
            elements=n,
            int_ops=2 * n,
            extent=self._extent_dp(n),
            intent=1,
        )
        return RtVal(vector=vector, length=n)

    # -- element-wise -----------------------------------------------------------------------

    def binary(self, fn: str, out: Keypath, left: RtVal, kp1: Keypath,
               right: RtVal, kp2: Keypath) -> RtVal:
        # Symbolic fast path: control-vector arithmetic never materializes.
        info = left.runinfo(kp1)
        rscalar = right.scalar(kp2)
        integral = isinstance(rscalar, (int, np.integer, bool))
        if info is not None and rscalar is not None and integral:
            derived = self._derive(fn, info, int(rscalar))
            if derived is not None:
                return RtVal(vector=None, length=left.length, virtual={out: derived})

        self._charge_read(left, kp1)
        self._charge_read(right, kp2)
        a, b = left.attr(kp1), right.attr(kp2)
        ma, mb = left.present(kp1), right.present(kp2)
        a, b, n = _broadcast(a, b)
        ma = _fit_mask(ma, n)
        mb = _fit_mask(mb, n)
        result = apply_binary(fn, a, b)
        mask = _and_masks(ma, mb)
        n_work = n if mask is None else int(mask.sum())
        is_float = result.dtype.kind == "f" or a.dtype.kind == "f" or b.dtype.kind == "f"
        self._emit(
            label=f"binary.{fn}",
            elements=n_work,
            float_ops=n_work if is_float else 0,
            int_ops=0 if is_float else n_work,
            extent=self._extent_dp(n),
            intent=1,
        )
        vector = StructuredVector(n, {out: result}, {out: mask})
        return RtVal(vector=vector, length=n)

    @staticmethod
    def _derive(fn: str, info: RunInfo, other: int) -> RunInfo | None:
        return derive_runinfo(fn, info, other)

    def unary(self, fn: str, out: Keypath, source: RtVal, kp: Keypath,
              dtype: str | None) -> RtVal:
        self._charge_read(source, kp)
        a = source.attr(kp)
        result, mask = apply_unary(fn, a, source.present(kp), dtype)
        self._emit(
            label=f"unary.{fn}",
            elements=len(a),
            int_ops=len(a),
            extent=self._extent_dp(len(a)),
            intent=1,
        )
        vector = StructuredVector(len(a), {out: result}, {out: mask})
        return RtVal(vector=vector, length=len(a))

    # -- structural -----------------------------------------------------------------------------

    def zip(self, left: RtVal, kp1: Keypath | None, out1: Keypath | None,
            right: RtVal, kp2: Keypath | None, out2: Keypath | None) -> RtVal:
        lv = self._side(left, kp1, out1)
        rv = self._side(right, kp2, out2)
        n = min(lv.length, rv.length)
        virtual = {}
        virtual.update(lv.virtual)
        virtual.update(rv.virtual)
        vec: StructuredVector | None
        if lv.vector is not None and rv.vector is not None:
            vec = lv.vector.head(n).zip(rv.vector.head(n))
        else:
            vec = lv.vector if lv.vector is not None else rv.vector
            vec = vec.head(n) if vec is not None else None
        return RtVal(vector=vec, length=n, virtual=virtual,
                     mat_attrs=lv.mat_attrs | rv.mat_attrs)

    def _side(self, val: RtVal, kp: Keypath | None, out: Keypath | None) -> RtVal:
        if kp is None:
            return val
        virtual: dict[Keypath, RunInfo] = {}
        for path, info in val.virtual.items():
            if path == kp:
                virtual[out] = info
            elif path.startswith(kp):
                virtual[path.rebase(kp, out)] = info
        vec = None
        if val.vector is not None:
            try:
                vec = val.vector.project(kp, out)
            except Exception:
                vec = None
        if vec is None and not virtual:
            raise ExecutionError(f"Zip/Project: keypath {kp} not found")
        mat: set = set()
        for leaf in val.mat_attrs:
            if leaf == kp:
                mat.add(out)
            elif leaf.startswith(kp):
                mat.add(leaf.rebase(kp, out))
        return RtVal(vector=vec, length=val.length, virtual=virtual,
                     mat_attrs=frozenset(mat))

    def project(self, out: Keypath, source: RtVal, kp: Keypath) -> RtVal:
        return self._side(source, kp, out)

    def upsert(self, target: RtVal, out: Keypath, value: RtVal, kp: Keypath) -> RtVal:
        info = value.runinfo(kp)
        if info is not None and value.length >= target.length:
            virtual = dict(target.virtual)
            virtual[out] = info
            vec = target.vector.without_attr(out) if (
                target.vector is not None and out in target.vector.paths
            ) else target.vector
            return RtVal(vector=vec, length=target.length, virtual=virtual,
                         mat_attrs=target.mat_attrs - {out})
        self._charge_read(value, kp)
        array = value.attr(kp)
        mask = value.present(kp)
        n = target.length
        if len(array) == 1 and n != 1:
            array = np.broadcast_to(array, (n,)).copy()
            mask = None
        elif len(array) < n:
            raise ExecutionError(f"Upsert: value length {len(array)} < target {n}")
        base = self.force(RtVal(vector=target.vector, length=n, virtual=dict(target.virtual)))
        vec = base.with_attr(out, array[:n], None if mask is None else mask[:n])
        return RtVal(vector=vec, length=n, mat_attrs=target.mat_attrs - {out})

    def gather(self, source: RtVal, positions: RtVal, pos_kp: Keypath) -> RtVal:
        self._charge_read(positions, pos_kp)
        src = self.force(source)
        pos = positions.attr(pos_kp)
        pos_mask = positions.present(pos_kp)
        cols = {p: src.attr(p) for p in src.paths}
        masks = {p: (None if src.is_dense(p) else src.present(p)) for p in src.paths}
        out_cols, out_masks = semantics.gather(pos, pos_mask, len(src), cols, masks)

        self._charge_gather(src, pos, pos_mask, source.interleaved)
        vec = StructuredVector(len(pos), out_cols, out_masks)
        return RtVal(vector=vec, length=len(pos))

    def _charge_gather(self, src: StructuredVector, pos: np.ndarray,
                       pos_mask: np.ndarray | None, interleaved: bool) -> None:
        """Random-access accounting with *measured* footprint and hot-line
        fraction (this is what prices Figures 14 and 16)."""
        n = len(pos)
        if pos_mask is not None:
            n = int(pos_mask.sum())
        if n == 0:
            return
        # footprint estimation: strided sample spreads over the whole array;
        # stride/sequentiality detection: contiguous prefix (strided sampling
        # would fake large deltas on a streaming pattern)
        stride = max(1, len(pos) // _SAMPLE)
        sample = pos if len(pos) <= _SAMPLE else pos[::stride][:_SAMPLE]
        prefix = pos[:_SAMPLE]
        if pos_mask is not None:
            smask = pos_mask if len(pos) <= _SAMPLE else pos_mask[::stride][:_SAMPLE]
            sample = sample[smask[: len(sample)]]
            prefix = prefix[pos_mask[: len(prefix)]]
        if len(sample) == 0:
            return
        item = src.schema.item_nbytes if interleaved else max(
            (src.attr(p).dtype.itemsize for p in src.paths), default=8
        )
        lines = (sample.astype(np.int64) * item) // _LINE
        uniq, counts = np.unique(lines, return_counts=True)
        hot_fraction = counts.max() / len(sample) if len(uniq) > 1 else 1.0
        if len(uniq) == 1:
            hot_fraction = 1.0
        footprint = int(len(uniq) * _LINE * (n / len(sample)) ** 0.0 + 0.5)
        # scale unique-line estimate up to the full position count
        if n > len(sample) and len(uniq) > 1:
            footprint = min(
                int(src.schema.item_nbytes * len(src)),
                int(len(uniq) * _LINE * (n / len(sample))),
            )
        footprint = max(footprint, _LINE)
        sequential = _is_sequential(prefix)
        streams = 1 if interleaved else len(src.paths)
        cold = int(n * (1.0 - hot_fraction)) if hot_fraction < 1.0 else 0
        if sequential:
            total_bytes = sum(src.attr(p).nbytes for p in src.paths)
            self._emit(
                label="gather.seq",
                elements=n,
                int_ops=n,
                bytes_read_seq=min(total_bytes, n * item * streams),
                extent=self._extent_dp(n),
                intent=1,
            )
        else:
            self._emit(
                label="gather.rand",
                elements=n,
                int_ops=n,
                random_reads=cold * streams,
                random_read_footprint=footprint * (streams if not interleaved else 1),
                extent=self._extent_dp(n),
                intent=1,
            )

    def scatter(self, data: RtVal, positions: RtVal, pos_kp: Keypath,
                size: int, keep_virtual: bool) -> RtVal:
        self._charge_read(positions, pos_kp)
        pos = positions.attr(pos_kp)
        pos_mask = positions.present(pos_kp)
        n = min(data.length, len(pos))
        scat = VirtualScatter(positions=pos[:n], pos_present=(
            None if pos_mask is None else pos_mask[:n]
        ), size=size)
        val = RtVal(
            vector=data.vector,
            length=data.length,
            virtual=dict(data.virtual),
            mat_attrs=data.mat_attrs,
            scatter=scat,
        )
        if keep_virtual and self.virtual_scatter_enabled:
            # Paper 3.1.3: just an annotation; cost is paid on materialization.
            self._emit(label="scatter.virtual", elements=0, extent=1, intent=1)
            return val
        return self._apply_scatter(val)

    def materialize(self, source: RtVal, chunk: int | None) -> RtVal:
        """Explicit materialization; *chunk* = X100-style buffer run length.

        A chunked materialize keeps the buffer cache resident — but every
        concurrently active work unit owns a chunk, so the effective
        footprint is ``chunk * threads``: tiny next to a CPU's L2, larger
        than a GPU's shared L2 (which is why X100-style vectorization
        does not port to GPUs, Figure 15c).  The chunk fill itself is an
        order-preserving cursor loop (warp-serial on GPUs).
        """
        vec = self.force(source)
        footprint = 0
        if chunk:
            item = max(1, vec.schema.item_nbytes)
            footprint = int(chunk) * item * max(1, self.workers)
            # the producing fold's full-size buffer write is re-scoped to
            # the chunk buffer as well: it never reaches DRAM
            if self.recorder._current is not None:
                for event in reversed(self.recorder._current.events):
                    if event.bytes_written_seq > 0 and event.stream_footprint == 0:
                        event.stream_footprint = footprint
                        break
            self._emit(
                label="materialize.chunkfill",
                elements=len(vec),
                int_ops=len(vec) // 4,  # amortized cursor copy
                extent=self._extent(len(vec)),
                intent=self._intent,
                simd=False,
                warp_serial=True,
            )
        self._materialize_cost(vec, stream_footprint=footprint, label="materialize")
        interleaved = len(vec.paths) > 1
        return RtVal(vector=vec, length=len(vec), mat_attrs=frozenset(vec.paths),
                     interleaved=interleaved, resident_footprint=footprint)

    def break_(self, source: RtVal) -> RtVal:
        vec = self.force(source)
        self._materialize_cost(vec, label="break")
        return RtVal(vector=vec, length=len(vec), mat_attrs=frozenset(vec.paths),
                     interleaved=source.interleaved)

    def partition(self, out: Keypath, source: RtVal, kp: Keypath,
                  pivots: RtVal, pivot_kp: Keypath) -> RtVal:
        self._charge_read(source, kp)
        values = source.attr(kp)
        mask = source.present(kp)
        piv = pivots.attr(pivot_kp)
        positions, out_present = semantics.partition_positions(values, mask, piv)
        n = len(values)
        # counting pass + position pass over the data, plus a prefix sum
        # over the (identity-hash sized) counts table
        self._emit(
            label="partition",
            elements=n,
            int_ops=3 * n + len(piv),
            random_writes=n,
            random_write_footprint=max(_LINE, len(piv) * 8),
            extent=self._extent_dp(n),
            intent=1,
        )
        vec = StructuredVector(
            n, {out: positions}, {out: None if out_present.all() else out_present}
        )
        return RtVal(vector=vec, length=n)

    # -- folds ------------------------------------------------------------------

    def _control_arrays(self, val: RtVal, fold_kp: Keypath | None, n: int):
        """(control, control_present, static_run_length).

        Virtual control vectors are never materialized when their run
        length is statically uniform (the compiler's metadata fast path).
        """
        if fold_kp is None:
            return None, None, 0  # single run
        info = val.runinfo(fold_kp)
        if info is not None:
            rl = info.run_length(n)
            if rl >= n:
                return None, None, 0
            if (n % rl) == 0 or rl == 1:
                return None, None, rl
            return info.materialize(n), None, None
        self._charge_read(val, fold_kp)
        return val.attr(fold_kp), val.present(fold_kp), None

    def fold_select(self, out: Keypath, val: RtVal, sel_kp: Keypath,
                    fold_kp: Keypath | None) -> RtVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        self._charge_read(val, sel_kp)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        sel = val.attr(sel_kp)
        sel_mask = val.present(sel_kp)
        if control is None and static_rl is not None and static_rl != 0:
            control = _uniform_control(n, static_rl)
        values, present = semantics.fold_select(control, sel, sel_mask, cmask)

        hits = int(present.sum())
        selectivity = hits / n if n else 0.0
        intent = static_rl if static_rl else (self._intent if control is None else self._intent)
        extent = self._extent(n, None if static_rl in (None,) else (static_rl or 0))
        if self.selection == "branching":
            # A fused branching select never materializes a position
            # buffer: the if-body consumes qualifying elements in
            # registers.  The cost is the data-dependent branch itself.
            self._emit(
                label="foldselect.branching",
                elements=n,
                int_ops=2 * n,
                branches=n,
                taken_fraction=selectivity,
                extent=extent,
                intent=intent or 1,
                simd=False,
            )
        else:
            self._emit(
                label="foldselect.branch-free",
                elements=n,
                int_ops=3 * n,
                bytes_written_seq=n * 8,
                extent=extent,
                intent=intent or 1,
                simd=False,
                warp_serial=True,
            )
        vec = StructuredVector(n, {out: values}, {out: present})
        return RtVal(vector=vec, length=n)

    def fold_aggregate(self, fn: str, out: Keypath, val: RtVal, agg_kp: Keypath,
                       fold_kp: Keypath | None) -> RtVal:
        if val.scatter is not None:
            return self._fold_aggregate_scattered(fn, out, val, agg_kp, fold_kp)
        self._charge_read(val, agg_kp)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        values = val.attr(agg_kp)
        mask = val.present(agg_kp)
        if control is None and static_rl is not None and static_rl != 0:
            control = _uniform_control(n, static_rl)
        result, present = semantics.fold_aggregate(fn, control, values, mask, cmask)
        n_work = n if mask is None else int(mask.sum())
        is_float = values.dtype.kind == "f"
        intent = static_rl if static_rl is not None else 1
        self._emit(
            label=f"fold{fn}",
            elements=n_work,
            float_ops=n_work if is_float else 0,
            int_ops=0 if is_float else n_work,
            extent=self._extent(n, intent),
            intent=intent or n,
        )
        vec = StructuredVector(n, {out: result}, {out: present})
        return RtVal(vector=vec, length=n)

    def _fold_aggregate_scattered(self, fn: str, out: Keypath, val: RtVal,
                                  agg_kp: Keypath, fold_kp: Keypath | None) -> RtVal:
        """Fold over a *virtually* scattered vector (paper Figure 11).

        Aggregates in input order directly into partition-aligned output
        slots: no data movement for the scatter itself, only an
        aggregation-table's worth of random writes.
        """
        scat = val.scatter
        base = RtVal(vector=val.vector, length=val.length, virtual=dict(val.virtual),
                     mat_attrs=val.mat_attrs)
        self._charge_read(base, agg_kp)
        n = val.length
        values = base.attr(agg_kp)
        # the result is the reference's — land, then fold; the landed
        # control (its ε slots forward-filled into the runs they pad) is
        # shared by every aggregate over one scatter, and the number of
        # destination runs prices the aggregation table
        control, groups = None, 1 if scat.size else 0
        if fold_kp is not None:
            info = base.runinfo(fold_kp)
            raw = info.materialize(n) if info is not None else base.attr(fold_kp)
            memo = scat.landed
            if memo is None or memo[0] is not raw:
                cols, masks = semantics.scatter(
                    scat.positions, scat.pos_present, scat.size,
                    {fold_kp: raw}, {fold_kp: base.present(fold_kp)},
                )
                control = semantics.forward_fill(cols[fold_kp], masks[fold_kp])
                memo = scat.landed = (
                    raw, control, len(semantics.run_offsets(control, scat.size))
                )
            _, control, groups = memo
        cols, masks = semantics.scatter(
            scat.positions, scat.pos_present, scat.size,
            {agg_kp: values}, {agg_kp: base.present(agg_kp)},
        )
        result, present = semantics.fold_aggregate(fn, control, cols[agg_kp], masks[agg_kp])

        is_float = values.dtype.kind == "f"
        self._emit(
            label=f"fold{fn}.scattered",
            elements=n,
            float_ops=n if is_float else 0,
            int_ops=n if not is_float else n,  # position arithmetic
            random_writes=n,
            random_write_footprint=max(_LINE, groups * 8),
            extent=self._extent(n),
            intent=self._intent,
        )
        vec = StructuredVector(scat.size, {out: result}, {out: present})
        return RtVal(vector=vec, length=scat.size)

    def fold_scan(self, out: Keypath, val: RtVal, s_kp: Keypath,
                  fold_kp: Keypath | None, inclusive: bool) -> RtVal:
        if val.scatter is not None:
            val = self._apply_scatter(val)
        self._charge_read(val, s_kp)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        if control is None and static_rl is not None and static_rl != 0:
            control = _uniform_control(n, static_rl)
        values = val.attr(s_kp)
        mask = val.present(s_kp)
        result, present = semantics.fold_scan(control, values, mask, inclusive, cmask)
        intent = static_rl if static_rl is not None else 1
        self._emit(
            label="foldscan",
            elements=n,
            int_ops=2 * n,
            extent=self._extent(n, intent),
            intent=intent or n,
            warp_serial=True,
        )
        vec = StructuredVector(n, {out: result}, {out: present})
        return RtVal(vector=vec, length=n)

    def fold_count(self, out: Keypath, val: RtVal, counted_kp: Keypath | None,
                   fold_kp: Keypath | None) -> RtVal:
        if val.scatter is not None:
            kp = counted_kp or _single_path(val)
            # count == sum of ones; reuse scattered sum over a ones column
            base = self.force(RtVal(vector=val.vector, length=val.length,
                                    virtual=dict(val.virtual)))
            ones_vec = base.with_attr(
                Keypath(["__ones"]), np.ones(val.length, dtype=np.int64),
                None if kp is None else (None if base.is_dense(kp) else base.present(kp)),
            )
            wrapped = RtVal(vector=ones_vec, length=val.length, scatter=val.scatter)
            return self._fold_aggregate_scattered("sum", out, wrapped,
                                                  Keypath(["__ones"]), fold_kp)
        n = val.length
        control, cmask, static_rl = self._control_arrays(val, fold_kp, n)
        if control is None and static_rl is not None and static_rl != 0:
            control = _uniform_control(n, static_rl)
        counted_mask = None
        kp = counted_kp or _single_path(val)
        if kp is not None:
            counted_mask = val.present(kp)
        result, present = semantics.fold_count(control, n, counted_mask, cmask)
        intent = static_rl if static_rl is not None else 1
        self._emit(
            label="foldcount",
            elements=n,
            int_ops=n,
            extent=self._extent(n, intent),
            intent=intent or n,
        )
        vec = StructuredVector(n, {out: result}, {out: present})
        return RtVal(vector=vec, length=n)

    # -- seam write -------------------------------------------------------------------------

    def seam(self, val: RtVal, useful: int | None = None) -> RtVal:
        """Materialize a value at a fragment boundary and charge the write.

        With empty-slot suppression, the charged buffer size shrinks to
        the number of present slots (section 3.1.2) — the values remain
        full-length arrays; only the accounting reflects suppression.
        """
        if (val.scatter is None and val.vector is not None and not val.virtual
                and set(val.vector.paths) <= val.mat_attrs):
            return val
        vec = self.force(val)
        self._materialize_cost(vec, n_useful=useful)
        return RtVal(vector=vec, length=len(vec), mat_attrs=frozenset(vec.paths),
                     interleaved=val.interleaved,
                     resident_footprint=val.resident_footprint)


# ------------------------------------------------------------------ helpers


def derive_runinfo(fn: str, info: RunInfo, other: int) -> RunInfo | None:
    """Symbolic control-vector arithmetic (shared by both runtimes)."""
    try:
        if fn == "Divide":
            return info.divide(other)
        if fn == "Modulo":
            return info.modulo(other)
        if fn == "Multiply":
            return info.multiply(other)
        if fn == "Add":
            return info.add(other)
    except (ControlVectorError, ZeroDivisionError):
        return None
    return None


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


def _and_masks(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    if a is None and b is None:
        return None
    if a is None:
        return b.copy()
    if b is None:
        return a.copy()
    return a & b


def _uniform_control(n: int, run_length: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) // run_length


def _single_path(val: RtVal) -> Keypath | None:
    paths = val.paths()
    return paths[0] if len(paths) == 1 else None


def _is_sequential(sample: np.ndarray) -> bool:
    """Heuristic: positions advancing by small non-negative strides form a
    streaming (prefetcher-friendly) access pattern, not a random one."""
    if len(sample) < 2:
        return True
    deltas = np.diff(sample.astype(np.int64))
    return bool(np.mean((deltas >= 0) & (deltas <= 16)) > 0.9)
