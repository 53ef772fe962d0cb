"""The cost simulator: a pricing pass over the node runner.

A traced ``CompiledProgram.run`` evaluates the program once, on the one
:class:`~repro.compiler.runner.ProgramRunner`, and shows the
:class:`Pricer` every node's value.  The pricer turns what it *reads*
there — lengths, item sizes, present counts, ``FoldSelect`` hits, a
sample of gather positions, scatter writes, pivot and group counts,
static run lengths of virtual controls — into the trace of what the
*generated machine code* would have done on the target device under the
program's :class:`~repro.compiler.fragments.FragmentPlan`: fused operators
charge compute only, seams materialization traffic, gathers random accesses
with measured footprints, selections branches with measured selectivities.
It computes no operator result: a strategy the runner has too (a scatter
virtual or landed) is *run* that way, so its facts are observed; one only
the simulated device has — the branch-free cursor, unsuppressed buffers, one
kernel per operator, X100 chunk residency — is *priced* from the same facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.fragments import FragmentPlan
from repro.compiler.rt_fast import FusedVal
from repro.core import ops
from repro.core.keypath import Keypath
from repro.hardware.device import DeviceProfile
from repro.hardware.trace import Trace, TraceEvent, TraceRecorder

_SAMPLE = 65536  # positions sampled when measuring gather footprints
_LINE = 64


@dataclass(slots=True)
class _Held:
    """What the simulated device holds of one node's value: ``val`` — the
    runner value whose columns it has; ``mat`` — each leaf that lives in
    memory -> the (node, leaf) that stored it (columns computed inside the
    fragment are absent); ``virtual`` — leaves that are run metadata only;
    ``interleaved`` — materialized row-wise (one gather fetches all
    attributes); ``resident`` — footprint of the cache-resident chunk buffer
    it lives in (X100-style ``Materialize``), else 0; ``scatter`` /
    ``written`` — under a scatter kept virtual ``val`` is the data's,
    unmoved: the runner's annotation and the rows it writes."""

    val: FusedVal
    mat: dict = field(default_factory=dict)
    virtual: frozenset = frozenset()
    interleaved: bool = False
    resident: int = 0
    scatter: object = None
    written: int = 0


def _stored(node: ops.Op, val: FusedVal) -> dict:
    """Every leaf of *val* in memory, stored by *node*."""
    return {path: (id(node), path) for path in val.paths()}


class Pricer:
    """Prices one run of one program: feed it through :meth:`run`."""

    def __init__(self, plan: FragmentPlan, device: DeviceProfile,
                 scale: float = 1.0, workers: int | None = None):
        self.plan = plan
        #: concurrently executing cores (ExecutionOptions.workers): each
        #: owns a chunk buffer, so X100-style residency scales with them
        self.workers = int(workers) if workers else device.threads
        #: the trace models a dataset `scale` times larger than the arrays
        #: run over: volumes and *parallel* extents scale, extent 1 does not
        self.scale = float(scale)
        self.recorder = TraceRecorder()
        self.trace: Trace = self.recorder.trace
        self.held: dict[int, _Held] = {}
        self._fragment: int | None = None
        self._intent = 1
        self._charged: set[tuple[int, Keypath]] = set()

    def run(self, runner) -> dict[int, FusedVal]:
        """Evaluate the program on *runner*, pricing node by node: its values."""
        values: dict[int, FusedVal] = {}
        for node in self.plan.program.order:
            out = values[id(node)] = runner.eval(node, values)
            if out.scatter is not None and self.plan.is_materialized(node):
                # the seam lands this scatter on the simulated device: its
                # readers run on the landed value (``out.scatter.landed``)
                values[id(node)] = runner.rt.materialize(out)
            fragment = self.plan.fragment_of.get(id(node))
            if fragment is not None and fragment != self._fragment:
                # a new kernel: per-kernel read charging starts over
                self._fragment = fragment
                self._intent = self.plan.fragments[fragment].intent
                self._charged = set()
                self.recorder.begin_kernel(fragment, extent=0, intent=self._intent)
            # priced from what is held of the inputs (``node.inputs()`` order);
            # most results are computed in-fragment: registers, no state
            price = getattr(self, f"_price_{type(node).__name__.lower()}", None)
            inputs = [self.held[id(child)] for child in node.inputs()]
            held = (price and price(node, out, *inputs)) or _Held(out)
            if self.plan.is_materialized(node) and not isinstance(
                    node, (ops.Load, ops.Persist, ops.Break, ops.Materialize)):
                held = self._seam(node, held, out)
            self.held[id(node)] = held
        return values

    # -- accounting -----------------------------------------------------------

    def _extent(self, n: int, intent: int | None = None) -> int:
        intent = self._intent if intent is None else intent
        # (intent 0: a single run spanning everything — sequential)
        return max(1, n // intent) if intent else 1

    def _emit(self, **kwargs) -> None:
        event = TraceEvent(**kwargs)
        if self.scale != 1.0:
            scaled = event.scaled(self.scale)
            if event.extent > 1:
                scaled.extent = max(1, int(event.extent * self.scale))
            event = scaled
        self.recorder.emit(event)

    def _map(self, label: str, n: int, **counters) -> None:
        # data-parallel: every element is independent, even inside an
        # intent-L fragment (only folds lose parallelism, section 3.1.1)
        self._emit(label=label, elements=n, extent=max(1, n), intent=1, **counters)

    def _read(self, held: _Held, path: Keypath) -> None:
        """Charge streaming reads of the in-memory leaves under *path*,
        once per kernel each."""
        val = held.val
        for leaf, key in held.mat.items():
            if not leaf.startswith(path) or key in self._charged:
                continue
            self._charged.add(key)
            nbytes = val.length * val.dtype_of(leaf).itemsize
            if self.plan.options.slot_suppression and val.length:
                # suppressed buffers store only the present slots (3.1.2)
                nbytes = int(nbytes * (val.present_count(leaf) / val.length))
            self._map(f"read{leaf}", val.length, bytes_read_seq=nbytes,
                      stream_footprint=held.resident)

    def _write(self, val: FusedVal, label: str, stream_footprint: int = 0) -> None:
        """Charge writing a value to memory (a fragment seam); with
        empty-slot suppression the buffer shrinks to the present slots."""
        n = val.length
        fraction = 1.0
        if self.plan.options.slot_suppression and n:
            # (a dense column beside ε-padded ones keeps every slot)
            fraction = max(val.present_count(path) for path in val.paths()) / n
        total = sum(int(n * size * fraction) for size in val.item_sizes())
        self._map(label, n, bytes_written_seq=total, stream_footprint=stream_footprint)

    def _land(self, held: _Held, size: int) -> None:
        """Charge a materialized scatter: random write traffic (only
        present rows are actually written)."""
        n, sizes = held.val.length, held.val.item_sizes()
        self._map("scatter.materialize", n, int_ops=n,
                  random_writes=held.written * len(sizes),
                  random_write_footprint=size * sum(sizes))

    def _seam(self, node: ops.Op, held: _Held, out: FusedVal) -> _Held:
        """Materialize a value at a fragment boundary and charge the write."""
        if held.scatter is not None:
            out = held.scatter.landed
            self._land(held, out.length)
        elif not held.virtual and all(path in held.mat for path in out.paths()):
            return held
        self._write(out, "materialize")
        return _Held(out, _stored(node, out), interleaved=held.interleaved,
                     resident=held.resident)

    # -- maintenance / shape --------------------------------------------------

    def _price_load(self, node: ops.Load, out) -> _Held:
        return _Held(out, _stored(node, out))

    def _price_persist(self, node: ops.Persist, out, source: _Held) -> _Held:
        return source

    def _price_range(self, node: ops.Range, out, *sizeref) -> _Held:
        # (a non-integer Constant is a stored scalar, not run metadata)
        return _Held(out, virtual=frozenset(
            path for path, column in out.columns.items() if column.runs() is not None))

    _price_constant = _price_range

    def _price_cross(self, node: ops.Cross, out, left, right) -> None:
        self._map("cross", out.length, int_ops=2 * out.length)

    # -- element-wise / structural --------------------------------------------

    def _price_binary(self, node: ops.Binary, out, left: _Held, right: _Held) -> _Held | None:
        if node.left_kp in left.virtual and out.column(node.out).runs() is not None:
            # control-vector arithmetic never materializes
            return _Held(out, virtual=frozenset((node.out,)))
        self._read(left, node.left_kp)
        self._read(right, node.right_kp)
        work = out.present_count(node.out)
        is_float = "f" in (out.dtype_of(node.out).kind, left.val.dtype_of(node.left_kp).kind,
                           right.val.dtype_of(node.right_kp).kind)
        self._emit(label=f"binary.{node.fn}", elements=work,
                   float_ops=work if is_float else 0, int_ops=0 if is_float else work,
                   extent=max(1, out.length), intent=1)

    def _price_unary(self, node: ops.Unary, out, source: _Held) -> None:
        self._read(source, node.source_kp)
        self._map(f"unary.{node.fn}", source.val.length, int_ops=source.val.length)

    @staticmethod
    def _side(held: _Held, kp: Keypath | None, out: Keypath | None):
        """(mat, virtual) of *held* projected from *kp* onto *out*."""
        if kp is None:
            return held.mat, held.virtual
        mat = {leaf.rebase(kp, out): key for leaf, key in held.mat.items() if leaf.startswith(kp)}
        return mat, frozenset(leaf.rebase(kp, out) for leaf in held.virtual if leaf.startswith(kp))

    def _price_zip(self, node: ops.Zip, out, left: _Held, right: _Held) -> _Held:
        left_mat, left_virtual = self._side(left, node.kp1, node.out1)
        right_mat, right_virtual = self._side(right, node.kp2, node.out2)
        return _Held(out, {**left_mat, **right_mat}, left_virtual | right_virtual)

    def _price_project(self, node: ops.Project, out, source: _Held) -> _Held:
        return _Held(out, *self._side(source, node.kp, node.out))

    def _price_upsert(self, node: ops.Upsert, out, target: _Held, value: _Held) -> _Held:
        mat = {leaf: key for leaf, key in target.mat.items() if leaf != node.out}
        if node.kp in value.virtual and value.val.length >= target.val.length:
            return _Held(out, mat, target.virtual | {node.out})
        self._read(value, node.kp)
        return _Held(out, mat)  # (a real column beside them lands the virtual ones)

    def _price_gather(self, node: ops.Gather, out, source: _Held, positions: _Held) -> None:
        """Random-access accounting with *measured* footprint and hot-line
        fraction (this is what prices Figures 14 and 16)."""
        self._read(positions, node.pos_kp)
        pos, pos_mask = positions.val.column(node.pos_kp).pad()
        n = len(pos) if pos_mask is None else int(np.count_nonzero(pos_mask))
        # footprint estimation: strided sample spreads over the whole array;
        # stride/sequentiality detection: contiguous prefix (strided sampling
        # would fake large deltas on a streaming pattern)
        stride = max(1, len(pos) // _SAMPLE)
        sample, prefix = pos[::stride][:_SAMPLE], pos[:_SAMPLE]
        if pos_mask is not None:
            sample = sample[pos_mask[::stride][:_SAMPLE]]
            prefix = prefix[pos_mask[:_SAMPLE]]
        if len(sample) == 0:
            return
        sizes = source.val.item_sizes()
        total = source.val.length * sum(sizes)
        item = sum(sizes) if source.interleaved else max(sizes)
        streams = 1 if source.interleaved else len(sizes)
        # heuristic: positions advancing by small non-negative strides form a
        # streaming (prefetcher-friendly) access pattern, not a random one
        deltas = np.diff(prefix.astype(np.int64))
        if len(prefix) < 2 or np.mean((deltas >= 0) & (deltas <= 16)) > 0.9:
            self._map("gather.seq", n, int_ops=n,
                      bytes_read_seq=min(total, n * item * streams))
            return
        lines = (sample.astype(np.int64) * item) // _LINE
        uniq, counts = np.unique(lines, return_counts=True)
        hot_fraction = counts.max() / len(sample) if len(uniq) > 1 else 1.0
        footprint = len(uniq) * _LINE
        if n > len(sample) and len(uniq) > 1:
            # scale the unique-line estimate up to the full position count
            footprint = max(_LINE, min(total, int(footprint * (n / len(sample)))))
        self._map("gather.rand", n, int_ops=n,
                  random_reads=int(n * (1.0 - hot_fraction)) * streams,
                  random_read_footprint=footprint * streams)

    def _price_scatter(self, node: ops.Scatter, out, data: _Held, positions: _Held, *_) -> _Held:
        self._read(positions, node.pos_kp)
        n = min(data.val.length, positions.val.length)
        written = positions.val.present_count(node.pos_kp, n)
        pending = _Held(data.val, data.mat, data.virtual, scatter=out.scatter,
                        written=data.val.length if written == n else written)
        if self.plan.is_virtual_scatter(node):
            # Paper 3.1.3: just an annotation; cost is paid on materialization.
            self._emit(label="scatter.virtual", elements=0, extent=1, intent=1)
            return pending
        self._land(pending, out.length)
        return _Held(out, _stored(node, out))

    def _price_materialize(self, node: ops.Materialize, out, source, *control) -> _Held:
        """X100-style when a control vector gives the buffer's run length:
        a chunked materialize keeps the buffer cache resident — but every
        concurrently active work unit owns a chunk, so the effective
        footprint is ``chunk * threads``: tiny next to a CPU's L2, larger
        than a GPU's shared L2 (why X100-style vectorization does not port
        to GPUs, Figure 15c).  The chunk fill is an order-preserving cursor
        loop (warp-serial on GPUs)."""
        footprint = 0
        chunk = node.control is not None and node.control_kp is not None and (
            self.plan.metadata.static_run_length(node.control, node.control_kp))
        if chunk:
            footprint = int(chunk) * max(1, sum(out.item_sizes())) * max(1, self.workers)
            # the producing fold's full-size buffer write is re-scoped to
            # the chunk buffer as well: it never reaches DRAM
            for event in reversed(self.trace.kernels[-1].events):
                if event.bytes_written_seq > 0 and event.stream_footprint == 0:
                    event.stream_footprint = footprint
                    break
            self._emit(label="materialize.chunkfill", elements=out.length,
                       int_ops=out.length // 4,  # amortized cursor copy
                       extent=self._extent(out.length), intent=self._intent,
                       simd=False, warp_serial=True)
        self._write(out, "materialize", footprint)
        return _Held(out, _stored(node, out), interleaved=len(out.paths()) > 1,
                     resident=footprint)

    def _price_break(self, node: ops.Break, out, source: _Held, *control) -> _Held:
        self._write(out, "break")
        return _Held(out, _stored(node, out), interleaved=source.interleaved)

    def _price_partition(self, node: ops.Partition, out, source: _Held, pivots: _Held) -> None:
        self._read(source, node.kp)
        n, pivots = source.val.length, pivots.val.length
        # counting pass + position pass over the data, plus a prefix sum
        # over the (identity-hash sized) counts table
        self._map("partition", n, int_ops=3 * n + pivots, random_writes=n,
                  random_write_footprint=max(_LINE, pivots * 8))

    # -- folds ------------------------------------------------------------------

    def _landed(self, node: ops.FoldOp, held: _Held) -> _Held:
        """What a fold that cannot address a virtual scatter reads: it lands."""
        if held.scatter is None:
            return held
        self._land(held, held.scatter.size)
        landed = held.scatter.landed
        return _Held(landed, _stored(node.source, landed))

    def _runs(self, held: _Held, fold_kp: Keypath | None) -> int | None:
        """The fold's static run length: 0 — one run spans the vector;
        ``L`` — uniform runs of ``L``; None — the runs depend on data.
        Virtual control vectors are never read; a stored one is."""
        if fold_kp is None:
            return 0
        if fold_kp in held.virtual:
            run_length = held.val.column(fold_kp).runs()
            return None if run_length and held.val.length % run_length else run_length
        self._read(held, fold_kp)
        return None

    def _fold(self, label: str, held: _Held, fold_kp: Keypath | None, **counters) -> None:
        n = held.val.length
        runs = self._runs(held, fold_kp)
        intent = 1 if runs is None else runs
        self._emit(label=label, extent=self._extent(n, intent), intent=intent or n, **counters)

    def _price_foldselect(self, node: ops.FoldSelect, out, held: _Held) -> None:
        held = self._landed(node, held)
        self._read(held, node.sel_kp)
        n = held.val.length
        runs = self._runs(held, node.fold_kp)
        shape = dict(elements=n, extent=self._extent(n, runs),
                     intent=runs or self._intent or 1, simd=False)
        if self.plan.options.selection == "branching":
            # A fused branching select never materializes a position
            # buffer: the if-body consumes qualifying elements in
            # registers.  The cost is the data-dependent branch itself.
            self._emit(label="foldselect.branching", int_ops=2 * n, branches=n,
                       taken_fraction=out.present_count(node.out) / n if n else 0.0, **shape)
        else:
            self._emit(label="foldselect.branch-free", int_ops=3 * n,
                       bytes_written_seq=n * 8, warp_serial=True, **shape)

    def _fold_scattered(self, fn: str, node: ops.FoldOp, held: _Held, is_float: bool) -> None:
        """A fold over a *virtually* scattered vector (paper Figure 11)
        aggregates in input order straight into partition-aligned slots: no
        data movement, only an aggregation table's worth of random writes."""
        n = held.val.length
        groups = held.scatter.destination_runs(node.fold_kp)
        self._emit(label=f"fold{fn}.scattered", elements=n,
                   float_ops=n if is_float else 0, int_ops=n,  # position arithmetic
                   random_writes=n, random_write_footprint=max(_LINE, groups * 8),
                   extent=self._extent(n), intent=self._intent)

    def _price_foldaggregate(self, node: ops.FoldAggregate, out, held: _Held) -> None:
        self._read(held, node.agg_kp)
        is_float = held.val.dtype_of(node.agg_kp).kind == "f"
        if held.scatter is not None:
            return self._fold_scattered(node.fn, node, held, is_float)
        work = held.val.present_count(node.agg_kp)
        self._fold(f"fold{node.fn}", held, node.fold_kp, elements=work,
                   float_ops=work if is_float else 0, int_ops=0 if is_float else work)

    def _price_foldscan(self, node: ops.FoldScan, out, held: _Held) -> None:
        held = self._landed(node, held)
        self._read(held, node.s_kp)
        n = held.val.length
        self._fold("foldscan", held, node.fold_kp, elements=n, int_ops=2 * n, warp_serial=True)

    def _price_foldcount(self, node: ops.FoldCount, out, held: _Held) -> None:
        if held.scatter is not None:  # count == sum of ones
            return self._fold_scattered("sum", node, held, False)
        n = held.val.length
        self._fold("foldcount", held, node.fold_kp, elements=n, int_ops=n)
