"""The node runner: the one way a program executes.

A :class:`ProgramRunner` dispatches each operator of a
:class:`~repro.core.program.Program` onto the wall-clock runtime
(:class:`~repro.compiler.rt_fast.FusedRuntime`: raw arrays, shared
masks, symbolic control vectors, ε-padded values stored compact, direct
fold kernels).  Two entry points cover every untraced execution in the
repo (a traced one steps the same :meth:`ProgramRunner.eval` with a pricer
reading the values: :meth:`repro.compiler.pricing.Pricer.run`):

* :func:`run_program` evaluates a whole program over full vectors —
  ``CompiledProgram.run(collect_trace=False)`` and every sequential run
  of the partition-parallel backend;
* :func:`run_chunk` evaluates the chunked zones of a
  :class:`~repro.parallel.planner.PartitionPlan` over one chunk
  ``[lo, hi)`` through a :class:`ChunkRunner`, which overrides exactly
  the operators whose chunk-local evaluation would diverge from the
  slots sequential execution produces: ``Range`` starts are offset
  symbolically by the chunk origin (the
  :class:`~repro.core.controlvector.RunInfo` stays virtual, so
  uniform-run fold kernels still engage inside a chunk), ``FoldSelect``
  hit positions are rebased to global row numbers, and a ``Gather`` into
  partitioned data verifies at runtime that positions stay inside the
  chunk (raising :class:`ChunkCrossing` otherwise).

``native=True`` swaps the kernels, not the runner: the runtime's dense
uniform-run sums come from :mod:`repro.native.runner`, and planned map
chains are intercepted at their head and computed by one C kernel — over
the present rows when their inputs are compact.

Chunk inputs are *views*: the driving vector's columns and presence
masks are sliced, never copied, before crossing the chunk boundary —
masks are shared into the workers under the FusedVal contract that no
consumer mutates them.  Everything here is bit-identity-preserving: the
runner produces exactly the vectors the reference interpreter produces,
enforced on every TPC-H query and property-tested across chunk
boundaries that cut group-by runs.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.compiler.rt_fast import Compact, FusedRuntime, FusedVal, extract
from repro.core import ops
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.interpreter.engine import _walk_op_classes


class ChunkCrossing(Exception):
    """A Gather into partitioned data chased positions outside the chunk.

    Raised by chunk workers; the executor responds by re-running the
    whole program through :func:`run_program`, which is always correct.
    """


def to_fused(vector: StructuredVector, lo: int = 0, hi: int | None = None) -> FusedVal:
    """A FusedVal over (a row range of) a Structured Vector.

    Columns and presence masks are NumPy views — nothing is copied at
    the chunk boundary; masks are shared under the never-mutate
    contract.
    """
    hi = len(vector) if hi is None else hi
    cols = {}
    masks = {}
    lazy = {}
    for path in vector.paths:
        handle = vector.lazy_handle(path)
        if handle is not None:
            # storage columns cross the chunk boundary as sliced segment
            # handles — a chunk worker only decodes what it touches
            lazy[path] = handle.slice(lo, hi)
            continue
        cols[path] = vector.attr(path)[lo:hi]
        masks[path] = None if vector.is_dense(path) else vector.present(path)[lo:hi]
    return FusedVal(hi - lo, cols, masks, lazy=lazy)


def consumer_sets(program: Program) -> tuple[frozenset, frozenset]:
    """Two per-program node sets, memoized on the program so a warm run
    never walks it:

    * the scatters that may stay virtual — every consumer is a fold and
      the scatter is not a program output (the fragment planner plans by
      the same set);
    * the partitions whose positions only ever drive a ``Scatter`` — the
      positions of ε rows are then never observed, so a compact key may
      yield compact positions.
    """
    sets = program.memo.get("consumer_sets")
    if sets is None:
        consumers: dict[int, list[ops.Op]] = {}
        for node in program.order:
            for child in node.inputs():
                consumers.setdefault(id(child), []).append(node)
        out_ids = {id(out) for out in program.outputs.values()}

        def only(node: ops.Op, accepts) -> bool:
            users = consumers.get(id(node))
            return id(node) not in out_ids and bool(users) and all(map(accepts, users))

        sets = program.memo.setdefault("consumer_sets", (
            frozenset(
                id(node) for node in program.order
                if isinstance(node, ops.Scatter)
                and only(node, lambda user: isinstance(user, ops.FoldOp))
            ),
            frozenset(
                id(node) for node in program.order
                if isinstance(node, ops.Partition)
                and only(node, lambda user, node=node: isinstance(user, ops.Scatter)
                         and user.positions is node and user.data is not node
                         and user.sizeref is not node)
            ),
        ))
    return sets


class ProgramRunner:
    """Per-node dispatch of one program into the wall-clock runtime.

    Outputs are bit-identical to the interpreter's.  All per-program
    derived state (the virtual-scatter set, the native chain index) is
    memoized on ``program.memo``, so constructing a runner for a warm
    program costs O(1) in program size.
    """

    _dispatch: dict[type, object] | None = None

    def __init__(
        self,
        program: Program,
        storage: Mapping[str, StructuredVector] | None = None,
        virtual_scatter: bool = True,
        native: bool = False,
    ):
        self.program = program
        self.native = native
        self.virtual_scatter = virtual_scatter
        if storage is None:
            storage = {}
        keep_virtual, self._scatter_only = consumer_sets(program)
        self._keep_virtual = keep_virtual if virtual_scatter else frozenset()
        self._forced: dict[int, StructuredVector] = {}
        #: native tier: {chain head id: (chain, kernel)}, and the values
        #: a head's kernel computed for the other members of its chain
        self._chains: dict | None = None
        self._stash: dict[int, FusedVal] = {}
        if native:
            # imported on demand: repro.native builds on this package
            from repro.native import runner as native_kernels

            self.rt = FusedRuntime(storage, virtual_scatter, kernels=native_kernels)
            self._chains = native_kernels.chain_index(program)
            self._eval_chain = native_kernels.eval_chain
        else:
            self.rt = FusedRuntime(storage, virtual_scatter)

    @classmethod
    def _dispatch_table(cls) -> dict[type, object]:
        if cls.__dict__.get("_dispatch") is None:
            table = {}
            for op_class in _walk_op_classes(ops.Op):
                method = getattr(cls, f"_eval_{op_class.__name__.lower()}", None)
                if method is not None:
                    table[op_class] = method
            cls._dispatch = table
        return cls._dispatch

    def eval(self, node: ops.Op, values: dict[int, FusedVal]) -> FusedVal:
        if self._chains is not None:
            # a chain head whose inputs are all evaluated computes every
            # member in one C kernel and stashes the members' values, so
            # their own eval just pops; otherwise (out-of-order scheduling)
            # the head evaluates like any node — same results either way
            stashed = self._stash.pop(id(node), None)
            if stashed is not None:
                return stashed
            entry = self._chains.get(id(node))
            if entry is not None:
                head = self._eval_chain(entry, values, self._stash)
                if head is not None:
                    return head
        method = self._dispatch_table().get(type(node))
        if method is None:
            raise ExecutionError(f"the runner does not implement {node.opname}")
        return method(self, node, values)

    def force(self, val: FusedVal) -> StructuredVector:
        """Materialize at the output boundary (memoized per value)."""
        vec = self._forced.get(id(val))
        if vec is None:
            vec = self.rt.force(val)
            self._forced[id(val)] = vec
        return vec

    def capture(self, values: dict[int, FusedVal]) -> dict[str, StructuredVector]:
        """Forced program outputs plus every evaluated Persist
        (``Interpreter.run``'s return contract)."""
        outputs = {
            name: self.force(values[id(node)])
            for name, node in self.program.outputs.items()
        }
        for node in self.program.order:
            if isinstance(node, ops.Persist) and id(node) in values:
                outputs[node.name] = self.force(values[id(node)])
        return outputs

    def prepare_feed(self, val: FusedVal, mode: str) -> FusedVal:
        """Ready a GLOBAL value for seeding into chunk workers.

        Pending scatters land once here (not once per chunk); values fed
        ``sliced`` get their virtual attributes materialized a single
        time so per-chunk slices stay views.
        """
        if val.scatter is not None:
            val = self.rt._apply_scatter(val)
        if mode == "sliced" and val.virtual:
            cols = dict(val.cols)
            masks = dict(val.masks)
            for path, info in val.virtual.items():
                cols[path] = info.materialize(val.length)
                masks[path] = None
            val = FusedVal(val.length, cols, masks, lazy=val.lazy, compact=val.compact)
        return val

    @staticmethod
    def _get(values: dict[int, FusedVal], node: ops.Op) -> FusedVal:
        return values[id(node)]

    # -- maintenance ---------------------------------------------------------

    def _eval_load(self, node: ops.Load, values) -> FusedVal:
        return self.rt.load(node.name)

    def _eval_persist(self, node: ops.Persist, values) -> FusedVal:
        return self._get(values, node.source)

    # -- shape ---------------------------------------------------------------

    def _eval_range(self, node: ops.Range, values) -> FusedVal:
        length = (
            node.size if node.size is not None
            else self._get(values, node.sizeref).length
        )
        return self.rt.range_(node.out, node.start, node.step, length)

    def _eval_constant(self, node: ops.Constant, values) -> FusedVal:
        return self.rt.constant(node.out, node.value, node.dtype)

    def _eval_cross(self, node: ops.Cross, values) -> FusedVal:
        return self.rt.cross(
            node.kp1, self._get(values, node.left),
            node.kp2, self._get(values, node.right),
        )

    # -- element-wise / structural -------------------------------------------

    def _eval_binary(self, node: ops.Binary, values) -> FusedVal:
        return self.rt.binary(
            node.fn, node.out,
            self._get(values, node.left), node.left_kp,
            self._get(values, node.right), node.right_kp,
        )

    def _eval_unary(self, node: ops.Unary, values) -> FusedVal:
        return self.rt.unary(
            node.fn, node.out, self._get(values, node.source),
            node.source_kp, node.dtype,
        )

    def _eval_zip(self, node: ops.Zip, values) -> FusedVal:
        return self.rt.zip(
            self._get(values, node.left), node.kp1, node.out1,
            self._get(values, node.right), node.kp2, node.out2,
        )

    def _eval_project(self, node: ops.Project, values) -> FusedVal:
        return self.rt.project(node.out, self._get(values, node.source), node.kp)

    def _eval_upsert(self, node: ops.Upsert, values) -> FusedVal:
        return self.rt.upsert(
            self._get(values, node.target), node.out,
            self._get(values, node.value), node.kp,
        )

    def _eval_gather(self, node: ops.Gather, values) -> FusedVal:
        return self.rt.gather(
            self._get(values, node.source),
            self._get(values, node.positions), node.pos_kp,
        )

    def _eval_scatter(self, node: ops.Scatter, values) -> FusedVal:
        sizeref = node.sizeref if node.sizeref is not None else node.positions
        return self.rt.scatter(
            self._get(values, node.data),
            self._get(values, node.positions), node.pos_kp,
            size=self._get(values, sizeref).length,
            keep_virtual=id(node) in self._keep_virtual,
        )

    def _eval_materialize(self, node: ops.Materialize | ops.Break, values) -> FusedVal:
        return self.rt.materialize(self._get(values, node.source))

    _eval_break = _eval_materialize

    def _eval_partition(self, node: ops.Partition, values) -> FusedVal:
        return self.rt.partition(
            node.out, self._get(values, node.source), node.kp,
            self._get(values, node.pivots), node.pivot_kp,
            scatter_only=id(node) in self._scatter_only,
        )

    # -- folds ---------------------------------------------------------------

    def _eval_foldselect(self, node: ops.FoldSelect, values) -> FusedVal:
        return self.rt.fold_select(
            node.out, self._get(values, node.source), node.sel_kp, node.fold_kp
        )

    def _eval_foldaggregate(self, node: ops.FoldAggregate, values) -> FusedVal:
        return self.rt.fold_aggregate(
            node.fn, node.out, self._get(values, node.source),
            node.agg_kp, node.fold_kp,
        )

    def _eval_foldscan(self, node: ops.FoldScan, values) -> FusedVal:
        return self.rt.fold_scan(
            node.out, self._get(values, node.source), node.s_kp,
            node.fold_kp, node.inclusive,
        )

    def _eval_foldcount(self, node: ops.FoldCount, values) -> FusedVal:
        return self.rt.fold_count(
            node.out, self._get(values, node.source),
            node.counted_kp, node.fold_kp,
        )


class ChunkRunner(ProgramRunner):
    """Evaluates the chunked zones over one chunk ``[lo, hi)``.

    Every slot of every produced value is bit-identical to the slot
    sequential execution assigns to that global row.
    """

    def __init__(
        self,
        program: Program,
        driving_slice: FusedVal,
        driving_id: int,
        chunked_ids: frozenset,
        lo: int,
        hi: int,
        extent: int,
        native: bool = False,
        virtual_scatter: bool = True,
    ):
        super().__init__(program, virtual_scatter=virtual_scatter, native=native)
        self._driving_slice = driving_slice
        self._driving_id = driving_id
        self._chunked_ids = chunked_ids
        self.lo = lo
        self.hi = hi
        self.extent = extent

    def _eval_load(self, node: ops.Load, values) -> FusedVal:
        if id(node) != self._driving_id:  # pragma: no cover - planner invariant
            raise ExecutionError(f"chunk worker asked to load {node.name!r}")
        return self._driving_slice

    def _eval_range(self, node: ops.Range, values) -> FusedVal:
        # The chunk starts at global row `lo`: shift the symbolic start so
        # every slot holds the value sequential execution assigns to that
        # row.  The RunInfo stays virtual — chunk-local uniform-run fold
        # kernels keep engaging because chunk boundaries are run-aligned.
        length = self._get(values, node.sizeref).length
        return self.rt.range_(node.out, node.start + self.lo * node.step,
                              node.step, length)

    def _eval_foldselect(self, node: ops.FoldSelect, values) -> FusedVal:
        result = super()._eval_foldselect(node, values)
        if self.lo == 0:
            return result
        # local hit positions -> global positions
        out = node.out
        info = result.virtual.get(out)
        column = result.compact.get(out)
        if info is not None:
            return FusedVal(result.length, {}, {}, {out: info.add(self.lo)})
        if column is not None:
            shifted = Compact(column.slots, column.values + self.lo, column.fill)
            return FusedVal(result.length, {}, {}, compact={out: shifted})
        return FusedVal(result.length, {out: result.cols[out] + self.lo}, {out: None})

    def _eval_gather(self, node: ops.Gather, values) -> FusedVal:
        if id(node.source) not in self._chunked_ids:
            return super()._eval_gather(node, values)  # global source, as-is
        # Partitioned source: positions are global, the source is a chunk.
        positions = self._get(values, node.positions)
        kp = node.pos_kp
        info = positions.virtual.get(kp)
        column = positions.compact.get(kp)
        if info is not None and info.step == 1 and info.cap is None:
            # consecutive rows: the valid ones are [first, last)
            first = max(info.start, 0)
            last = min(info.start + positions.length, self.extent)
            crossing = first < last and (first < self.lo or last > self.hi)
            local = FusedVal(positions.length, {}, {}, {kp: info.add(-self.lo)})
        elif column is not None:
            crossing = self._escapes(column.values)
            shifted = Compact(column.slots, column.values.astype(np.int64) - self.lo,
                              column.fill)
            local = FusedVal(positions.length, {}, {}, compact={kp: shifted})
        else:
            pos, pos_mask = extract(positions, kp)
            crossing = self._escapes(pos if pos_mask is None else pos[pos_mask])
            local = FusedVal(len(pos), {kp: pos.astype(np.int64) - self.lo},
                             {kp: pos_mask})
        if crossing:
            raise ChunkCrossing(
                f"gather positions escape chunk [{self.lo}, {self.hi})"
            )
        return self.rt.gather(self._get(values, node.source), local, kp)

    def _escapes(self, pos: np.ndarray) -> bool:
        """Does a valid (in-extent) present position leave the chunk?"""
        valid = (pos >= 0) & (pos < self.extent)
        return bool(np.any(valid & ((pos < self.lo) | (pos >= self.hi))))


def run_program(
    program: Program,
    storage: Mapping[str, StructuredVector],
    native: bool = False,
    virtual_scatter: bool = True,
) -> dict[str, StructuredVector]:
    """Evaluate a whole program untraced: named outputs plus Persists."""
    runner = ProgramRunner(program, storage, virtual_scatter, native)
    values: dict[int, FusedVal] = {}
    for node in program.order:
        values[id(node)] = runner.eval(node, values)
    return runner.capture(values)


def run_chunk(
    program: Program,
    chunk_indices: list[int],
    frontier: list[int],
    seeded: dict[int, FusedVal],
    driving: int,
    lo: int,
    hi: int,
    extent: int,
    native: bool = False,
    virtual_scatter: bool = True,
) -> dict[int, FusedVal]:
    """Worker body: evaluate the chunk subgraph, return frontier values
    (keyed, like the plan, by topological-order indices)."""
    order = program.order
    runner = ChunkRunner(
        program,
        driving_slice=seeded[driving],
        driving_id=id(order[driving]),
        chunked_ids=frozenset(id(order[i]) for i in chunk_indices),
        lo=lo,
        hi=hi,
        extent=extent,
        native=native,
        virtual_scatter=virtual_scatter,
    )
    values: dict[int, FusedVal] = {id(order[i]): val for i, val in seeded.items()}
    for i in chunk_indices:
        node = order[i]
        if id(node) not in values:
            values[id(node)] = runner.eval(node, values)
    return {i: values[id(order[i])] for i in frontier}
