"""The node runner: the one way a program executes.

A :class:`ProgramRunner` dispatches each operator of a
:class:`~repro.core.program.Program` onto the wall-clock runtime
(:class:`~repro.compiler.rt_fast.FusedRuntime`, over values that are one
``{keypath: column}`` mapping each — :mod:`repro.compiler.columns` — with
direct fold kernels).  Program outputs leave it as present rows
(:meth:`ProgramRunner.capture`: each resolved inside the run, its padded
image built when something reads it —
:meth:`~repro.core.vector.StructuredVector.over`).  Two entry points cover
every untraced execution in the
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
  symbolically by the chunk origin (the column stays a
  :class:`~repro.compiler.columns.Run`, so uniform-run fold kernels
  still engage inside a chunk), ``FoldSelect`` hit positions are rebased
  to global row numbers (``Column.shifted``), and a ``Gather`` into
  partitioned data verifies at runtime that positions stay inside the
  chunk (raising :class:`ChunkCrossing` otherwise).

What only the program determines is derived once per plan, not once
per run (:func:`planned_nodes`): ``program.memo["nodes"]`` maps a node's
id to a ``Constant``'s value (one read-only object every run reads), a
``Range``'s ``RunInfo``, a ``Binary``'s constant right operand and last
control-vector derivation (:class:`~repro.compiler.rt_fast.MapPlan`) —
built in one pass with the plan — and a ``Project`` / ``Zip``'s *route*
(the ``(out path, in path)`` pairs it renames by), derived when the node
first runs and keyed by the paths of the value it renames, so that a
storage with another schema derives again.  Whatever is published is a
complete object, so racing first runs both derive and agree; a warm run
constructs no keypath, no constant and no ``Fraction``
(``tests/compiler/test_runner.py`` counts).

``native=True`` swaps one kernel, not the runner: the runtime's per-run
float sums come from :mod:`repro.native.runner`; every node still
evaluates here, one at a time.  It is all an untraced run reads: both
entry points keep every fold-only scatter virtual (section 3.1.3).

Chunk inputs are *views*: the driving vector's columns are sliced
(``Column.slice``), never copied, before crossing the chunk boundary,
and a value fed whole is one object read by every worker — values and
columns are never written once built.  Everything here is
bit-identity-preserving: the runner produces exactly the vectors the reference interpreter produces,
enforced on every TPC-H query and property-tested across chunk
boundaries that cut group-by runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.compiler.rt_fast import (
    FusedRuntime,
    FusedVal,
    MapPlan,
    constant,
    route,
    zip_routes,
)
from repro.core import ops
from repro.core.controlvector import RunInfo
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.interpreter.engine import _walk_op_classes


class ChunkCrossing(Exception):
    """A Gather into partitioned data chased positions outside the chunk.

    Raised by chunk workers; the executor responds by re-running the
    whole program through :func:`run_program`, which is always correct.
    """


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


def planned_nodes(program: Program, metadata=None) -> dict:
    """``{node id: what the program alone determines about that node}``,
    memoized on the program like :func:`consumer_sets`: a ``Constant``'s
    value, a ``Range``'s ``RunInfo`` and a ``Binary``'s
    :class:`~repro.compiler.rt_fast.MapPlan`, built in one pass by
    whoever needs the table first (``compile_program``, so that a fresh
    plan's first run finds them; else the first runner) and published
    complete.  With the compiler's *metadata* pass at hand, control-vector
    metadata is the pass's own objects — nothing it derived is derived
    again by a run.  The routes of ``Project`` / ``Zip`` nodes join the
    table as those nodes first run: they depend on the schema the program
    runs over."""
    table = program.memo.get("nodes")
    if table is None:
        table = {}
        for node in program.order:
            if isinstance(node, ops.Constant):
                table[id(node)] = constant(node.out, node.value, node.dtype)
            elif isinstance(node, ops.Range):
                info = metadata and metadata.info(node, node.out)
                table[id(node)] = info or RunInfo(node.start, Fraction(node.step))
            elif isinstance(node, ops.Binary):
                right = table[id(node.right)] if isinstance(node.right, ops.Constant) else None
                plan = table[id(node)] = MapPlan(right, node.right_kp)
                source = metadata and metadata.info(node.left, node.left_kp)
                if source and plan.scalar is not None:
                    plan.derived = (source, plan.scalar, metadata.info(node, node.out))
        table = program.memo.setdefault("nodes", table)
    return table


class ProgramRunner:
    """Per-node dispatch of one program into the wall-clock runtime.

    Outputs are bit-identical to the interpreter's.  All per-program
    derived state (the virtual-scatter set, the per-node table of
    constants, routes and run metadata) is memoized on
    ``program.memo``, so constructing a runner for a warm program costs
    O(1) in program size and running it derives nothing twice.

    ``virtual_scatter=False`` lands every scatter: only a traced run of a
    plan that keeps none virtual passes it, so the pricer observes them.
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
        if storage is None:
            storage = {}
        self._methods = self._dispatch_table()
        self._planned = planned_nodes(program)
        keep_virtual, self._scatter_only = consumer_sets(program)
        self._keep_virtual = keep_virtual if virtual_scatter else frozenset()
        self._forced: dict[int, StructuredVector] = {}
        if native:
            # imported on demand: repro.native builds on this package
            from repro.native import runner as native_kernels

            self.rt = FusedRuntime(storage, kernels=native_kernels)
        else:
            self.rt = FusedRuntime(storage)

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
        method = self._methods.get(type(node))
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
        return self.rt.range_(node.out, self._planned[id(node)], length)

    def _eval_constant(self, node: ops.Constant, values) -> FusedVal:
        return self._planned[id(node)]

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
            self._get(values, node.right), node.right_kp, self._planned[id(node)],
        )

    def _eval_unary(self, node: ops.Unary, values) -> FusedVal:
        return self.rt.unary(
            node.fn, node.out, self._get(values, node.source),
            node.source_kp, node.dtype,
        )

    def _eval_zip(self, node: ops.Zip, values) -> FusedVal:
        left, right = self._get(values, node.left), self._get(values, node.right)
        # a route is keyed by the paths it renames: over another schema
        # the node derives again
        paths = tuple(left.columns), tuple(right.columns)
        known = self._planned.get(id(node))
        if known is None or known[0] != paths:
            known = self._planned[id(node)] = (paths, zip_routes(
                left.columns, node.kp1, node.out1, right.columns, node.kp2, node.out2))
        return self.rt.zip(left, right, known[1])

    def _eval_project(self, node: ops.Project, values) -> FusedVal:
        source = self._get(values, node.source)
        paths = tuple(source.columns)
        known = self._planned.get(id(node))
        if known is None or known[0] != paths:
            known = self._planned[id(node)] = (
                paths, route(source.columns, node.kp, node.out))
        return self.rt.project(source, known[1])

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
    ):
        super().__init__(program, native=native)
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
        info = self._planned[id(node)]
        if self.lo:
            info = RunInfo(node.start + self.lo * node.step, info.step)
        return self.rt.range_(node.out, info, length)

    def _eval_foldselect(self, node: ops.FoldSelect, values) -> FusedVal:
        result = super()._eval_foldselect(node, values)
        if self.lo == 0:
            return result
        # local hit positions -> global positions
        column = result.column(node.out).shifted(self.lo)
        return FusedVal(result.length, {node.out: column})

    def _eval_gather(self, node: ops.Gather, values) -> FusedVal:
        if id(node.source) not in self._chunked_ids:
            return super()._eval_gather(node, values)  # global source, as-is
        # Partitioned source: positions are global, the source is a chunk.
        positions = self._get(values, node.positions)
        column = positions.column(node.pos_kp)
        span = column.span()
        if span is not None:
            # consecutive rows: the valid ones are [first, last)
            first, last = max(span[0], 0), min(span[1], self.extent)
            crossing = first < last and (first < self.lo or last > self.hi)
        else:
            crossing = self._escapes(column.rows()[0])
        if crossing:
            raise ChunkCrossing(
                f"gather positions escape chunk [{self.lo}, {self.hi})"
            )
        local = FusedVal(positions.length, {node.pos_kp: column.shifted(-self.lo)})
        return self.rt.gather(self._get(values, node.source), local, node.pos_kp)

    def _escapes(self, pos: np.ndarray) -> bool:
        """Does a valid (in-extent) present position leave the chunk?"""
        valid = (pos >= 0) & (pos < self.extent)
        return bool(np.any(valid & ((pos < self.lo) | (pos >= self.hi))))


def run_program(
    program: Program,
    storage: Mapping[str, StructuredVector],
    native: bool = False,
) -> dict[str, StructuredVector]:
    """Evaluate a whole program untraced: named outputs plus Persists."""
    runner = ProgramRunner(program, storage, native=native)
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
    )
    values: dict[int, FusedVal] = {id(order[i]): val for i, val in seeded.items()}
    for i in chunk_indices:
        node = order[i]
        if id(node) not in values:
            values[id(node)] = runner.eval(node, values)
    return {i: values[id(order[i])] for i in frontier}
