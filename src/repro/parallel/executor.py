"""The partition-parallel execution backend (multicore Voodoo).

``ParallelInterpreter`` is a drop-in replacement for the sequential
:class:`~repro.interpreter.engine.Interpreter`: same constructor shape,
same ``run()`` contract, bit-identical outputs.  It is a *schedule* over
the node runner (:mod:`repro.compiler.runner`), not another evaluator:
it asks the :class:`~repro.parallel.planner.PartitionPlanner` how to
split the program, evaluates the GLOBAL zone once, fans the chunked
zones out over a persistent thread pool (NumPy and the native kernel
release the GIL) as :func:`~repro.compiler.runner.run_chunk` calls
seeded with column/mask *views*, merges the chunk results as raw arrays,
and finishes the SEQ zone over the merged values.  Everything that does
not split — one worker, a plan with a single chunk, a ``Gather`` that
turns out to chase positions across chunk boundaries at runtime — is one
:func:`~repro.compiler.runner.run_program` call.

The worker pool is leased lazily on first parallel run and **reused
across runs**.  Call :meth:`ParallelInterpreter.close` (or use the
instance as a context manager) for deterministic shutdown.

A run is a function of its arguments: ``run(program, storage, ...)``
only reads what it is handed, so any number of threads may run programs
through one instance at once (a concurrent server's engine does).

Correctness is structural, not statistical: every partitioned slot is the
very slot sequential execution would produce (chunk workers offset
``Range`` starts and ``FoldSelect`` positions by the chunk origin, and
chunk boundaries never split a control run), so merging is exact.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor
from typing import Mapping

from repro.compiler.rt_fast import FusedVal, fused_slice
from repro.compiler.runner import ChunkCrossing, ProgramRunner, run_chunk, run_program
from repro.core import ops
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.parallel import merge
from repro.parallel.planner import (
    GFOLD,
    GLOBAL,
    GSELECT,
    PARTITIONED,
    SEQ,
    PartitionPlan,
    PartitionPlanner,
)
from repro.parallel.registry import REGISTRY, PoolLease


class ParallelInterpreter:
    """Partition-parallel drop-in for the sequential :class:`Interpreter`.

    Parameters
    ----------
    storage:
        Named-vector Load context, as for the sequential interpreter:
        what a bare ``run(program)`` reads and leaves Persist results in.
    workers:
        Worker-pool width; defaults to ``os.cpu_count()``.  ``workers=1``
        runs every program whole, without planning.
    grain:
        Target rows per chunk (``ExecutionOptions.parallel_grain``).
        ``None`` (default) slices one chunk per worker.  The grain is
        honored regardless of how many cores actually execute the
        chunks: on a single effective core the chunks run inline, at
        exactly the same boundaries, with ``Range`` starts and
        ``FoldSelect`` positions rebased identically.
    native:
        Evaluate every zone — per-chunk and sequential — through the
        native C tier (:mod:`repro.native`): per-run float sums run as
        compiled code, degrading to NumPy.  Outputs stay bit-identical.

    The underlying worker pool is persistent: created on first parallel
    ``run()``, reused by every later one.  ``close()`` (or ``with``)
    shuts it down deterministically; a closed instance transparently
    re-opens a pool if run again.
    """

    def __init__(
        self,
        storage: Mapping[str, StructuredVector] | None = None,
        workers: int | None = None,
        grain: int | None = None,
        native: bool = False,
    ):
        self._storage = dict(storage or {})
        self.workers = (os.cpu_count() or 1) if workers is None else int(workers)
        if self.workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {self.workers}")
        if grain is not None and grain < 1:
            raise ExecutionError(f"grain must be >= 1 or None, got {grain}")
        self.grain = grain
        self.native = bool(native)
        #: hardware threads actually available; with one core the chunked
        #: zones still execute chunk-by-chunk (same plans, same offsets,
        #: same merges — the correctness path stays exercised) but inline,
        #: skipping pointless pool handoffs
        self._effective = min(self.workers, os.cpu_count() or 1)
        self._lease: PoolLease | None = None
        self._lease_lock = threading.Lock()
        #: plan of the most recent run (observability/testing hook)
        self.last_plan: PartitionPlan | None = None

    def store(self, name: str, vector: StructuredVector) -> None:
        self._storage[name] = vector

    def reset_storage(self, storage: Mapping[str, StructuredVector]) -> None:
        """Swap the Load context of bare ``run(program)`` calls."""
        self._storage = dict(storage)

    # -- pool lifecycle ------------------------------------------------------

    def _pool(self) -> Executor:
        """The persistent worker pool, leased lazily on first use from the
        process-wide :data:`~repro.parallel.registry.REGISTRY` — pools
        are shared across every interpreter (and the serving scheduler)
        asking for the same width; concurrent first runs take one lease."""
        lease = self._lease
        if lease is None:
            with self._lease_lock:
                lease = self._lease
                if lease is None:
                    lease = self._lease = REGISTRY.lease(self.workers)
        return lease.executor

    @staticmethod
    def _collect(futures: list) -> list:
        """Results of all chunk futures; on failure, cancel what is still
        pending and drain the rest so the whole-program re-run does not
        compete with doomed tasks on the shared persistent pool."""
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            for f in futures:
                if not f.cancelled():
                    f.exception()  # wait + swallow secondary failures
            raise

    def close(self) -> None:
        """Release the worker-pool lease deterministically (idempotent).

        The underlying executor shuts down when the last leaseholder
        releases it — with a single user this is exactly the old
        per-engine shutdown behavior."""
        with self._lease_lock:
            lease, self._lease = self._lease, None
        if lease is not None:
            lease.release()

    def __enter__(self) -> "ParallelInterpreter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def run(
        self,
        program: Program,
        storage: Mapping[str, StructuredVector] | None = None,
        grain: int | None = None,
        native: bool | None = None,
        virtual_scatter: bool = True,
    ) -> dict[str, StructuredVector]:
        """Execute and return named outputs, bit-identical to sequential.

        ``storage`` is this run's Load context and is only read; left
        out, the run reads the instance's own and leaves its Persist
        results there (the :class:`Interpreter` contract).  ``grain``
        and ``native`` default to the constructor's values.
        """
        own = storage is None
        if own:
            storage = self._storage
        native = self.native if native is None else native
        plan = None
        if self.workers > 1:
            plan = self._plan(program, storage, self.grain if grain is None else grain)
        self.last_plan = plan
        outputs = None
        if plan is not None and plan.parallel:
            try:
                outputs = self._run_parallel(
                    program, plan, ProgramRunner(program, storage, virtual_scatter, native)
                )
            except ChunkCrossing:
                pass  # proven wrong at runtime: the whole-program run is always right
        if outputs is None:
            outputs = run_program(program, storage, native, virtual_scatter)
        if own:  # Persist results are visible to later bare run() calls
            for node in program.order:
                if isinstance(node, ops.Persist) and node.name in outputs:
                    self._storage[node.name] = outputs[node.name]
        return outputs

    def _plan(
        self,
        program: Program,
        storage: Mapping[str, StructuredVector],
        grain: int | None,
    ) -> PartitionPlan:
        """Plan *program*, or reuse the plan memoized on it.

        Repeated engine queries hand the very same program object back;
        re-planning (zone classification + schema inference) per run was
        measurable on short queries.  The plan is kept on the program
        (``program.memo``) beside the storage shape it was made for,
        which covers everything the planner reads from storage: names,
        lengths, per-attribute dtypes — a float sum is only exact
        sequentially, so swapping an int column for a float one of the
        same shape must invalidate the cached zone classification — and
        the lazy storage columns' segment maps, which steer the chunk
        boundaries.  Dtypes come from the schema (never ``attr``): the
        plan key must not materialize lazy columns.
        """
        shape = tuple(sorted(
            (
                name,
                len(vec),
                tuple((str(p), dt.str) for p, dt in vec.schema.items()),
                tuple(
                    (str(p), h.boundaries()) for p, h in vec.lazy_items()
                ) if hasattr(vec, "lazy_items") else (),
            )
            for name, vec in storage.items()
        ))
        key = ("partition_plan", self.workers, grain)
        cached = program.memo.get(key)
        if cached is not None and cached[0] == shape:
            return cached[1]
        plan = PartitionPlanner(program, storage, self.workers, grain=grain).plan()
        program.memo[key] = (shape, plan)
        return plan

    def _run_parallel(
        self, program: Program, plan: PartitionPlan, runner: ProgramRunner
    ) -> dict[str, StructuredVector]:
        """*runner* is the run's context: its Load context and kernels
        are the ones every zone and chunk of this run uses."""
        order = program.order
        values: dict[int, FusedVal] = {}

        # 1. GLOBAL zone: dimension-side values, computed once.
        for i, node in enumerate(order):
            if plan.zones[i] == GLOBAL:
                values[id(node)] = runner.eval(node, values)

        # 2. Fan the chunked zones out over the worker pool: the driving
        #    vector is loaded once, cut per chunk, and read whole by SEQ.
        values[id(order[plan.driving])] = runner.rt.load(order[plan.driving].name)
        chunk_results = self._map_chunks(program, plan, values, runner)

        # 3. Merge chunk results as raw arrays (no per-chunk wrapping).
        for i in plan.frontier:
            node = order[i]
            if i == plan.driving:
                continue
            chunks = [result[i] for result in chunk_results]
            values[id(node)] = self._merge(plan.zones[i], node, chunks)

        # 4. SEQ zone, over the merged full-length values.  A
        #    grouped query's aggregates are independent folds over one
        #    shared scatter — fan ready folds out over the worker pool.
        self._run_seq(
            [i for i, zone in enumerate(plan.zones) if zone == SEQ],
            order, values, runner,
        )

        # 5. Outputs and Persists, forced.
        return runner.capture(values)

    def _run_seq(
        self,
        seq_indices: list[int],
        order,
        values: dict[int, FusedVal],
        runner: ProgramRunner,
    ) -> None:
        """Evaluate the SEQ zone, fanning independent kernels onto the pool.

        A grouped query's aggregates are independent folds over one
        shared scatter (and its post-aggregation arithmetic is
        independent per output column), but topological order interleaves
        them with cheap structural ops.  This scheduler repeatedly
        collects every *ready* fold / element-wise node — all inputs
        evaluated — and runs the batch concurrently (the NumPy kernels
        release the GIL); everything else evaluates inline in topological
        order.  The first fold of each distinct source evaluates inline
        to build what the folds of one scatter share (its result slots or
        its landed value, the Partition's ranked positions) before
        threads read them.
        """
        nodes = [order[i] for i in seq_indices]
        pending: set[int] = {id(node) for node in nodes}

        def ready(node: ops.Op) -> bool:
            return all(id(inp) in values for inp in node.inputs())

        fan_out = self._effective > 1
        while pending:
            batch = [
                node for node in nodes
                if id(node) in pending
                and isinstance(node, (ops.FoldOp, ops.Binary, ops.Unary))
                and ready(node)
            ] if fan_out else []
            if len(batch) > 1:
                deferred: list[ops.Op] = []
                warmed: set[int] = set()
                for node in batch:
                    if isinstance(node, ops.FoldOp) and id(node.source) not in warmed:
                        warmed.add(id(node.source))
                        values[id(node)] = runner.eval(node, values)
                    else:
                        deferred.append(node)
                futures = [
                    self._pool().submit(runner.eval, node, values)
                    for node in deferred
                ]
                for node, result in zip(deferred, self._collect(futures)):
                    values[id(node)] = result
                pending.difference_update(id(node) for node in batch)
                continue
            # no concurrency to exploit: evaluate the earliest pending
            # node (its inputs all precede it and are already evaluated)
            node = next(node for node in nodes if id(node) in pending)
            values[id(node)] = runner.eval(node, values)
            pending.discard(id(node))

    def _map_chunks(
        self,
        program: Program,
        plan: PartitionPlan,
        values: dict[int, FusedVal],
        runner: ProgramRunner,
    ) -> list[dict[int, FusedVal]]:
        order = program.order
        chunk_indices = plan.chunk_nodes()
        driving = values[id(order[plan.driving])]
        knobs = {"native": runner.native, "virtual_scatter": runner.virtual_scatter}
        # global feeds are readied once: pending scatters land here, not
        # once per chunk; a feed handed over whole is one value read by
        # every worker (values are never written once built)
        feeds = {
            j: (mode, runner.rt.materialize(values[id(order[j])]))
            for j, mode in plan.global_feeds.items()
        }
        tasks = []
        for lo, hi in plan.chunks:
            seeded: dict[int, FusedVal] = {plan.driving: fused_slice(driving, lo, hi)}
            for j, (mode, val) in feeds.items():
                seeded[j] = fused_slice(val, lo, hi) if mode == "sliced" else val
            tasks.append((lo, hi, seeded))
        if self._effective <= 1:
            return [
                run_chunk(
                    program, chunk_indices, plan.frontier, seeded,
                    plan.driving, lo, hi, plan.extent, **knobs,
                )
                for lo, hi, seeded in tasks
            ]
        pool = self._pool()
        futures = [
            pool.submit(
                run_chunk,
                program,
                chunk_indices,
                plan.frontier,
                seeded,
                plan.driving,
                lo,
                hi,
                plan.extent,
                **knobs,
            )
            for lo, hi, seeded in tasks
        ]
        return self._collect(futures)

    @staticmethod
    def _merge(zone: str, node: ops.Op, chunks: list[FusedVal]) -> FusedVal:
        if zone == PARTITIONED:
            return merge.concat_fused(chunks)
        if zone == GSELECT:
            return merge.merge_select_fused(chunks, node.out)
        if zone == GFOLD:
            fn = "sum" if isinstance(node, ops.FoldCount) else node.fn
            return merge.merge_fold_fused(fn, chunks, node.out)
        raise ExecutionError(f"cannot merge zone {zone!r}")  # pragma: no cover
