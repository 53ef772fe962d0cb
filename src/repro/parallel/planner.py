"""The partition planner: which nodes run per-chunk, and where to cut.

The paper's central tuning claim is that *control vectors* partition the
data and thereby determine how a Voodoo program parallelizes (sections 2.2
and 4).  This pass turns that idea into an executable plan for the
partition-parallel backend: given a :class:`~repro.core.program.Program`
and a storage context, it classifies every node into one of three zones

* **GLOBAL** — not downstream of the driving (sliced) ``Load``; evaluated
  once, sequentially, before the workers start, and shared read-only.  A
  worker reads a global value whole: either a length-1 broadcast operand
  or the source of a ``Gather``.
* **PARTITIONED** — evaluated per chunk.  Every slot of
  a partitioned value is bit-identical to the slot the sequential
  interpreter would produce, because the chunk worker offsets
  ``Range`` starts and ``FoldSelect`` positions by the chunk origin
  (:class:`repro.compiler.runner.ChunkRunner`, which keeps the offset
  ``Range`` symbolic so uniform-run fold kernels engage inside chunks).
* **SEQ** — everything else (scatters, partitions, data-dependent folds,
  folds whose one run spans the whole vector, element-wise reads of a
  full-length global, …); evaluated sequentially after the chunk results
  have been concatenated back into full vectors.  SEQ is always correct.

Chunk boundaries are aligned to the least common multiple of the static
run lengths of every partitioned fold's control vector (inferred by the
compiler's :class:`~repro.compiler.metadata.MetadataPass`), so no control
run is ever split across workers — the condition under which per-chunk
folds equal the sequential ones bit for bit.

A plan is parallel only when it is worth the worker pool: ``work`` —
the rows of the longest chunk times the nodes a chunk evaluates — must
reach ``POOL_CROSSOVER``, a constant fitted from a measured size ladder
(``examples/parallel_crossover.py``).  Below it the plan is sequential
("below the pool crossover") and the program runs whole, because a pool
hand-off would cost more than the second core returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.compiler.metadata import MetadataPass
from repro.core import ops
from repro.core.program import Program
from repro.core.schema import Schema
from repro.core.typecheck import TypeChecker

GLOBAL = "global"
PARTITIONED = "partitioned"
SEQ = "seq"

#: A plan goes to the worker pool only when one chunk carries at least
#: this much partitioned work — rows per chunk times the nodes a chunk
#: evaluates (:attr:`PartitionPlan.work`); below it the program runs
#: whole.  Two pool threads share one GIL: kernels too short to amortise
#: handing it back and forth cost more than the second core returns.
#: Fitted with ``examples/parallel_crossover.py`` (2-CPU Xeon, 2 workers,
#: 85 plans: the 3 micros over 2^14..2^22 rows, the 14 TPC-H queries at
#: SF 0.005..0.2), timing the pool against the whole run: the plan work
#: that loses least time to the slower of the two, summed over three
#: ladder runs (each run alone fits 16.86 M or 16.97 M).  The pool was
#: faster on 16 of the 85 plans (medians of the three runs), none below
#: 8.4 M and most above 15 M; below 8.4 M the whole run won every plan.
POOL_CROSSOVER = 16_859_136


@dataclass
class PartitionPlan:
    """Everything the executor needs to run one program partition-parallel.

    Node references use *topological order indices* into ``program.order``.
    """

    program: Program
    #: index of the Load node whose vector is sliced into chunks
    driving: int
    #: total length of the driving vector
    extent: int
    #: zone per node, indexed like ``program.order``
    zones: list[str]
    #: chunk boundaries: list of (lo, hi) global row ranges
    chunks: list[tuple[int, int]] = field(default_factory=list)
    #: chunk boundary alignment (lcm of partitioned-fold run lengths)
    align: int = 1
    #: indices of PARTITIONED nodes whose values must be merged
    frontier: list[int] = field(default_factory=list)
    #: indices of GLOBAL nodes the workers read (each fed whole)
    global_feeds: list[int] = field(default_factory=list)
    #: rows of the longest chunk x nodes a chunk evaluates (Loads aside)
    work: int = 0
    #: human-readable reason when the plan is not parallel
    reason: str = ""

    @property
    def parallel(self) -> bool:
        """Do the chunks go to the worker pool?  (A plan below the pool
        crossover, or with one chunk, is sequential: the program runs whole.)"""
        return len(self.chunks) > 1

    def chunk_nodes(self) -> list[int]:
        """Indices of nodes the workers evaluate, in topological order."""
        return [i for i, z in enumerate(self.zones) if z == PARTITIONED]

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for zone in self.zones:
            counts[zone] = counts.get(zone, 0) + 1
        return counts


def chunk_ranges(n: int, workers: int, align: int = 1) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into contiguous ranges.

    Every boundary except the final ``n`` is a multiple of *align*, so no
    aligned control run is split.  There are up to *workers* chunks — one
    per worker — as even as alignment allows; fewer come back when ``n``
    is small (never an empty chunk).
    """
    if n <= 0 or workers <= 1:
        return [(0, n)] if n > 0 else []
    align = max(1, align)
    units = math.ceil(n / align)  # number of indivisible runs
    parts = min(workers, units)
    base, extra = divmod(units, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        end = min(n, (start // align + count) * align)
        if i == parts - 1:
            end = n
        if end > start:
            ranges.append((start, end))
        start = end
    return ranges


class PartitionPlanner:
    """Builds a :class:`PartitionPlan` for a program over a storage context."""

    def __init__(self, program: Program, storage, workers: int):
        self.program = program
        self.storage = dict(storage)
        self.workers = max(1, int(workers))
        self.order = list(program.order)
        self.index = {id(node): i for i, node in enumerate(self.order)}
        self.metadata = MetadataPass(program)
        self.schemas = self._infer_schemas()

    def _infer_schemas(self) -> dict[int, Schema] | None:
        try:
            load_schemas = {name: vec.schema for name, vec in self.storage.items()}
            checker = TypeChecker(load_schemas)
            by_id = checker.check(self.program)
            return {self.index[nid]: schema for nid, schema in (
                (id(node), by_id[id(node)]) for node in self.order
            )}
        except Exception:
            return None  # untypeable program: plan conservatively

    # -- entry point ---------------------------------------------------------

    def plan(self) -> PartitionPlan:
        driving = self._pick_driving()
        if driving is None:
            return self._sequential("no partitionable Load input")
        extent = len(self.storage[self.order[driving].name])
        zones, align = self._classify(driving, extent)
        plan = PartitionPlan(
            program=self.program,
            driving=driving,
            extent=extent,
            zones=zones,
            align=align,
        )
        chunked = sum(
            z == PARTITIONED and not isinstance(node, ops.Load)
            for node, z in zip(self.order, zones)
        )
        if not chunked:
            return self._sequential("no partitionable operators", plan)
        chunks = chunk_ranges(extent, self.workers, align)
        if len(chunks) <= 1:
            return self._sequential("driving vector too small to split", plan)
        plan.work = max(hi - lo for lo, hi in chunks) * chunked
        if plan.work < POOL_CROSSOVER:
            return self._sequential("below the pool crossover", plan)
        plan.chunks = chunks
        plan.frontier = self._frontier(zones)
        plan.global_feeds = self._global_feeds(zones)
        return plan

    def _sequential(self, reason: str, plan: PartitionPlan | None = None) -> PartitionPlan:
        n = len(self.order)
        return PartitionPlan(
            program=self.program,
            driving=plan.driving if plan else -1,
            extent=plan.extent if plan else 0,
            zones=[SEQ] * n,
            work=plan.work if plan else 0,
            chunks=[],
            reason=reason,
        )

    # -- driving-load selection ------------------------------------------------

    def _pick_driving(self) -> int | None:
        best: tuple[int, int] | None = None
        for node in self.program.loads():
            vec = self.storage.get(node.name)
            if vec is None or len(vec) == 0:
                continue
            candidate = (len(vec), self.index[id(node)])
            if best is None or candidate[0] > best[0]:
                best = candidate
        return best[1] if best else None

    # -- zone classification ------------------------------------------------------

    def _classify(self, driving: int, extent: int) -> tuple[list[str], int]:
        zones: list[str] = []
        align = 1
        for i, node in enumerate(self.order):
            inputs = [self.index[id(x)] for x in node.inputs()]
            if i == driving:
                zones.append(PARTITIONED)
                continue
            if all(zones[j] == GLOBAL for j in inputs):
                # no chunked/SEQ ancestor (Loads, Constants, derived
                # dimension-side values): evaluated once, up front
                zones.append(GLOBAL)
                continue
            if SEQ in (zones[j] for j in inputs):
                # consumers of merged results always run after the merge
                zones.append(SEQ)
                continue
            zone, run = self._classify_downstream(node, zones, extent)
            if run > 1:
                align = align * run // math.gcd(align, run)
            zones.append(zone)
        return zones, align

    def _classify_downstream(
        self, node: ops.Op, zones: list[str], extent: int
    ) -> tuple[str, int]:
        """Zone of a node whose inputs are PARTITIONED (at least one) or
        GLOBAL (run length of its fold control in the second slot, 1 when
        not a fold)."""
        if isinstance(node, ops.Range):
            return PARTITIONED, 1  # sized by a chunk: the chunk runner offsets the start
        if isinstance(node, ops.Gather):
            if zones[self.index[id(node.positions)]] != PARTITIONED:
                return SEQ, 1
            # a partitioned source: the worker checks positions stay in-chunk;
            # a global one is fed whole
            return PARTITIONED, 1
        if isinstance(node, ops.FoldOp):
            return self._classify_fold(node, extent)
        if isinstance(node, (ops.Binary, ops.Unary, ops.Zip, ops.Project, ops.Upsert)):
            return self._classify_elementwise(node, zones)
        # scatters, partitions, crosses, pass-throughs
        return SEQ, 1

    def _classify_elementwise(self, node: ops.Op, zones: list[str]) -> tuple[str, int]:
        """Element-wise ops partition when every input is either chunked or
        a broadcast global (slot *i* depends on slot *i* only)."""
        for inp in node.inputs():
            if zones[self.index[id(inp)]] == PARTITIONED:
                continue
            #: output length follows these inputs, so a scalar here would
            #: shrink the result to length 1
            sets_length = isinstance(node, ops.Zip) or (
                isinstance(node, ops.Upsert) and inp is node.target
            )
            if sets_length or self._static_length(inp) != 1:
                return SEQ, 1
        return PARTITIONED, 1

    def _classify_fold(self, node: ops.FoldOp, extent: int) -> tuple[str, int]:
        run = (
            None if node.fold_kp is None
            else self.metadata.static_run_length(node.source, node.fold_kp)
        )
        if not run or run >= extent:
            # data-dependent control (None) cannot prove alignment; one run
            # spanning the vector (0) has nothing to split
            return SEQ, 1
        if isinstance(node, ops.FoldScan) and self._is_float(node.source, node.s_kp):
            # chunked float prefix sums round differently than one long
            # cumsum; integer scans are exact, floats re-run sequentially
            return SEQ, 1
        return PARTITIONED, run

    def _is_float(self, node: ops.Op, path) -> bool | None:
        """True when attribute dtype is floating (None ⇒ assume float)."""
        if self.schemas is None:
            return True
        schema = self.schemas.get(self.index[id(node)])
        if schema is None:
            return True
        try:
            return schema[path].kind == "f"
        except Exception:
            return True

    def _static_length(self, node: ops.Op) -> int | None:
        """Length of a GLOBAL value, when statically derivable."""
        if isinstance(node, ops.Constant):
            return 1
        if isinstance(node, ops.Load):
            vec = self.storage.get(node.name)
            return None if vec is None else len(vec)
        if isinstance(node, ops.Range):
            if node.size is not None:
                return node.size
            return self._static_length(node.sizeref)
        if isinstance(node, (ops.Project, ops.Upsert, ops.Unary)):
            src = node.source if not isinstance(node, ops.Upsert) else node.target
            return self._static_length(src)
        return None

    # -- frontier & feeds ----------------------------------------------------------

    def _frontier(self, zones: list[str]) -> list[int]:
        """PARTITIONED nodes whose merged value the sequential side needs:
        inputs of SEQ nodes, and program outputs."""
        needed = {
            self.index[id(inp)]
            for node, zone in zip(self.order, zones) if zone == SEQ
            for inp in node.inputs()
        }
        needed.update(self.index[id(out)] for out in self.program.outputs.values())
        return sorted(j for j in needed if zones[j] == PARTITIONED)

    def _global_feeds(self, zones: list[str]) -> list[int]:
        """GLOBAL values the workers read."""
        return sorted({
            self.index[id(inp)]
            for node, zone in zip(self.order, zones) if zone == PARTITIONED
            for inp in node.inputs() if zones[self.index[id(inp)]] == GLOBAL
        })
