"""Partition-parallel execution: the multicore side of the tuning claim.

The paper's section 4 argues the same vector algebra re-targets from SIMD
to multicore purely through how control vectors partition the data.  This
package makes the multicore half real: a planner that classifies a
program into three zones — global (once, up front), partitioned (per
chunk of the driving vector, cut along control-vector runs) and
sequential — and an executor that runs the chunks on a worker pool and
concatenates their results bit-identically to the sequential
interpreter.  The executor is a schedule, not an evaluator: every zone
and every chunk runs on the node runner of :mod:`repro.compiler.runner`.
"""

from repro.compiler.rt_fast import to_fused
from repro.compiler.runner import ChunkCrossing
from repro.parallel.executor import ParallelInterpreter
from repro.parallel.merge import concat_fused
from repro.parallel.planner import (
    GLOBAL,
    PARTITIONED,
    SEQ,
    PartitionPlan,
    PartitionPlanner,
    chunk_ranges,
)
from repro.parallel.registry import REGISTRY, PoolLease, PoolRegistry

__all__ = [
    "ChunkCrossing",
    "REGISTRY",
    "PoolLease",
    "PoolRegistry",
    "ParallelInterpreter",
    "concat_fused",
    "to_fused",
    "GLOBAL",
    "PARTITIONED",
    "SEQ",
    "PartitionPlan",
    "PartitionPlanner",
    "chunk_ranges",
]
