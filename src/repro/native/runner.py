"""The native kernel provider of the node runner.

``ProgramRunner(..., native=True)`` (:mod:`repro.compiler.runner`) takes
two things from this module:

* the two per-run aggregate kernels of its runtime —
  :func:`fold_aggregate_segments` (present rows of a compact column) and
  :func:`fold_aggregate_uniform` (a dense one) — which call the compiled
  fold library for the float sums it serves (NumPy otherwise — per call,
  silently); a grouped fold over a virtual scatter is no per-run kernel:
  it accumulates per group with NumPy on both tiers
  (``kernels.fold_aggregate_groups``);
* chain interception: :func:`chain_index` plans the program's map chains
  once, and :func:`eval_chain` computes all member operators of a chain
  in one C kernel when every external input is already available — over
  the present rows only when the inputs are compact on shared slots.

If a chain's inputs are not all available (out-of-order evaluation in
the parallel scheduler), the head simply evaluates normally — native
execution degrades node by node, never changing results.

The chain index and its :class:`~repro.native.exec.ChainKernel`
specialization memos live on the program they were planned for
(``program.memo``), so a warm engine (or serving window) executes
without planning or compiling anything, and an evicted plan takes its
kernels with it.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import kernels
from repro.compiler.columns import Compact, Dense
from repro.compiler.rt_fast import FusedVal, compact_operands
from repro.core.program import Program
from repro.native.exec import (
    ChainKernel,
    native_fold_segments,
    run_chain_python,
)
from repro.native.plan import plan_native_chains


def fold_aggregate_segments(fn, values, starts):
    res = native_fold_segments(fn, values, starts)
    if res is not None:
        return res
    return kernels.fold_aggregate_segments(fn, values, starts)


def fold_aggregate_uniform(fn, values, run_length, n):
    res = native_fold_segments(fn, values, np.arange(0, n, run_length or n))
    if res is not None:
        return res
    return kernels.fold_aggregate_uniform(fn, values, run_length, n)


def chain_index(program: Program, metadata=None) -> dict:
    """{head node id: (chain, kernel)} for a program, planned once.

    Two threads racing the first run may both plan; ``setdefault``
    publishes one fully built index and both use it."""
    index = program.memo.get("native_chains")
    if index is None:
        chains = plan_native_chains(program, metadata)
        index = program.memo.setdefault(
            "native_chains", {id(c.head): (c, ChainKernel(c)) for c in chains}
        )
    return index


#: stash sentinel for chain members nothing outside the chain reads
_INTERNAL = FusedVal(0, {})


def eval_chain(entry, values: dict[int, FusedVal], stash: dict[int, FusedVal]):
    """The chain head's value, with every other member's value put in
    *stash* — or None when an input is not evaluated yet (the caller
    then runs the head node by node)."""
    chain, kernel = entry
    operands = []
    for src, kp in chain.inputs:
        val = values.get(id(src))
        if val is None:
            return None
        operands.append((val, kp))
    present = compact_operands(operands)
    if present is None:
        slots = None
        results = kernel([val.column(kp).pad() for val, kp in operands])
    else:
        # inputs compact on shared slots: one pass over the present rows;
        # every step's ε image comes from the same steps over the fills
        # (k is data-dependent: the present rows are an array even when
        # k == 1, or the first one-hit selection would compile a kernel)
        slots, arrays, fills, scalars = present
        results = kernel([(array, None) for array in arrays], scalar=scalars)
        images = run_chain_python(chain, [(fill, None) for fill in fills])
    by_step = dict(zip(chain.outputs, results))
    head = _INTERNAL
    for j, step in enumerate(chain.steps):
        out = by_step.get(j)
        if out is None:
            wrapped = _INTERNAL
        elif slots is None:
            wrapped = FusedVal(len(out[0]), {step.node.out: Dense(*out)})
        else:
            wrapped = FusedVal(slots.length, {
                step.node.out: Compact(slots, out[0], images[j][0])
            })
        if j == 0:
            head = wrapped
        else:
            stash[id(step.node)] = wrapped
    return head
