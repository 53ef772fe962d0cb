"""The native kernel provider of the node runner.

``ProgramRunner(..., native=True)`` (:mod:`repro.compiler.runner`) takes
two things from this module:

* the four uniform-run kernels of its runtime —
  :func:`fold_select_uniform`, :func:`fold_aggregate_uniform`,
  :func:`fold_count_uniform`, :func:`gather_compacted` — which call the
  compiled fold library when the dtype is servable (NumPy otherwise —
  per call, silently);
* chain interception: :func:`chain_index` plans the program's map chains
  once, and :func:`eval_chain` computes all member operators of a chain
  in one C kernel when every external input is already available.

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

from repro.compiler import kernels
from repro.compiler.rt_fast import FusedVal, extract
from repro.core.program import Program
from repro.native.exec import (
    ChainKernel,
    native_fold_aggregate,
    native_fold_count,
    native_fold_select,
    native_gather_compacted,
)
from repro.native.plan import plan_native_chains


def fold_select_uniform(sel, sel_mask, run_length, n):
    res = native_fold_select(sel, sel_mask, run_length, n)
    if res is not None:
        return res
    return kernels.fold_select_uniform(sel, sel_mask, run_length, n)


def fold_aggregate_uniform(fn, values, mask, run_length, n):
    res = native_fold_aggregate(fn, values, mask, run_length, n)
    if res is not None:
        return res
    return kernels.fold_aggregate_uniform(fn, values, mask, run_length, n)


def fold_count_uniform(counted_mask, run_length, n):
    res = native_fold_count(counted_mask, run_length, n)
    if res is not None:
        return res
    return kernels.fold_count_uniform(counted_mask, run_length, n)


def gather_compacted(positions, pos_present, source_len, columns, masks):
    res = native_gather_compacted(positions, pos_present, source_len,
                                  columns, masks)
    if res is not None:
        return res
    return kernels.gather_compacted(positions, pos_present, source_len,
                                    columns, masks)


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
_INTERNAL = FusedVal(0, {}, {})


def eval_chain(entry, values: dict[int, FusedVal], stash: dict[int, FusedVal]):
    """The chain head's value, with every other member's value put in
    *stash* — or None when an input is not evaluated yet (the caller
    then runs the head node by node)."""
    chain, kernel = entry
    pairs = []
    for src, kp in chain.inputs:
        val = values.get(id(src))
        if val is None:
            return None
        pairs.append(extract(val, kp))
    results = kernel(pairs)
    by_step = dict(zip(chain.outputs, results))
    head = _INTERNAL
    for j, step in enumerate(chain.steps):
        out = by_step.get(j)
        if out is None:
            wrapped = _INTERNAL
        else:
            array, mask = out
            wrapped = FusedVal(len(array), {step.node.out: array},
                               {step.node.out: mask})
        if j == 0:
            head = wrapped
        else:
            stash[id(step.node)] = wrapped
    return head
