"""Program-level optimization passes.

* :func:`cse` — common-subexpression elimination by structural
  hash-consing (the paper's non-redundancy payoff: shared DAG nodes are
  computed once and materialized at most once).

``Program`` construction already guarantees reachability (only nodes
reachable from an output exist), so classic dead-code elimination is
implicit.  The :class:`~repro.core.program.Interner` used by the builder
gives CSE at construction time and marks its programs
``Program.canonical`` (everything the relational translator emits); this
pass establishes it for programs assembled from raw operator nodes.
"""

from __future__ import annotations

from repro.core import ops
from repro.core.program import Program, clone_with_inputs


def cse(program: Program) -> Program:
    """Merge structurally identical subexpressions into shared nodes.

    ``Persist`` nodes are never merged (they have external effects); all
    pure operators with equal type, parameters and (already canonicalized)
    inputs become one node.  A program that is already canonical is
    returned as it is.
    """
    if program.canonical:
        return program
    canonical: dict[tuple, ops.Op] = {}
    replacement: dict[int, ops.Op] = {}

    for node in program:
        new_inputs = tuple(replacement[id(child)] for child in node.inputs())
        key = (node.structural_key(), tuple(map(id, new_inputs)))
        if key in canonical and not isinstance(node, ops.Persist):
            replacement[id(node)] = canonical[key]
        else:
            rebuilt = clone_with_inputs(node, new_inputs)
            canonical[key] = rebuilt
            replacement[id(node)] = rebuilt

    merged = Program({name: replacement[id(node)] for name, node in program.outputs.items()})
    merged.canonical = True
    return merged


def optimize(program: Program) -> Program:
    """The default pass pipeline used by :func:`repro.compiler.compile_program`."""
    return cse(program)
