"""Voodoo programs: DAGs of operator nodes with named outputs.

A :class:`Program` owns a set of output nodes (usually ``Persist`` ops) and
provides the structural services every backend needs: topological order,
reachability and validation.

Operator nodes use *identity* semantics (two structurally identical nodes
are distinct objects unless interned), so graph algorithms are linear in
DAG size.  The :class:`Interner` gives structural sharing when a node is
made — the one hash-consing (the paper's common-subexpression sharing,
section 2, "Minimal"): every :class:`~repro.core.builder.Builder` node
passes through it, so a built program has no two structurally identical
nodes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core import ops
from repro.errors import ProgramError


class Interner:
    """Hash-consing table: structurally identical nodes become one object."""

    def __init__(self) -> None:
        self._table: dict[tuple, ops.Op] = {}

    def intern(self, node: ops.Op) -> ops.Op:
        """The canonical node for *node*'s structure (*node* itself when
        it is the first of its kind), by the key and inputs the node
        split off its fields when it was made."""
        return self._table.setdefault((node._key, tuple(map(id, node._inputs))), node)

    def __len__(self) -> int:
        return len(self._table)


def topological_order(roots: Iterable[ops.Op]) -> list[ops.Op]:
    """All reachable nodes, inputs before consumers (deterministic: a
    depth-first post-order, inputs in declaration order)."""
    order: list[ops.Op] = []
    #: id -> whether the node is finished (False: on the current path)
    done: dict[int, bool] = {}
    for root in roots:
        if id(root) in done:
            continue
        done[id(root)] = False
        # iterative, to survive deep programs without hitting the
        # recursion limit; each frame resumes its node's inputs
        stack = [(root, iter(root._inputs))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                finished = done.get(id(child))
                if finished is None:
                    done[id(child)] = False
                    stack.append((child, iter(child._inputs)))
                    break
                if not finished:
                    raise ProgramError(f"cycle detected through {child.opname}")
            else:
                stack.pop()
                done[id(node)] = True
                order.append(node)
    return order


class Program:
    """An executable Voodoo program: named outputs over a shared DAG."""

    def __init__(self, outputs: dict[str, ops.Op]):
        if not outputs:
            raise ProgramError("a program needs at least one output")
        self.outputs = dict(outputs)
        self.order = topological_order(self.outputs.values())
        #: state executors derive from this program and want back on the
        #: next run (virtual-scatter set, planned nodes, partition plan).
        #: It lives and dies with the program — a plan evicted from an
        #: engine's cache takes all of it along.  Publish only
        #: fully built values, in one ``setdefault`` or item assignment:
        #: concurrent runs may both build, but must agree on what they read.
        self.memo: dict = {}
        self.validate()

    # -- structure ----------------------------------------------------------

    def __iter__(self) -> Iterator[ops.Op]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def loads(self) -> list[ops.Load]:
        return [n for n in self.order if isinstance(n, ops.Load)]

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Structural invariants beyond what node constructors enforce."""
        names = set()
        for node in self.order:
            if isinstance(node, ops.Persist):
                if node.name in names:
                    raise ProgramError(f"duplicate Persist name {node.name!r}")
                names.add(node.name)
        for name, node in self.outputs.items():
            if not isinstance(node, ops.Op):
                raise ProgramError(f"output {name!r} is not an operator node")

    def __repr__(self) -> str:
        return f"Program({len(self.order)} ops, outputs={list(self.outputs)})"

