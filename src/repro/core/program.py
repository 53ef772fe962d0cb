"""Voodoo programs: DAGs of operator nodes with named outputs.

A :class:`Program` owns a set of output nodes (usually ``Persist`` ops) and
provides the structural services every backend needs: topological order,
reachability, consumer counts, validation, and hash-consed construction
(the paper's common-subexpression sharing — section 2, "Minimal").

Operator nodes use *identity* semantics (two structurally identical nodes
are distinct objects unless interned), so graph algorithms are linear in
DAG size.  The :class:`Interner` gives structural sharing at build time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

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

    def owns(self, nodes: Iterable[ops.Op]) -> bool:
        """True when every one of *nodes* is a canonical object of this
        table — then no two of them are structurally identical."""
        canonical = set(map(id, self._table.values()))
        return all(id(node) in canonical for node in nodes)

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
        #: set by whoever knows that no two nodes are structurally
        #: identical (a Builder that hash-consed them all, the CSE pass):
        #: the optimizer then has nothing to merge
        self.canonical = False
        self._consumers: dict[int, int] | None = None
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

    def consumers(self, node: ops.Op) -> int:
        """How many operator inputs and program outputs reference *node*
        (DAG fan-out; counted on first use, once per program)."""
        if self._consumers is None:
            counts: dict[int, int] = {}
            for reader in self.order:
                for child in reader.inputs():
                    counts[id(child)] = counts.get(id(child), 0) + 1
            for out in self.outputs.values():
                counts[id(out)] = counts.get(id(out), 0) + 1
            self._consumers = counts
        return self._consumers.get(id(node), 0)

    def is_shared(self, node: ops.Op) -> bool:
        return self.consumers(node) > 1

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

    # -- rewriting ---------------------------------------------------------------

    def rewrite(self, fn: Callable[[ops.Op, tuple[ops.Op, ...]], ops.Op | None]) -> "Program":
        """Bottom-up rewriting.

        *fn* receives each node plus its (already rewritten) inputs and
        returns a replacement node or ``None`` to keep a copy with the new
        inputs.  Used by the optimizer passes.
        """
        replacement: dict[int, ops.Op] = {}
        for node in self.order:
            new_inputs = tuple(replacement[id(i)] for i in node.inputs())
            result = fn(node, new_inputs)
            if result is None:
                result = clone_with_inputs(node, new_inputs)
            replacement[id(node)] = result
        return Program({name: replacement[id(node)] for name, node in self.outputs.items()})

    def __repr__(self) -> str:
        return f"Program({len(self.order)} ops, outputs={list(self.outputs)})"


def clone_with_inputs(node: ops.Op, new_inputs: tuple[ops.Op, ...]) -> ops.Op:
    """Copy *node* with its input nodes replaced positionally."""
    old_inputs = node.inputs()
    if len(old_inputs) != len(new_inputs):
        raise ProgramError(
            f"{node.opname}: expected {len(old_inputs)} inputs, got {len(new_inputs)}"
        )
    if all(a is b for a, b in zip(old_inputs, new_inputs)):
        return node
    mapping = {id(old): new for old, new in zip(old_inputs, new_inputs)}
    kwargs: dict[str, object] = {}
    for name, kind in node.layout():
        value = getattr(node, name)
        kwargs[name] = mapping[id(value)] if kind == ops.INPUT and value is not None else value
    return type(node)(**kwargs)
