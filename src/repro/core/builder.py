"""Fluent construction API for Voodoo programs.

Mirrors the paper's SSA notation (Figure 3):

    b = Builder({"input": Schema({".val": "f4"})})
    inp = b.load("input")
    ids = b.range(inp)
    pids = b.divide(ids, b.constant(1024))
    part = b.scatter(inp.zip(pids), b.partition(pids))
    psum = b.fold_sum(part, agg_kp=".val", fold_kp=".id")
    total = b.fold_sum(psum)
    program = b.build(total=total)

Keypath arguments default sensibly: when a vector has exactly one
attribute, it is used; every operator's output attribute has a
conventional default (``.val``, ``.pos``, …).  All nodes are hash-consed
through an :class:`~repro.core.program.Interner`, so structurally identical
subexpressions are shared (common-subexpression elimination by
construction — the paper's "Minimal" design principle), and typed when
they are made: an ill-typed node raises :class:`~repro.errors.TypeCheckError`
where it is built.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core import ops
from repro.core.keypath import Keypath, kp
from repro.core.program import Interner, Program
from repro.core.schema import Schema
from repro.core.typecheck import TypeChecker
from repro.errors import ProgramError

VAL = Keypath(["val"])
POS = Keypath(["pos"])
ID = Keypath(["id"])
COUNT = Keypath(["count"])


class V:
    """A handle to an operator node and its schema (inferred when the node
    was made), with sugar for chained construction."""

    __slots__ = ("node", "schema", "_builder")

    def __init__(self, node: ops.Op, schema: Schema, builder: "Builder"):
        self.node = node
        self.schema = schema
        self._builder = builder

    def only_attr(self) -> Keypath:
        """The single attribute of this vector (error if ambiguous)."""
        paths = self.schema.paths()
        if len(paths) != 1:
            raise ProgramError(
                f"vector has {len(paths)} attributes {list(map(str, paths))}; "
                "specify a keypath explicitly"
            )
        return paths[0]

    # -- chained sugar, delegating to the builder -------------------------

    def zip(self, other: "V", **kwargs) -> "V":
        return self._builder.zip(self, other, **kwargs)

    def project(self, path, out=None) -> "V":
        return self._builder.project(self, path, out=out)

    def __add__(self, other: "V") -> "V":
        return self._builder.add(self, other)

    def __sub__(self, other: "V") -> "V":
        return self._builder.subtract(self, other)

    def __mul__(self, other: "V") -> "V":
        return self._builder.multiply(self, other)

    def __floordiv__(self, other: "V") -> "V":
        return self._builder.divide(self, other)

    def __truediv__(self, other: "V") -> "V":
        return self._builder.divide(self, other)

    def __mod__(self, other: "V") -> "V":
        return self._builder.modulo(self, other)

    def __and__(self, other: "V") -> "V":
        return self._builder.logical_and(self, other)

    def __or__(self, other: "V") -> "V":
        return self._builder.logical_or(self, other)

    def __gt__(self, other: "V") -> "V":
        return self._builder.greater(self, other)

    def __ge__(self, other: "V") -> "V":
        return self._builder.greater_equal(self, other)

    def __lt__(self, other: "V") -> "V":
        return self._builder.less(self, other)

    def __le__(self, other: "V") -> "V":
        return self._builder.less_equal(self, other)

    def __repr__(self) -> str:
        return f"V({self.node.opname})"


def _dtype_for_literal(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, np.integer)):
        return "int64"
    if isinstance(value, (float, np.floating)):
        return "float64"
    raise ProgramError(f"cannot infer a dtype for constant {value!r}")


class Builder:
    """Constructs hash-consed Voodoo programs against known load schemas."""

    def __init__(self, load_schemas: Mapping[str, Schema] | None = None):
        self._interner = Interner()
        self._checker = TypeChecker(load_schemas or {})
        self._outputs: dict[str, ops.Op] = {}

    # -- plumbing -----------------------------------------------------------

    def _wrap(self, node: ops.Op) -> V:
        """Intern *node* and type the canonical node (a fresh one now, a
        shared one was typed when it was made): every node of the builder
        is made — keyed, interned, typed — in one pass."""
        canonical = self._interner.intern(node)
        return V(canonical, self._checker.schema_of(canonical), self)

    def _coerce(self, value) -> V:
        """Accept V handles or Python literals (auto-wrapped as Constant)."""
        if isinstance(value, V):
            return value
        return self.constant(value)

    def _pick(self, v: V, path) -> Keypath:
        return kp(path) if path is not None else v.only_attr()

    # -- maintenance -----------------------------------------------------------

    def load(self, name: str) -> V:
        return self._wrap(ops.Load(name=name))

    def persist(self, name: str, source: V) -> V:
        return self._wrap(ops.Persist(name=name, source=source.node))

    # -- shape --------------------------------------------------------------------

    def range(self, sizeref: "V | int", start: int = 0, step: int = 1, out=ID) -> V:
        """``Range``: ids 0..n-1 (by default) sized like *sizeref*."""
        if isinstance(sizeref, V):
            node = ops.Range(out=kp(out), start=start, sizeref=sizeref.node, size=None, step=step)
        else:
            node = ops.Range(out=kp(out), start=start, sizeref=None, size=int(sizeref), step=step)
        return self._wrap(node)

    def constant(self, value, dtype: str | None = None, out=VAL) -> V:
        dtype = dtype or _dtype_for_literal(value)
        return self._wrap(ops.Constant(out=kp(out), value=value, dtype=dtype))

    def cross(self, left: V, right: V, kp1=".pos1", kp2=".pos2") -> V:
        return self._wrap(ops.Cross(kp1=kp(kp1), left=left.node, kp2=kp(kp2), right=right.node))

    # -- element-wise ----------------------------------------------------------------

    def _binary(self, fn: str, left, right, out, left_kp, right_kp) -> V:
        left, right = self._coerce(left), self._coerce(right)
        node = ops.Binary(
            fn=fn,
            out=kp(out),
            left=left.node,
            left_kp=self._pick(left, left_kp),
            right=right.node,
            right_kp=self._pick(right, right_kp),
        )
        return self._wrap(node)

    def add(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Add", l, r, out, left_kp, right_kp)

    def subtract(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Subtract", l, r, out, left_kp, right_kp)

    def multiply(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Multiply", l, r, out, left_kp, right_kp)

    def divide(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Divide", l, r, out, left_kp, right_kp)

    def modulo(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Modulo", l, r, out, left_kp, right_kp)

    def bitshift(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("BitShift", l, r, out, left_kp, right_kp)

    def logical_and(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("LogicalAnd", l, r, out, left_kp, right_kp)

    def logical_or(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("LogicalOr", l, r, out, left_kp, right_kp)

    def greater(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Greater", l, r, out, left_kp, right_kp)

    def greater_equal(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("GreaterEqual", l, r, out, left_kp, right_kp)

    def less(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Less", l, r, out, left_kp, right_kp)

    def less_equal(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("LessEqual", l, r, out, left_kp, right_kp)

    def equals(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("Equals", l, r, out, left_kp, right_kp)

    def not_equals(self, l, r, out=VAL, left_kp=None, right_kp=None) -> V:
        return self._binary("NotEquals", l, r, out, left_kp, right_kp)

    def logical_not(self, v: V, out=VAL, source_kp=None) -> V:
        return self._wrap(
            ops.Unary(
                fn="LogicalNot", out=kp(out), source=v.node, source_kp=self._pick(v, source_kp)
            )
        )

    def negate(self, v: V, out=VAL, source_kp=None) -> V:
        return self._wrap(
            ops.Unary(fn="Negate", out=kp(out), source=v.node, source_kp=self._pick(v, source_kp))
        )

    def is_present(self, v: V, out=VAL, source_kp=None) -> V:
        return self._wrap(
            ops.Unary(
                fn="IsPresent", out=kp(out), source=v.node, source_kp=self._pick(v, source_kp)
            )
        )

    def cast(self, v: V, dtype: str, out=VAL, source_kp=None) -> V:
        return self._wrap(
            ops.Unary(
                fn="Cast", out=kp(out), source=v.node,
                source_kp=self._pick(v, source_kp), dtype=dtype,
            )
        )

    # -- structural ------------------------------------------------------------------

    def zip(self, left: V, right: V, out1=None, kp1=None, out2=None, kp2=None) -> V:
        """Zip two vectors; omitted keypaths carry all attributes through."""
        node = ops.Zip(
            out1=kp(out1) if out1 is not None else None,
            left=left.node,
            kp1=kp(kp1) if kp1 is not None else None,
            out2=kp(out2) if out2 is not None else None,
            right=right.node,
            kp2=kp(kp2) if kp2 is not None else None,
        )
        return self._wrap(node)

    def project(self, v: V, path, out=None) -> V:
        path = kp(path)
        out = kp(out) if out is not None else Keypath([path.leaf])
        return self._wrap(ops.Project(out=out, source=v.node, kp=path))

    def upsert(self, target: V, out, value: V, value_kp=None) -> V:
        return self._wrap(
            ops.Upsert(
                target=target.node, out=kp(out), value=value.node,
                kp=self._pick(value, value_kp),
            )
        )

    def gather(self, source: V, positions: V, pos_kp=None) -> V:
        return self._wrap(
            ops.Gather(
                source=source.node, positions=positions.node,
                pos_kp=self._pick(positions, pos_kp),
            )
        )

    def scatter(self, data: V, positions: V, pos_kp=None,
                sizeref: V | None = None, run_kp=None) -> V:
        return self._wrap(
            ops.Scatter(
                data=data.node,
                positions=positions.node,
                pos_kp=self._pick(positions, pos_kp),
                sizeref=sizeref.node if sizeref is not None else None,
                run_kp=kp(run_kp) if run_kp is not None else None,
            )
        )

    def materialize(self, v: V, control: V | None = None, control_kp=None) -> V:
        return self._wrap(
            ops.Materialize(
                source=v.node,
                control=control.node if control is not None else None,
                control_kp=(
                    self._pick(control, control_kp) if control is not None else None
                ),
            )
        )

    def break_(self, v: V, control: V | None = None, control_kp=None) -> V:
        return self._wrap(
            ops.Break(
                source=v.node,
                control=control.node if control is not None else None,
                kp=self._pick(control, control_kp) if control is not None else None,
            )
        )

    def partition(self, source: V, pivots: V, kp_=None, pivot_kp=None, out=POS) -> V:
        return self._wrap(
            ops.Partition(
                out=kp(out),
                source=source.node,
                kp=self._pick(source, kp_),
                pivots=pivots.node,
                pivot_kp=self._pick(pivots, pivot_kp),
            )
        )

    # -- folds -----------------------------------------------------------------------

    def fold_select(self, v: V, sel_kp=None, fold_kp=None, out=POS) -> V:
        return self._wrap(
            ops.FoldSelect(
                source=v.node,
                fold_kp=kp(fold_kp) if fold_kp is not None else None,
                out=kp(out),
                sel_kp=self._pick(v, sel_kp),
            )
        )

    def _fold_agg(self, fn: str, v: V, agg_kp, fold_kp, out) -> V:
        return self._wrap(
            ops.FoldAggregate(
                source=v.node,
                fold_kp=kp(fold_kp) if fold_kp is not None else None,
                fn=fn,
                out=kp(out),
                agg_kp=self._pick(v, agg_kp),
            )
        )

    def fold_sum(self, v: V, agg_kp=None, fold_kp=None, out=VAL) -> V:
        return self._fold_agg("sum", v, agg_kp, fold_kp, out)

    def fold_max(self, v: V, agg_kp=None, fold_kp=None, out=VAL) -> V:
        return self._fold_agg("max", v, agg_kp, fold_kp, out)

    def fold_min(self, v: V, agg_kp=None, fold_kp=None, out=VAL) -> V:
        return self._fold_agg("min", v, agg_kp, fold_kp, out)

    def fold_scan(self, v: V, s_kp=None, fold_kp=None, out=VAL, inclusive: bool = True) -> V:
        return self._wrap(
            ops.FoldScan(
                source=v.node,
                fold_kp=kp(fold_kp) if fold_kp is not None else None,
                out=kp(out),
                s_kp=self._pick(v, s_kp),
                inclusive=inclusive,
            )
        )

    def fold_count(self, v: V, counted_kp=None, fold_kp=None, out=COUNT) -> V:
        return self._wrap(
            ops.FoldCount(
                source=v.node,
                fold_kp=kp(fold_kp) if fold_kp is not None else None,
                out=kp(out),
                counted_kp=kp(counted_kp) if counted_kp is not None else None,
            )
        )

    # -- finish ------------------------------------------------------------------------

    def build(self, **outputs: V) -> Program:
        """Finalize into a :class:`Program` with the given named outputs."""
        if not outputs and not self._outputs:
            raise ProgramError("build() needs at least one named output")
        nodes = dict(self._outputs)
        nodes.update({name: v.node for name, v in outputs.items()})
        program = Program(nodes)
        # every node hash-consed here: CSE by construction (handles of
        # another builder can smuggle in structural twins)
        program.canonical = self._interner.owns(program.order)
        return program
