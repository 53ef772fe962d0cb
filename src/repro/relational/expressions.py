"""Scalar expression language for relational plans.

Expressions are evaluated row-wise over a relation's visible columns and
translate mechanically to Voodoo's element-wise operators.  Notable
translations:

* ``IfThenElse`` compiles to predication (``cond*then + (1-cond)*else``) —
  no control flow, exactly the paper's determinism principle;
* ``InSet`` over a few values becomes a chain of ``Equals``/``LogicalOr``;
* ``Membership`` probes a pre-built boolean table with a ``Gather`` (how
  LIKE predicates over dictionary-encoded strings are executed);
* ``ScalarOf`` embeds a scalar subquery: the sub-plan is translated into
  the same program DAG and its single result broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.algebra import Plan

_INTEGERS = (bool, int, np.bool_, np.integer)


@cache
def node_fields(cls: type) -> tuple[str, ...]:
    """Field names of a plan/expression node class in declaration order,
    reflected once per class."""
    return tuple(f.name for f in fields(cls))


def _merged(first: tuple[str, ...], second: tuple[str, ...]) -> tuple[str, ...]:
    """*first*, then the names of *second* it lacks."""
    return first + tuple(name for name in second if name not in first) if first else second


def _frozen(value) -> tuple[object, object, tuple[str, ...]]:
    """``(value, key, Param names)`` of one field value.  Lists become
    tuples and dicts read-only copies; a node or a string keys as itself;
    numbers key by type and value — floats by type and repr, which keeps
    0.0 and -0.0 apart (and a NaN equal to a NaN of its type) — so 1,
    1.0, True and the NumPy scalar types key apart; arrays key by dtype,
    shape and bytes."""
    if isinstance(value, Node):
        return value, value, value.param_names
    kind = type(value)
    if value is None or kind is str:
        return value, value, ()
    if isinstance(value, _INTEGERS):
        return value, (kind, value), ()
    if isinstance(value, (float, np.floating)):
        return value, (kind, repr(value)), ()
    if kind is dict or kind is MappingProxyType:
        items, key, names = _frozen(tuple(value.items()))
        return MappingProxyType(dict(items)), ("map", key), names
    if kind is list or kind is tuple:
        frozen: list = []
        key: list = ["seq"]
        names: tuple[str, ...] = ()
        for item in value:
            item, item_key, found = (item, item, ()) if type(item) is str else _frozen(item)
            frozen.append(item)
            key.append(item_key)
            if found:
                names = _merged(names, found)
        return tuple(frozen), tuple(key), names
    if isinstance(value, np.ndarray):
        return value, ("ndarray", value.dtype.str, value.shape, value.tobytes()), ()
    if isinstance(value, (frozenset, bytes)):
        return value, (kind, value), ()
    return value, ("repr", repr(value)), ()


class Node:
    """A plan or expression node: an immutable value.

    Construction checks the node (:meth:`_check`), freezes its lists and
    dicts (tuples, read-only mappings) and computes, from its children's,
    the two things every query-level cache needs: its structural key —
    the node type and its fields in declaration order, each child keyed
    by the child itself — with the key's hash, and ``param_names``, the
    :class:`Param` bind slots below it in discovery order.  Equality and
    hashing are the key's, so two independently built but structurally
    identical queries are equal, and hashing one is O(1) however deep it
    is.
    """

    def __post_init__(self) -> None:
        self._check()
        state = self.__dict__  # read and written directly: this runs per node built
        key: list[object] = [type(self).__name__]
        names: tuple[str, ...] = ()
        for name in node_fields(type(self)):
            value = state[name]
            if type(value) is str or value is None:
                key.append(value)
            elif isinstance(value, Node):
                key.append(value)
                if value.param_names:
                    names = _merged(names, value.param_names)
            else:
                state[name], field_key, found = _frozen(value)
                key.append(field_key)
                if found:
                    names = _merged(names, found)
        state["_key"] = key_tuple = tuple(key)
        state["_hash"] = hash(key_tuple)
        state["param_names"] = names

    def _check(self) -> None:
        """Reject an invalid node (raise); nothing to check by default."""

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self)
            and self._hash == other._hash  # type: ignore[attr-defined]
            and self._key == other._key  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return self._hash


ARITH_OPS = frozenset({"add", "sub", "mul", "div", "idiv", "mod"})
CMP_OPS = frozenset({"gt", "ge", "lt", "le", "eq", "ne"})


class Expr(Node):
    """Base class for scalar expressions."""

    # operator sugar --------------------------------------------------------
    def __add__(self, other) -> "Expr":
        return Arith("add", self, wrap(other))

    def __sub__(self, other) -> "Expr":
        return Arith("sub", self, wrap(other))

    def __mul__(self, other) -> "Expr":
        return Arith("mul", self, wrap(other))

    def __truediv__(self, other) -> "Expr":
        return Arith("div", self, wrap(other))

    def __floordiv__(self, other) -> "Expr":
        return Arith("idiv", self, wrap(other))

    def __mod__(self, other) -> "Expr":
        return Arith("mod", self, wrap(other))

    def __gt__(self, other) -> "Expr":
        return Cmp("gt", self, wrap(other))

    def __ge__(self, other) -> "Expr":
        return Cmp("ge", self, wrap(other))

    def __lt__(self, other) -> "Expr":
        return Cmp("lt", self, wrap(other))

    def __le__(self, other) -> "Expr":
        return Cmp("le", self, wrap(other))

    def eq(self, other) -> "Expr":
        return Cmp("eq", self, wrap(other))

    def ne(self, other) -> "Expr":
        return Cmp("ne", self, wrap(other))

    def __and__(self, other) -> "Expr":
        return And(self, wrap(other))

    def __or__(self, other) -> "Expr":
        return Or(self, wrap(other))

    def __invert__(self) -> "Expr":
        return Not(self)

    def between(self, lo, hi) -> "Expr":
        return (self >= wrap(lo)) & (self <= wrap(hi))


def wrap(value) -> Expr:
    """Coerce Python literals into :class:`Lit`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return Lit(value)
    raise TypeError(f"cannot use {value!r} in a relational expression")


@dataclass(frozen=True, eq=False)
class Col(Expr):
    """Reference to a visible column of the current relation."""

    name: str


@dataclass(frozen=True, eq=False)
class Lit(Expr):
    """A numeric/boolean literal (dates are encoded as int days upstream)."""

    value: int | float | bool


@dataclass(frozen=True, eq=False)
class Param(Expr):
    """A literal bind slot of a prepared query (``:name`` in SQL).

    Stands where a :class:`Lit` would; binding (``PreparedQuery.bind`` /
    ``execute(name=value)``) substitutes the value before translation.
    Reaching the translator unbound is an error — a parameterized query
    must be executed through its prepared form.
    """

    name: str

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "param_names", (self.name,))


@dataclass(frozen=True, eq=False)
class Arith(Expr):
    """Arithmetic; ``div`` promotes integer operands to float (SQL
    semantics), ``idiv`` is integer floor division (date/year math)."""

    op: str
    left: Expr
    right: Expr

    def _check(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic op {self.op!r}")


@dataclass(frozen=True, eq=False)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def _check(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")


@dataclass(frozen=True, eq=False)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False)
class InSet(Expr):
    """Membership in a small literal set (unrolled to Equals/Or chains)."""

    operand: Expr
    values: tuple

    def _check(self) -> None:
        if not self.values:
            raise ValueError("InSet needs at least one value")


@dataclass(frozen=True, eq=False)
class Membership(Expr):
    """Probe of a pre-built boolean table (``aux`` vector in the store).

    ``table[operand - offset]`` — how IN/LIKE over large code sets execute
    (a Gather into a dense membership vector).
    """

    operand: Expr
    aux_name: str
    offset: int = 0


@dataclass(frozen=True, eq=False)
class IfThenElse(Expr):
    """Predicated conditional: ``cond*then + (1-cond)*otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True, eq=False)
class Cast(Expr):
    operand: Expr
    dtype: str


@dataclass(frozen=True, eq=False)
class ScalarOf(Expr):
    """The single value of column *column* of a one-row sub-plan.

    Used for scalar subqueries (Q11's HAVING threshold, Q15's max
    revenue): the sub-plan is translated into the same Voodoo program and
    its first present row broadcast into the outer expression.
    """

    plan: "Plan"
    column: str


def columns_used(expr: Expr) -> set[str]:
    """All column names referenced by an expression tree (a scalar
    subquery's plan references none of the outer relation's)."""
    found: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is Col:
            found.add(node.name)
            continue
        stack += [child for name in node_fields(type(node))
                  if isinstance(child := getattr(node, name), Expr)]
    return found
