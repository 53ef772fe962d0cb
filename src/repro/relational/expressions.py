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

from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.algebra import Plan



@cache
def node_fields(cls: type) -> tuple[str, ...] | None:
    """Field names of a plan/expression node class in declaration order,
    reflected once per class; ``None`` for every other type.  What the
    walkers over query trees (structural fingerprint, parameter
    discovery, binding) consult per node instead of ``dataclasses.fields``."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


ARITH_OPS = frozenset({"add", "sub", "mul", "div", "idiv", "mod"})
CMP_OPS = frozenset({"gt", "ge", "lt", "le", "eq", "ne"})


class Expr:
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


@dataclass(frozen=True)
class Col(Expr):
    """Reference to a visible column of the current relation."""

    name: str


@dataclass(frozen=True)
class Lit(Expr):
    """A numeric/boolean literal (dates are encoded as int days upstream)."""

    value: int | float | bool


@dataclass(frozen=True)
class Param(Expr):
    """A literal bind slot of a prepared query (``:name`` in SQL).

    Stands where a :class:`Lit` would; binding (``PreparedQuery.bind`` /
    ``execute(name=value)``) substitutes the value before translation.
    Reaching the translator unbound is an error — a parameterized query
    must be executed through its prepared form.
    """

    name: str


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic; ``div`` promotes integer operands to float (SQL
    semantics), ``idiv`` is integer floor division (date/year math)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic op {self.op!r}")


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class InSet(Expr):
    """Membership in a small literal set (unrolled to Equals/Or chains)."""

    operand: Expr
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("InSet needs at least one value")


@dataclass(frozen=True)
class Membership(Expr):
    """Probe of a pre-built boolean table (``aux`` vector in the store).

    ``table[operand - offset]`` — how IN/LIKE over large code sets execute
    (a Gather into a dense membership vector).
    """

    operand: Expr
    aux_name: str
    offset: int = 0


@dataclass(frozen=True)
class IfThenElse(Expr):
    """Predicated conditional: ``cond*then + (1-cond)*otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    dtype: str


@dataclass(frozen=True)
class ScalarOf(Expr):
    """The single value of column *column* of a one-row sub-plan.

    Used for scalar subqueries (Q11's HAVING threshold, Q15's max
    revenue): the sub-plan is translated into the same Voodoo program and
    its first present row broadcast into the outer expression.
    """

    plan: "Plan"
    column: str

    def __hash__(self) -> int:  # Plan is unhashable; identity suffices
        return hash((id(self.plan), self.column))


def columns_used(expr: Expr) -> set[str]:
    """All column names referenced by an expression tree."""
    out: set[str] = set()

    def visit(e: Expr) -> None:
        if isinstance(e, Col):
            out.add(e.name)
        elif isinstance(e, (Arith, Cmp, And, Or)):
            visit(e.left)
            visit(e.right)
        elif isinstance(e, Not):
            visit(e.operand)
        elif isinstance(e, (InSet, Membership, Cast)):
            visit(e.operand)
        elif isinstance(e, IfThenElse):
            visit(e.cond)
            visit(e.then)
            visit(e.otherwise)
        # Lit, Param, ScalarOf: no outer columns

    visit(expr)
    return out
