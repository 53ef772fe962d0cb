"""Relational plan algebra.

These nodes play the role of MonetDB's relational algebra in the paper's
architecture (Figure 2): the SQL frontend (or the hand-written TPC-H
plans) produces them, and :mod:`repro.relational.translate` lowers them to
Voodoo.  Join order and un-nesting are the plan author's job, mirroring
the paper's "Voodoo inherits the logical optimizations MonetDB applied".

Join strategy notes (paper section 4 / 5.2): equi-joins use *identity
hashing over open hash tables sized from the key domain* — a dense
direct-addressed table built with ``Scatter`` and probed with ``Gather``.
When the build side is a base table whose key column is dense, sorted and
unique (a surrogate pk), the table *is* the index and the build phase
disappears ("indexed foreign-key join", the paper's positional lookup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import TranslationError
from repro.relational.expressions import Expr, Node


class Plan(Node):
    """Base class for relational plan nodes: immutable values that key
    themselves when built (see :class:`~repro.relational.expressions.Node`)."""

    def filter(self, pred: Expr) -> "Filter":
        return Filter(self, pred)

    def map(self, **cols: Expr) -> "Map":
        return Map(self, cols)


@dataclass(frozen=True, eq=False)
class Scan(Plan):
    """Scan a base table (all columns visible by name)."""

    table: str


@dataclass(frozen=True, eq=False)
class Filter(Plan):
    """Keep rows satisfying *pred* (non-qualifying rows become ε)."""

    child: Plan
    pred: Expr


@dataclass(frozen=True, eq=False)
class Map(Plan):
    """Attach computed columns; existing columns stay visible."""

    child: Plan
    cols: Mapping[str, Expr]


@dataclass(frozen=True, eq=False)
class Join(Plan):
    """Equi-join pulling *pull* columns from the build side into the child.

    ``fact_key``/``dim_key`` are expressions over the probe/build side;
    ``domain`` bounds the direct-addressed table (from catalog stats).
    ``offset`` is subtracted from both keys before indexing.
    Missing matches produce ε rows (inner-join semantics via masks).
    """

    child: Plan
    build: Plan
    fact_key: Expr
    dim_key: Expr
    pull: Mapping[str, str]         # output name -> build-side column
    domain: int
    offset: int = 0

    def _check(self) -> None:
        if self.domain <= 0:
            raise TranslationError(f"Join domain must be positive, got {self.domain}")
        if not self.pull:
            raise TranslationError("Join must pull at least one column")


@dataclass(frozen=True, eq=False)
class SemiJoin(Plan):
    """EXISTS / NOT EXISTS: keep child rows with (no) build-side match."""

    child: Plan
    build: Plan
    fact_key: Expr
    dim_key: Expr
    domain: int
    offset: int = 0
    negated: bool = False

    def _check(self) -> None:
        if self.domain <= 0:
            raise TranslationError(f"SemiJoin domain must be positive, got {self.domain}")


@dataclass(frozen=True, eq=False)
class KeySpec(Node):
    """One group-by key: a named expression with its integer domain."""

    name: str
    expr: Expr
    card: int        # number of distinct values the (shifted) key can take
    offset: int = 0  # subtract before linearization

    def _check(self) -> None:
        if self.card <= 0:
            raise TranslationError(f"key {self.name!r}: card must be positive")


@dataclass(frozen=True, eq=False)
class AggSpec(Node):
    """One aggregate: fn in sum/min/max/count/avg over an expression."""

    fn: str
    expr: Expr | None = None  # None only for count(*)

    VALID = ("sum", "min", "max", "count", "avg")

    def _check(self) -> None:
        if self.fn not in self.VALID:
            raise TranslationError(f"unknown aggregate {self.fn!r}")
        if self.fn != "count" and self.expr is None:
            raise TranslationError(f"aggregate {self.fn} needs an expression")


@dataclass(frozen=True, eq=False)
class GroupBy(Plan):
    """Grouped aggregation via Partition → (virtual) Scatter → Folds.

    ``keys`` linearize into a single group id (row-major over their
    cards); ``carry`` lists columns functionally determined by the keys to
    surface in the output (extracted with FoldMax, keeping the scatter
    virtual — paper Figure 11).  No keys = global aggregation, lowered to
    the paper's hierarchical fold (Figure 3).
    """

    child: Plan
    keys: tuple[KeySpec, ...]
    aggs: Mapping[str, AggSpec]
    carry: tuple[str, ...] = ()
    #: intent of the partial-aggregation control vector for global folds
    grain: int = 4096

    def _check(self) -> None:
        if not self.aggs:
            raise TranslationError("GroupBy needs at least one aggregate")


@dataclass(frozen=True, eq=False)
class Query(Node):
    """A complete query: plan + presentation (applied outside Voodoo).

    The paper omitted order-by/limit in Voodoo (section 5.2); they are
    post-processing over the (small) result here as well.  A query is a
    value: its hash and equality are its structure's (the plan-cache key)
    and ``param_names`` lists its bind slots, both computed when it is
    built.
    """

    plan: Plan
    select: tuple[str, ...]
    order_by: tuple[tuple[str, bool], ...] = ()  # (col, desc)
    limit: int | None = None
    #: column name -> (table, column) for dictionary decoding of codes
    decode: Mapping[str, tuple[str, str]] = field(default_factory=dict)

    def _check(self) -> None:
        limit = self.limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise TranslationError(f"limit must be a non-negative int, got {limit!r}")
