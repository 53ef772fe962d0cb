"""Seeded random relational-query generation over generated schemas.

Given the :class:`~repro.testing.datagen.StoreInfo` describing a random
database, this module emits *valid* :mod:`repro.relational.algebra`
plans: nested boolean/arithmetic filter predicates, computed columns,
equi-joins and semi-joins against the dim tables, and global or
multi-key grouped aggregation, under an optional ORDER BY and LIMIT —
the full surface the TPC-H plans exercise, but over adversarial data and
in random combinations.

Validity invariants the generator maintains (everything else is free):

* group-by keys are direct column references with in-range
  ``(offset, card)`` bounds taken from the *actual generated data* (the
  Partition lowering assumes in-domain group ids);
* min/max/sum/avg aggregate inputs are numeric expressions (never raw
  booleans, whose dtype has no fold identity);
* output names never collide (``m*`` mapped, ``j*`` pulled, ``a*``
  aggregated columns; base columns keep their table-prefixed names);
* ORDER BY keys are selected columns with exact values: never a sum or
  an average, whose pairwise (oracle) and sequential (backend) float
  additions may order near-ties differently.

``generate_case(seed, index)`` is the single entry point: one
``(seed, index)`` pair deterministically yields one
:class:`~repro.testing.serialize.Case` (store + query + grain).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.relational.algebra import (
    AggSpec,
    Filter,
    GroupBy,
    Join,
    KeySpec,
    Map,
    Plan,
    Query,
    Scan,
    SemiJoin,
)
from repro.relational.expressions import (
    Arith,
    Cast,
    Cmp,
    Col,
    Expr,
    IfThenElse,
    InSet,
    Lit,
    Not,
    columns_used,
)
from repro.testing.datagen import ColInfo, StoreInfo, TableInfo, random_store
from repro.testing.serialize import Case

#: control-vector grains a case may run at (chunk boundaries at 3 are
#: the adversarial end; 4096 is the engine default)
GRAINS = (3, 5, 16, 64, 4096)

AGG_FNS = ("sum", "min", "max", "count", "avg")

#: a LIMIT past the end of any result (tables hold at most 320 rows)
PAST_THE_END = 1000


@dataclass
class _VCol:
    """One column visible at the current point of the plan pipeline."""

    name: str
    kind: str                    # "int" | "float" | "bool" | "str" | "num"
    lo: float = 0
    hi: float = 0
    groupable: bool = False
    origin: tuple[str, str] | None = None   # (table, column) for decoding

    @classmethod
    def of(cls, info: ColInfo, table: str) -> "_VCol":
        origin = (table, info.name) if info.kind == "str" else None
        return cls(info.name, info.kind, info.lo, info.hi, info.groupable, origin)

    def renamed(self, name: str) -> "_VCol":
        return _VCol(name, self.kind, self.lo, self.hi, self.groupable, self.origin)

    @property
    def card(self) -> int:
        return int(self.hi) - int(self.lo) + 1


class _QueryGen:
    def __init__(self, rng: np.random.Generator, info: StoreInfo):
        self.rng = rng
        self.info = info
        self.env: list[_VCol] = [_VCol.of(c, "fact") for c in info.fact.cols]
        self.fresh = 0

    # -- helpers ------------------------------------------------------------

    def _p(self, prob: float) -> bool:
        return bool(self.rng.random() < prob)

    def _choice(self, seq):
        return seq[int(self.rng.integers(0, len(seq)))]

    def _name(self, stem: str) -> str:
        self.fresh += 1
        return f"{stem}{self.fresh}"

    def _numeric(self) -> list[_VCol]:
        return [c for c in self.env if c.kind in ("int", "float", "num")]

    # -- literals -----------------------------------------------------------

    def _int_lit(self, near: _VCol | None = None) -> Lit:
        if near is not None and near.kind in ("int", "str"):
            lo, hi = int(near.lo) - 2, int(near.hi) + 2
            return Lit(int(self.rng.integers(lo, hi + 1)))
        return Lit(int(self.rng.integers(-10, 11)))

    def _float_lit(self, near: _VCol | None = None) -> Lit:
        if near is not None and near.kind == "float":
            span = max(1.0, near.hi - near.lo)
            value = self.rng.uniform(near.lo - 0.1 * span, near.hi + 0.1 * span)
        else:
            value = self.rng.uniform(-100.0, 100.0)
        return Lit(float(np.round(value, 3)))

    def _lit_for(self, col: _VCol) -> Lit:
        if col.kind == "float":
            return self._float_lit(col)
        return self._int_lit(col)

    # -- expressions --------------------------------------------------------

    def num_expr(self, depth: int) -> Expr:
        """A numeric (never plain-boolean) expression over the env."""
        numeric = self._numeric()
        if depth <= 0 or self._p(0.35):
            roll = self.rng.random()
            if numeric and roll < 0.7:
                return Col(self._choice(numeric).name)
            if roll < 0.85:
                return self._int_lit()
            return self._float_lit()
        roll = self.rng.random()
        if roll < 0.60:
            op = self._choice(["add", "sub", "mul", "div", "idiv", "mod"])
            return Arith(op, self.num_expr(depth - 1), self.num_expr(depth - 1))
        if roll < 0.75:
            return IfThenElse(self.bool_expr(depth - 1),
                              self.num_expr(depth - 1), self.num_expr(depth - 1))
        if roll < 0.90:
            return Cast(self.num_expr(depth - 1), "float64")
        bools = [c for c in self.env if c.kind == "bool"]
        if bools:
            return Cast(Col(self._choice(bools).name), "int64")
        return Cast(self.bool_expr(depth - 1), "int64")

    def bool_expr(self, depth: int) -> Expr:
        if depth <= 0 or self._p(0.3):
            return self._bool_leaf()
        roll = self.rng.random()
        left = self.bool_expr(depth - 1)
        if roll < 0.35:
            return left & self.bool_expr(depth - 1)
        if roll < 0.65:
            return left | self.bool_expr(depth - 1)
        if roll < 0.80:
            return Not(left)
        return self._bool_leaf()

    def _bool_leaf(self) -> Expr:
        candidates = [c for c in self.env if c.kind in ("int", "float", "str", "num")]
        bools = [c for c in self.env if c.kind == "bool"]
        roll = self.rng.random()
        if bools and roll < 0.15:
            return Col(self._choice(bools).name)
        if not candidates:
            return Lit(bool(self.rng.integers(0, 2)))
        col = self._choice(candidates)
        if col.kind == "str":
            if self._p(0.4):
                codes = self.rng.integers(int(col.lo), int(col.hi) + 2,
                                          size=int(self.rng.integers(1, 4)))
                return InSet(Col(col.name), tuple(int(c) for c in codes))
            op = self._choice(["eq", "ne", "le", "gt"])
            return Cmp(op, Col(col.name), self._int_lit(col))
        op = self._choice(["gt", "ge", "lt", "le", "eq", "ne"])
        if col.kind == "int" and self._p(0.15):
            codes = self.rng.integers(int(col.lo) - 1, int(col.hi) + 2,
                                      size=int(self.rng.integers(1, 5)))
            return InSet(Col(col.name), tuple(int(c) for c in codes))
        if self._p(0.25):
            return Cmp(op, self.num_expr(1), self.num_expr(1))
        return Cmp(op, Col(col.name), self._lit_for(col))

    # -- plan pipeline ------------------------------------------------------

    def build(self, grain: int) -> Query:
        plan: Plan = Scan("fact")
        for _ in range(int(self.rng.integers(0, 3))):
            plan = self._step(plan)
        for dim in self.info.dims:
            if self._p(0.55):
                plan = self._join(plan, dim)
        if self.info.dims and self._p(0.3):
            plan = self._semijoin(plan, self._choice(self.info.dims))
        for _ in range(int(self.rng.integers(0, 2))):
            plan = self._step(plan)
        if self._p(0.25):
            plan = self._edge_filter(plan)
        if self._p(0.55):
            query, inexact = self._group_query(plan, grain)
        else:
            query, inexact = self._projection_query(plan), set()
        return self._order_and_limit(query, inexact)

    def _step(self, plan: Plan) -> Plan:
        if self._p(0.45):
            return Filter(plan, self.bool_expr(int(self.rng.integers(1, 4))))
        cols = {}
        for _ in range(int(self.rng.integers(1, 3))):
            cols[self._name("m")] = self._rooted_num(int(self.rng.integers(1, 4)))
        for name in cols:
            self.env.append(_VCol(name, "num"))
        return Map(plan, cols)

    def _edge_filter(self, plan: Plan) -> Plan:
        """The selections an executor that stores ε-padded vectors
        compact is most likely to get wrong, placed right under the query
        head: one that keeps every row (the positions are the identity),
        one that keeps none (no slot is present), and one over a
        low-cardinality base column (a lazy RLE column under compressed
        storage)."""
        bounded = [c for c in self.env if c.kind in ("int", "str")]
        if not bounded:
            return plan
        col = self._choice(bounded)
        roll = self.rng.random()
        if roll < 0.35:
            pred: Expr = Cmp("ge", Col(col.name), Lit(int(col.lo) - 1))
        elif roll < 0.6:
            pred = Cmp("lt", Col(col.name), Lit(int(col.lo) - 1))
        else:
            col = self._choice([c for c in bounded if c.groupable] or bounded)
            pred = Cmp(self._choice(["le", "gt", "eq"]), Col(col.name), self._int_lit(col))
        return Filter(plan, pred)

    def _rooted_num(self, depth: int) -> Expr:
        """A numeric expression referencing at least one column.

        Column-free *mapped* columns would be dense attributes — present
        even on ε padding slots — which downstream operators cannot tell
        apart from live rows.  Column-free *aggregate* inputs stay in the
        generator's repertoire (the translator compacts for those).
        """
        numeric = self._numeric()
        for _ in range(8):
            expr = self.num_expr(depth)
            if not numeric or columns_used(expr):
                return expr
        return Col(self._choice(numeric).name)

    def _join(self, plan: Plan, dim: TableInfo) -> Plan:
        fk = f"fk{self.info.dims.index(dim)}"
        attrs = [c for c in dim.cols if c.name != dim.key] or list(dim.cols)
        pulls: dict[str, str] = {}
        for src in self.rng.permutation(len(attrs))[: int(self.rng.integers(1, 3))]:
            out = self._name("j")
            pulls[out] = attrs[int(src)].name
            self.env.append(_VCol.of(attrs[int(src)], dim.name).renamed(out))
        return Join(plan, Scan(dim.name), Col(fk), Col(dim.key), pulls,
                    domain=dim.key_domain, offset=dim.key_offset)

    def _semijoin(self, plan: Plan, dim: TableInfo) -> Plan:
        fk = f"fk{self.info.dims.index(dim)}"
        build: Plan = Scan(dim.name)
        if self._p(0.5):
            sub = _QueryGen(self.rng, self.info)
            sub.env = [_VCol.of(c, dim.name) for c in dim.cols]
            build = Filter(build, sub.bool_expr(2))
        return SemiJoin(plan, build, Col(fk), Col(dim.key),
                        domain=dim.key_domain, offset=dim.key_offset,
                        negated=self._p(0.4))

    # -- query heads --------------------------------------------------------

    def _group_query(self, plan: Plan, grain: int) -> tuple[Query, set[str]]:
        groupable = [c for c in self.env if c.groupable and c.kind != "num"]
        keys: list[KeySpec] = []
        domain = 1
        self.rng.shuffle(groupable)
        for col in groupable[: int(self.rng.integers(0, 3))]:
            if domain * (col.card + 2) > 2048:
                continue
            # slack below the smallest key moves the partition that the
            # ε slots an upstream selection left are ranked into (their
            # group id is 0 - offset, whatever the rows hold)
            slack = int(self.rng.integers(1, 3)) if self._p(0.3) else 0
            keys.append(KeySpec(col.name, Col(col.name), card=col.card + slack,
                                offset=int(col.lo) - slack))
            domain *= col.card + slack
        aggs: dict[str, AggSpec] = {}
        for _ in range(int(self.rng.integers(1, 4))):
            fn = self._choice(AGG_FNS)
            name = self._name("a")
            if fn == "count":
                numeric = self._numeric()
                expr = Col(self._choice(numeric).name) if numeric and self._p(0.4) else None
                aggs[name] = AggSpec("count", expr)
            else:
                depth = int(self.rng.integers(0, 2))
                aggs[name] = AggSpec(fn, self.num_expr(depth))
        carry: list[str] = []
        key_names = {k.name for k in keys}
        if keys and self._p(0.3):
            extras = [c for c in self.env
                      if c.kind in ("int", "float", "str") and c.name not in key_names]
            if extras:
                carry.append(self._choice(extras).name)
        plan = GroupBy(plan, keys=keys, aggs=aggs, carry=carry, grain=grain)

        available = [k.name for k in keys] + list(aggs) + carry
        select = self._select_from(available)
        decode = {}
        for name in select:
            col = next((c for c in self.env if c.name == name and c.kind == "str"), None)
            if col is not None and col.origin and self._p(0.7):
                decode[name] = col.origin
        inexact = {name for name, spec in aggs.items() if spec.fn in ("sum", "avg")}
        return Query(plan=plan, select=select, decode=decode), inexact

    def _projection_query(self, plan: Plan) -> Query:
        select = self._select_from([c.name for c in self.env])
        decode = {}
        for name in select:
            col = next(c for c in self.env if c.name == name)
            if col.kind == "str" and col.origin and self._p(0.7):
                decode[name] = col.origin
        return Query(plan=plan, select=select, decode=decode)

    def _order_and_limit(self, query: Query, inexact: set[str]) -> Query:
        """ORDER BY one or two selected columns in mixed directions (ties
        and NaN come with the data), and LIMIT 0, a few rows or past the
        end of the result."""
        keys = [name for name in query.select if name not in inexact]
        order_by = []
        if keys and self._p(0.4):
            picked = self.rng.permutation(len(keys))[: int(self.rng.integers(1, 3))]
            order_by = [(keys[int(i)], self._p(0.5)) for i in picked]
        limit = None
        if self._p(0.3):
            limit = self._choice([0, int(self.rng.integers(1, 9)), PAST_THE_END])
        return replace(query, order_by=order_by, limit=limit)

    def _select_from(self, names: list[str]) -> list[str]:
        count = int(self.rng.integers(1, min(4, len(names)) + 1))
        picked = self.rng.permutation(len(names))[:count]
        return [names[int(i)] for i in sorted(picked)]


def generate_case(seed: int, index: int) -> Case:
    """Deterministically generate conformance case *(seed, index)*."""
    rng = np.random.default_rng([abs(int(seed)), abs(int(index))])
    store, info = random_store(rng)
    store.meta = {
        "generator": "repro.testing",
        "seed": int(seed),
        "index": int(index),
    }
    grain = int(rng.choice(GRAINS))
    query = _QueryGen(rng, info).build(grain)
    return Case(seed=int(seed), index=int(index), grain=grain, store=store, query=query)
