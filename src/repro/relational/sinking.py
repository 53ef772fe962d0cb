"""Filter sinking: each conjunct of a ``Filter`` runs below the joins it
does not need.

A ``Filter`` over ``Join`` / ``SemiJoin`` nodes evaluates its predicate
on joined rows.  A top-level conjunct (an operand of the predicate's
``And`` tree) that reads at least one column, every one of them shown by
a join's probe side and none pulled by that join, selects the same rows
below the join — where it runs before the probe gathers anything.  Q19's
``l_shipmode IN (...) AND l_shipinstruct = ...`` keeps about 7 % of
``lineitem`` before ``part`` is probed; Q7's ``l_shipdate`` window runs
below all five of its joins.

The move keeps every row and its slot.  A join maps each probe row to the
slot it had (a gather by the probe key; a semi-join's selection packs the
rows it keeps in order), and a ``Filter`` packs the rows it keeps to the
front of each chunk of the same grain, so two selections give the same
slots in either order, one after the other or as one ``And``.  A row a
lower selection dropped is ε, and stays ε through every join above it.

Applied to a translation once (:meth:`Sinking.plan`, from
``Translator.translate_query``), memoized per node so a shared sub-plan
stays one sub-plan.  A conjunct that lands on a ``Filter`` merges into
its predicate instead of stacking a second selection, and a ``Filter``
with nothing to move is returned as it is, so its translation is the one
it always had.  The moved and the remaining conjuncts keep the ``And``
structure they had in the predicate (a ``between`` stays one ``And`` of
its two bounds).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import StorageError
from repro.relational import algebra as ra
from repro.relational import expressions as ex
from repro.storage.columnstore import ColumnStore

_JOINS = (ra.Join, ra.SemiJoin)


def sink_filters(plan: ra.Plan, store: ColumnStore) -> ra.Plan:
    """*plan* with every conjunct that can run below a join moved there."""
    return Sinking(store).plan(plan)


def conjuncts(pred: ex.Expr, keep) -> ex.Expr | None:
    """The top-level conjuncts of *pred* that *keep* accepts, in the
    ``And`` structure they had (*pred* itself when it accepts them all;
    None when it accepts none)."""
    if not isinstance(pred, ex.And):
        return pred if keep(pred) else None
    left, right = conjuncts(pred.left, keep), conjuncts(pred.right, keep)
    if left is None or right is None:
        return left if right is None else right
    if left is pred.left and right is pred.right:
        return pred
    return ex.And(left, right)


def describe(conjunct: ex.Expr, join: ra.Join | ra.SemiJoin) -> str:
    """One ``explain()`` line: which conjunct moved, below which join."""
    kind = "join"
    if isinstance(join, ra.SemiJoin):
        kind = "anti-join" if join.negated else "semi-join"
    build = join.build.table if isinstance(join.build, ra.Scan) else "a sub-plan"
    return (f"filter sunk: {_text(conjunct)} runs below the {kind} with {build} "
            f"on {_text(join.fact_key)}")


_SYMBOLS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<=", "eq": "=", "ne": "<>"}


def _text(expr: ex.Expr) -> str:
    """A column, a literal, a comparison or an IN-list as SQL-ish text;
    anything else by its kind and the columns it reads."""
    if isinstance(expr, ex.Col):
        return expr.name
    if isinstance(expr, ex.Lit):
        return repr(expr.value)
    if isinstance(expr, ex.Cmp):
        return f"{_text(expr.left)} {_SYMBOLS[expr.op]} {_text(expr.right)}"
    if isinstance(expr, ex.InSet):
        return f"{_text(expr.operand)} IN {expr.values}"
    return f"{type(expr).__name__} of {', '.join(sorted(ex.columns_used(expr)))}"


class Sinking:
    """One translation's rewrite.  :meth:`plan` is memoized per node;
    ``moves`` lists ``(conjunct, join)`` for every top-level conjunct it
    moved, with the join it now sits directly below."""

    def __init__(self, store: ColumnStore):
        self.store = store
        self.moves: list[tuple[ex.Expr, ra.Join | ra.SemiJoin]] = []
        self._memo: dict[int, tuple[ra.Plan, ra.Plan]] = {}
        self._used: dict[int, tuple[ex.Expr, frozenset]] = {}

    def plan(self, node: ra.Plan) -> ra.Plan:
        """*node* with its filters sunk (*node* itself when none moves)."""
        hit = self._memo.get(id(node))
        if hit is not None and hit[0] is node:
            return hit[1]
        if isinstance(node, ra.Filter):
            out = self._filter(node)
        elif isinstance(node, ra.Scan):
            out = node
        else:
            child = self.plan(node.child)
            build = getattr(node, "build", None)
            if build is not None and (new := self.plan(build)) is not build:
                out = replace(node, child=child, build=new)
            else:
                out = node if child is node.child else replace(node, child=child)
        self._memo[id(node)] = (node, out)
        return out

    def _filter(self, node: ra.Filter) -> ra.Plan:
        child = self.plan(node.child)
        sunk, rest = self._sink(child, node.pred)
        if sunk is child:
            return node if child is node.child else ra.Filter(child, node.pred)
        return sunk if rest is None else ra.Filter(sunk, rest)

    def _sink(self, node: ra.Plan, pred: ex.Expr) -> tuple[ra.Plan, ex.Expr | None]:
        """``(node', rest)``: *node* with what of *pred* can run below its
        joins moved there, and the conjuncts that stay above it."""
        if isinstance(node, ra.Filter):
            child, rest = self._sink(node.child, pred)
            if child is node.child:
                return node, pred
            return ra.Filter(child, node.pred), rest
        if not isinstance(node, _JOINS):
            return node, pred
        pulled = node.pull.keys() if isinstance(node, ra.Join) else ()

        def below(conjunct: ex.Expr) -> bool:
            used = self._reads(conjunct)
            return bool(used) and used.isdisjoint(pulled) and self._shows(node.child, used)

        down = conjuncts(pred, below)
        if down is None:
            return node, pred
        sunk, rest = self._sink(node.child, down)
        if rest is not None:
            # what stops here sits directly below this join
            self.moves += [(c, node) for c in _leaves(rest)]
            if isinstance(sunk, ra.Filter):
                sunk = ra.Filter(sunk.child, ex.And(sunk.pred, rest))
            else:
                sunk = ra.Filter(sunk, rest)
        return replace(node, child=sunk), conjuncts(pred, lambda c: not below(c))

    def _shows(self, node: ra.Plan, names) -> bool:
        """Do *node*'s rows show every column in *names*?"""
        while names:
            if isinstance(node, ra.Scan):
                try:
                    columns = self.store.table(node.table).columns
                except StorageError:  # an auxiliary vector, or no table at all
                    return False
                return all(name in columns for name in names)
            if isinstance(node, ra.GroupBy):
                own = {key.name for key in node.keys}.union(node.aggs, node.carry)
                return all(name in own for name in names)
            if isinstance(node, ra.Join):
                names = [name for name in names if name not in node.pull]
            elif isinstance(node, ra.Map):
                names = [name for name in names if name not in node.cols]
            node = node.child
        return True

    def _reads(self, conjunct: ex.Expr) -> frozenset:
        hit = self._used.get(id(conjunct))
        if hit is None or hit[0] is not conjunct:
            hit = self._used[id(conjunct)] = (conjunct, frozenset(ex.columns_used(conjunct)))
        return hit[1]


def _leaves(pred: ex.Expr):
    """The top-level conjuncts of *pred*, left to right."""
    if isinstance(pred, ex.And):
        yield from _leaves(pred.left)
        yield from _leaves(pred.right)
    else:
        yield pred
