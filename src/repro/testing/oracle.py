"""The NumPy reference evaluator of relational queries.

This evaluator shares **no execution code** with the interpreter, the
compiled backends, or the parallel runtime: it interprets the relational
plan directly over ``(values, mask)`` column pairs, the way one would
write the query by hand in NumPy.  It has two users:

* the conformance matrix, where it is the third opinion — if every
  backend agrees *with each other* but all share a bug, the oracle is
  what catches it;
* the HyPeR-like and Ocelot-like baselines (:mod:`repro.baselines`),
  which price a query by passing an *observer*: at every operator the
  oracle calls the observer's ``on_<operator>`` hook with the
  relation's pipeline extent (rows since its scan or group-by, the
  length a selection-vector engine carries), its live rows (rows with
  no ε column, what a compacting engine carries) and its row width
  (bytes), plus the operator's own counts.

It deliberately implements the *documented engine contracts* (not the
engine code) where SQL leaves them open:

* ε propagation: an operation's output slot is ε iff any input slot it
  read was ε; filters drop rows whose predicate is ε; folds skip ε and
  produce ε for runs with no contributing slot; a result row is emitted
  only when **every selected column** is present (mirrors
  ``VoodooEngine._extract``).
* total division: ``x / 0 == 0.0`` for floats and ``x // 0 == x`` for
  integers (the backends' branch-free Divide contract).
* conditionals are *predication*: ``cond*then + (1-cond)*otherwise``,
  so NaN/Inf in the untaken branch contaminates the result exactly as
  it does on a branch-free device.
* keys outside a join's, semi-join's or membership table's domain find
  nothing (an out-of-range gather is ε); scatter build collisions:
  later writes win; group-by output rows are ordered by ascending
  linearized group id.
* ORDER BY is a stable sort (ties keep result order); a DESC key sorts
  by its negated dense rank, and NaN ranks as the largest value in both
  directions.  LIMIT keeps the first rows after the sort.

Float aggregates are compared with a small tolerance by the conformance
runner (the oracle sums with ``np.sum``'s pairwise order, the backends
accumulate sequentially); everything else must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.relational import algebra as ra
from repro.relational import expressions as ex
from repro.storage.columnstore import ColumnStore


@dataclass
class _Rel:
    """A relation: equal-length value arrays plus per-column ε masks, and
    the extent of the pipeline it flows in."""

    n: int
    cols: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    extent: int

    def subset(self, keep: np.ndarray) -> "_Rel":
        return _Rel(
            int(keep.sum()) if keep.dtype == bool else len(keep),
            {name: arr[keep] for name, arr in self.cols.items()},
            {name: m[keep] for name, m in self.masks.items()},
            self.extent,
        )

    def first_visible_mask(self) -> np.ndarray:
        """Presence of the first column (the engine's count(*) anchor)."""
        for name, mask in self.masks.items():
            return mask
        return np.zeros(self.n, dtype=bool)

    def live(self) -> int:
        """Rows with no ε column: the rows an engine that drops a row at
        its first failed filter or join probe still carries."""
        alive = np.ones(self.n, dtype=bool)
        for mask in self.masks.values():
            alive &= mask
        return int(alive.sum())


def _lit_array(value, n: int) -> np.ndarray:
    if isinstance(value, bool):
        return np.full(n, value, dtype=bool)
    if isinstance(value, (int, np.integer)):
        return np.full(n, value, dtype=np.int64)
    return np.full(n, value, dtype=np.float64)


def _divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The backends' total division: never traps, zero divisor is inert."""
    zero = b == 0
    if a.dtype.kind in "iub" and b.dtype.kind in "iub":
        with np.errstate(divide="ignore"):
            return a // np.where(zero, 1, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(zero, 0.0, a / np.where(zero, 1, b))


def _sort_order(query: ra.Query, arrays: dict[str, np.ndarray]) -> np.ndarray | None:
    """Row permutation for ORDER BY (stable; DESC by negated dense rank)."""
    if not query.order_by:
        return None
    keys = []
    for name, desc in reversed(query.order_by):  # lexsort: last key is primary
        col = arrays[name]
        keys.append(-np.unique(col, return_inverse=True)[1] if desc else col)
    return np.lexsort(keys)


class Oracle:
    def __init__(self, store: ColumnStore, observer=None):
        self.store = store
        #: receives the ``on_*`` operator hooks (see the module docstring)
        self.observer = observer
        #: per-column magnitude of float sum/avg contributions (Σ|v|),
        #: aligned with the *group* rows of the final aggregation —
        #: consumed by the conformance comparison's tolerance
        self.scales: dict[str, np.ndarray] = {}

    def _note(self, hook: str, rel: _Rel, *counts) -> None:
        """Tell the observer, if any, an operator ran over *rel*."""
        if self.observer is not None:
            width = sum(arr.dtype.itemsize for arr in rel.cols.values())
            getattr(self.observer, hook)(rel.extent, rel.live(), width, *counts)

    # -- expressions --------------------------------------------------------

    def expr(self, e: ex.Expr, rel: _Rel) -> tuple[np.ndarray, np.ndarray]:
        n = rel.n
        if isinstance(e, ex.Col):
            return rel.cols[e.name], rel.masks[e.name]
        if isinstance(e, ex.Lit):
            return _lit_array(e.value, n), np.ones(n, dtype=bool)
        if isinstance(e, ex.Arith):
            return self._arith(e, rel)
        if isinstance(e, ex.Cmp):
            lv, lm = self.expr(e.left, rel)
            rv, rm = self.expr(e.right, rel)
            self._note("on_compute", rel, 1)
            fn = {"gt": np.greater, "ge": np.greater_equal, "lt": np.less,
                  "le": np.less_equal, "eq": np.equal, "ne": np.not_equal}[e.op]
            with np.errstate(invalid="ignore"):
                return fn(lv, rv), lm & rm
        if isinstance(e, (ex.And, ex.Or)):
            lv, lm = self.expr(e.left, rel)
            rv, rm = self.expr(e.right, rel)
            if isinstance(e, ex.And):
                return (lv != 0) & (rv != 0), lm & rm
            return (lv != 0) | (rv != 0), lm & rm
        if isinstance(e, ex.Not):
            v, m = self.expr(e.operand, rel)
            return ~(v != 0), m
        if isinstance(e, ex.InSet):
            v, m = self.expr(e.operand, rel)
            self._note("on_compute", rel, len(e.values))
            hit = np.zeros(n, dtype=bool)
            with np.errstate(invalid="ignore"):
                for value in e.values:
                    hit |= v == value
            return hit, m
        if isinstance(e, ex.Membership):
            aux = self.store.vectors()[e.aux_name]
            flags = aux.attr(aux.paths[0])
            pos, valid = self._probe(e.operand, rel, e.offset, len(flags))
            self._note("on_gather", rel, flags.nbytes)
            taken = flags[pos]
            taken[~valid] = 0                # ε slots are zero-filled
            return taken, valid
        if isinstance(e, ex.IfThenElse):
            return self._if_then_else(e, rel)
        if isinstance(e, ex.Cast):
            v, m = self.expr(e.operand, rel)
            return v.astype(np.dtype(e.dtype)), m
        if isinstance(e, ex.ScalarOf):
            return self._scalar_of(e, rel)
        raise ExecutionError(f"oracle cannot evaluate expression {type(e).__name__}")

    def _arith(self, e: ex.Arith, rel: _Rel) -> tuple[np.ndarray, np.ndarray]:
        lv, lm = self.expr(e.left, rel)
        rv, rm = self.expr(e.right, rel)
        self._note("on_compute", rel, 1)
        mask = lm & rm
        with np.errstate(all="ignore"):
            if e.op == "add":
                return lv + rv, mask
            if e.op == "sub":
                return lv - rv, mask
            if e.op == "mul":
                return lv * rv, mask
            if e.op == "div":  # SQL exact division: ints promote to float
                if lv.dtype.kind in "iub":
                    lv = lv.astype(np.float64)
                return _divide(lv, rv), mask
            if e.op == "mod":  # floored remainder, zero divisor inert
                return lv % np.where(rv == 0, 1, rv), mask
            return _divide(lv, rv), mask  # idiv

    def _if_then_else(self, e: ex.IfThenElse, rel: _Rel):
        cv, cm = self.expr(e.cond, rel)
        tv, tm = self.expr(e.then, rel)
        ev, em = self.expr(e.otherwise, rel)
        self._note("on_compute", rel, 1)
        c = cv.astype(np.int64)
        with np.errstate(all="ignore"):
            return c * tv + (1 - c) * ev, cm & tm & em

    def _scalar_of(self, e: ex.ScalarOf, rel: _Rel):
        sub = self.plan(e.plan)
        if sub.n == 0:
            value, present = 0, False
        else:
            value = sub.cols[e.column][0]
            present = bool(sub.masks[e.column][0])
        vals = np.full(rel.n, value if present else 0,
                       dtype=sub.cols[e.column].dtype if sub.n else np.int64)
        return vals, np.full(rel.n, present, dtype=bool)

    # -- plans --------------------------------------------------------------

    def plan(self, p: ra.Plan) -> _Rel:
        if isinstance(p, ra.Scan):
            table = self.store.table(p.table)
            cols = {c.name: c.data for c in table.columns.values()}
            masks = {name: np.ones(table.n_rows, dtype=bool) for name in cols}
            rel = _Rel(table.n_rows, cols, masks, table.n_rows)
            self._note("on_scan", rel)
            return rel
        if isinstance(p, ra.Filter):
            rel = self.plan(p.child)
            v, m = self.expr(p.pred, rel)
            out = rel.subset(m & (v != 0))
            if self.observer is not None:
                columns = max(1, len(ex.columns_used(p.pred)))
                self._note("on_filter", rel, out.live(), columns)
            return out
        if isinstance(p, ra.Map):
            rel = self.plan(p.child)
            cols, masks = dict(rel.cols), dict(rel.masks)
            for name, e in p.cols.items():
                cols[name], masks[name] = self.expr(e, rel)
                self._note("on_map", rel)
            return _Rel(rel.n, cols, masks, rel.extent)
        if isinstance(p, ra.Join):
            return self._join(p)
        if isinstance(p, ra.SemiJoin):
            return self._semijoin(p)
        if isinstance(p, ra.GroupBy):
            return self._groupby(p)
        raise ExecutionError(f"oracle cannot evaluate plan {type(p).__name__}")

    def _probe(self, key: ex.Expr, rel: _Rel, offset: int, domain: int):
        """(in-domain position, valid) for a probe/build key expression."""
        kv, km = self.expr(key, rel)
        pos = kv - offset
        valid = km & (pos >= 0) & (pos < domain)
        safe = np.where(valid, pos, 0).astype(np.int64)
        return safe, valid

    def _join(self, p: ra.Join) -> _Rel:
        rel = self.plan(p.child)
        build = self.plan(p.build)
        ppos, pvalid = self._probe(p.fact_key, rel, p.offset, p.domain)
        bpos, bvalid = self._probe(p.dim_key, build, p.offset, p.domain)
        pulled = max(1, len(p.pull))  # a build table holds a column per key at least
        self._note("on_build", build, pulled)
        self._note("on_probe", rel, build.live(), pulled)
        src = np.flatnonzero(bvalid)
        dst = bpos[src]                      # duplicate keys: later writes win
        cols, masks = dict(rel.cols), dict(rel.masks)
        for out, dim_col in p.pull.items():
            table = np.zeros(p.domain, dtype=build.cols[dim_col].dtype)
            filled = np.zeros(p.domain, dtype=bool)
            table[dst] = build.cols[dim_col][src]
            filled[dst] = build.masks[dim_col][src]
            taken = table[ppos].copy()
            taken[~pvalid] = 0               # ε slots are zero-filled
            cols[out] = taken
            masks[out] = pvalid & filled[ppos]
        return _Rel(rel.n, cols, masks, rel.extent)

    def _semijoin(self, p: ra.SemiJoin) -> _Rel:
        rel = self.plan(p.child)
        build = self.plan(p.build)
        ppos, pvalid = self._probe(p.fact_key, rel, p.offset, p.domain)
        bpos, bvalid = self._probe(p.dim_key, build, p.offset, p.domain)
        self._note("on_build", build, 1)
        self._note("on_probe", rel, build.live(), 1)
        membership = np.zeros(p.domain, dtype=bool)
        membership[bpos[bvalid]] = True
        exists = pvalid & membership[ppos]
        out = rel.subset(~exists if p.negated else exists)
        if self.observer is not None:
            self._note("on_filter", rel, out.live(), 1)
        return out

    # -- aggregation --------------------------------------------------------

    @staticmethod
    def _sum_scale(vals: np.ndarray, mask: np.ndarray) -> float:
        """Magnitude of a float sum's contributions (Σ|v| over the rows).

        The backends accumulate sequentially, the oracle pairwise; after
        catastrophic cancellation the two legitimately differ by an
        error proportional to this scale, not to the (near-zero) result.
        The conformance comparison widens its tolerance accordingly.
        """
        with np.errstate(all="ignore"):
            picked = vals[mask]
            finite = picked[np.isfinite(picked)]
            return float(np.abs(finite).sum()) if len(finite) else 0.0

    @staticmethod
    def _segments(ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """*ufunc* reduced over each group's rows (the groups are the
        consecutive runs of *values* beginning at *starts*).  Only a
        global aggregate over no rows has an empty group: it reduces to
        zero, the value every absent cell takes."""
        if not len(values):
            return np.zeros(len(starts), dtype=values.dtype)
        return ufunc.reduceat(values, starts)

    def _extreme(self, fn: str, vals: np.ndarray, mask: np.ndarray, starts, present):
        """Per-group min or max of the present rows (0 where none is)."""
        ufunc = np.minimum if fn == "min" else np.maximum
        kind = vals.dtype.kind
        if kind == "f":
            fill = np.inf if fn == "min" else -np.inf
        elif kind == "b":
            fill = fn == "min"
        else:
            info = np.iinfo(vals.dtype)
            fill = info.max if fn == "min" else info.min
        folded = self._segments(ufunc, np.where(mask, vals, vals.dtype.type(fill)), starts)
        return np.where(present, folded, vals.dtype.type(0)).astype(vals.dtype, copy=False)

    def _sums(self, vals: np.ndarray, mask: np.ndarray, starts, bounds):
        """Per-group sums of the present rows: integers exactly in one
        pass, floats one pairwise ``np.sum`` per group (``reduceat`` adds
        sequentially, which the Σ|v| tolerance does not describe)."""
        if vals.dtype.kind != "f":
            return self._segments(np.add, np.where(mask, vals.astype(np.int64), 0), starts)
        return np.array([vals[lo:hi][mask[lo:hi]].sum()
                         for lo, hi in zip(bounds[:-1], bounds[1:])], dtype=np.float64)

    def _scales(self, vals: np.ndarray, mask: np.ndarray, bounds) -> np.ndarray:
        return np.array([self._sum_scale(vals[lo:hi], mask[lo:hi])
                         for lo, hi in zip(bounds[:-1], bounds[1:])], dtype=np.float64)

    def _agg_columns(self, p: ra.GroupBy, inputs: dict, rows: np.ndarray, bounds: np.ndarray):
        """Per aggregate: (values, mask) over the groups — group ``i`` is
        ``rows[bounds[i]:bounds[i + 1]]`` — filling ``self.scales[name]``
        for order-sensitive float sums/avgs."""
        starts = bounds[:-1]
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, spec in p.aggs.items():
            vals, vmask = inputs[name]
            vals, vmask = vals[rows], vmask[rows]
            counts = self._segments(np.add, vmask.astype(np.int64), starts)
            present = counts > 0
            if spec.fn == "count":
                out[name] = (counts, present)
            elif spec.fn in ("min", "max"):
                out[name] = (self._extreme(spec.fn, vals, vmask, starts, present), present)
            elif spec.fn in ("sum", "avg"):
                sums = self._sums(vals, vmask, starts, bounds)
                if spec.fn == "sum":
                    out[name] = (sums, present)
                    if vals.dtype.kind == "f":
                        self.scales[name] = self._scales(vals, vmask, bounds)
                    continue
                with np.errstate(all="ignore"):
                    means = np.where(present, sums.astype(np.float64) / counts, 0.0)
                out[name] = (means, present)
                self.scales[name] = self._scales(vals, vmask, bounds) / np.maximum(counts, 1)
            else:
                raise ExecutionError(f"oracle cannot fold {spec.fn!r}")
        return out

    def _groupby(self, p: ra.GroupBy) -> _Rel:
        rel = self.plan(p.child)
        # count(*): every real row counts
        star = rel.first_visible_mask() if not p.keys else np.ones(rel.n, dtype=bool)
        inputs = {name: self.expr(spec.expr, rel) if spec.expr is not None
                  else (np.ones(rel.n, dtype=np.int64), star)
                  for name, spec in p.aggs.items()}
        if not p.keys:
            self._note("on_aggregate", rel, 1, len(p.aggs))
            n = 1 if rel.n else 0
            out = self._agg_columns(p, inputs, np.arange(rel.n), np.array([0, rel.n]))
            return _Rel(n, {name: vals[:n] for name, (vals, _) in out.items()},
                        {name: m[:n] for name, (_, m) in out.items()}, 1)

        key_vals, valid = [], np.ones(rel.n, dtype=bool)
        for key in p.keys:
            kv, km = self.expr(key.expr, rel)
            key_vals.append(kv)
            valid &= km
        gid = np.zeros(rel.n, dtype=np.int64)
        stride = 1
        for key, kv in zip(reversed(p.keys), reversed(key_vals)):
            gid += (kv.astype(np.int64) - key.offset) * stride
            stride *= key.card
        rows_all = np.flatnonzero(valid)
        order = np.argsort(gid[rows_all], kind="stable")
        sorted_rows = rows_all[order]
        sorted_gids = gid[sorted_rows]
        _, starts = np.unique(sorted_gids, return_index=True)
        bounds = np.append(starts, len(sorted_rows))
        groups = len(starts)
        self._note("on_aggregate", rel, groups, len(p.aggs))

        out = self._agg_columns(p, inputs, sorted_rows, bounds)
        cols = {name: vals for name, (vals, _) in out.items()}
        masks = {name: m for name, (_, m) in out.items()}

        carried: dict[str, str] = {}
        for name in p.carry:
            carried.setdefault(name, name)
        for key in p.keys:
            carried.setdefault(key.name, key.expr.name)  # type: ignore[union-attr]
        for out_name, src in carried.items():
            src_vals, src_mask = rel.cols[src][sorted_rows], rel.masks[src][sorted_rows]
            present = self._segments(np.logical_or, src_mask, starts)
            cols[out_name] = self._extreme("max", src_vals, src_mask, starts, present)
            masks[out_name] = present
        return _Rel(groups, cols, masks, groups)

    # -- entry point --------------------------------------------------------

    def query(self, query: ra.Query) -> dict[str, np.ndarray]:
        self.scales = {}
        rel = self.plan(query.plan)
        keep = np.ones(rel.n, dtype=bool)
        for name in query.select:
            keep &= rel.masks[name]
        arrays = {name: rel.cols[name][keep] for name in query.select}
        # keep only scales still aligned with the final relation (a
        # nested aggregation's scales no longer describe output cells)
        scales = {name: scale[keep] for name, scale in self.scales.items()
                  if name in query.select and len(scale) == rel.n}
        rows = slice(None, query.limit)
        order = _sort_order(query, arrays)
        if order is not None:
            rows = order[rows]
        arrays = {name: arr[rows] for name, arr in arrays.items()}
        self.scales = {name: scale[rows] for name, scale in scales.items()}
        for name, source in query.decode.items():
            if name in arrays:
                dictionary = self.store.table(source[0]).dictionary(source[1])
                arrays[name] = np.array(dictionary.decode(arrays[name]), dtype=object)
        return arrays


def evaluate_with_scales(
    store: ColumnStore, query: ra.Query
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Evaluate *query* over *store* with the independent oracle; also
    returns per-cell sum magnitudes (Σ|v| of each float sum/avg cell) for
    tolerance-aware comparison."""
    oracle = Oracle(store)
    arrays = oracle.query(query)
    return arrays, oracle.scales
