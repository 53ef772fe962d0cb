"""Lowering relational plans to Voodoo programs.

This is the paper's "relational frontend" (section 4): each relational
operator becomes a handful of Voodoo operators, with parallelism exposed
through control vectors rather than hardware constructs:

* ``Filter``   → predicate → ``FoldSelect`` (chunk-controlled) → ``Gather``
  (the Figure 8 pattern);
* ``Join``     → identity-hash table: ``Scatter`` build + ``Gather`` probe;
  or a pure positional ``Gather`` when the build key is a dense surrogate
  pk (the "indexed foreign-key join");
* ``SemiJoin`` → membership table + ``IsPresent``;
* ``GroupBy``  → group-id linearization → ``Partition`` → virtual
  ``Scatter`` → controlled ``Fold`` per aggregate (Figures 10/11), or the
  hierarchical two-level fold of Figure 3 when there are no keys.  The
  shape matters to the runner: the pivots are ``Range(domain)`` and every
  fold is controlled by the very ``__gid`` column the ``Partition`` read,
  so each bucket is one group and the folds accumulate straight into
  their group's slot — no row is ranked, nothing is sorted
  (:class:`repro.compiler.columns.Groups`);
* filtered rows travel as ε slots — masks propagate through every
  operator, and folds skip ε, so no operator ever re-checks predicates.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.core.builder import Builder, V
from repro.core.keypath import Keypath
from repro.core.program import Program
from repro.errors import TranslationError
from repro.relational import algebra as ra
from repro.relational import expressions as ex
from repro.relational.expressions import columns_used
from repro.relational.sinking import Sinking
from repro.storage.columnstore import ColumnStore


#: the translator's own attributes: parsed once, shared by every program
_C = Keypath(["__c"])
_CHUNK = Keypath(["__chunk"])
_DOM = Keypath(["__dom"])
_EXISTS = Keypath(["__exists"])
_F = Keypath(["__f"])
_GID = Keypath(["__gid"])
_ID = Keypath(["__id"])
_K = Keypath(["__k"])
_LIVE = Keypath(["__live"])
_ONE = Keypath(["__one"])
_PARTIAL = Keypath(["__partial"])
_POS = Keypath(["__pos"])
_PV = Keypath(["__pv"])
_T = Keypath(["__t"])
_V = Keypath(["__v"])
_W = Keypath(["__w"])


@lru_cache(maxsize=4096)
def _col(name: str) -> Keypath:
    """The keypath of column *name* (validated once per name)."""
    return Keypath([name])


class Translator:
    """Translates relational :class:`~repro.relational.algebra.Plan` trees."""

    def __init__(self, store: ColumnStore, grain: int = 4096):
        self.store = store
        self.grain = grain
        self.b = Builder(store.schemas())
        self._plan_cache: dict[int, V] = {}
        self._fresh = 0
        self._needed: set[str] | None = None
        #: the filter-sinking rewrite every plan this translator lowers
        #: from a query passes through (``sinking.moves``: what it moved)
        self.sinking = Sinking(store)
        #: table -> version of every table whose *contents* (not schema)
        #: this translation read; its program is valid while they are current
        self.reads: dict[str, int] = {}

    # -- public entry points ---------------------------------------------------

    def translate_query(self, query: ra.Query, output: str = "result") -> Program:
        self._needed = collect_needed_columns(query)
        rel = self.translate(self.sinking.plan(query.plan))
        return self.b.build(**{output: rel})

    def translate(self, plan: ra.Plan) -> V:
        """Relation vector for *plan*: one ``.column`` attribute per column."""
        cached = self._plan_cache.get(id(plan))
        if cached is not None:
            return cached
        method = getattr(self, f"_plan_{type(plan).__name__.lower()}", None)
        if method is None:
            raise TranslationError(f"no translation for plan node {type(plan).__name__}")
        result = method(plan)
        self._plan_cache[id(plan)] = result
        return result

    # -- plan nodes ----------------------------------------------------------------

    def _plan_scan(self, plan: ra.Scan) -> V:
        """Scan with column pruning: only columns the query references are
        carried (the code generator then never touches the others)."""
        if plan.table not in self.store:
            raise TranslationError(f"unknown table {plan.table!r}")
        rel = self.b.load(plan.table)
        if self._needed is None:
            return rel
        keep = [p for p in rel.schema.paths() if p.leaf in self._needed]
        if not keep or len(keep) == len(rel.schema.paths()):
            return rel
        pruned = self.b.project(rel, keep[0], out=keep[0])
        for path in keep[1:]:
            pruned = self.b.zip(pruned, self.b.project(rel, path, out=path))
        return pruned

    def _plan_filter(self, plan: ra.Filter) -> V:
        rel = self.translate(plan.child)
        pred_v, pred_kp = self.emit(plan.pred, rel)
        sel_name = self._temp("sel")
        chunked = self._with_chunks(self.b.upsert(rel, sel_name, pred_v, pred_kp))
        positions = self.b.fold_select(
            chunked, sel_kp=sel_name, fold_kp=_CHUNK, out=_POS
        )
        return self.b.gather(rel, positions, pos_kp=_POS)

    def _plan_map(self, plan: ra.Map) -> V:
        rel = self.translate(plan.child)
        for name, expr in plan.cols.items():
            value_v, value_kp = self.emit(expr, rel)
            rel = self.b.upsert(rel, _col(name), value_v, value_kp)
        return rel

    def _plan_join(self, plan: ra.Join) -> V:
        rel = self.translate(plan.child)
        probe_pos = self._key_positions(plan.fact_key, rel, plan.offset)

        if self._positional_build(plan):
            build_rel = self.translate(plan.build)
            matched = self.b.gather(build_rel, probe_pos, pos_kp=_POS)
        else:
            build_rel = self.translate(plan.build)
            build_pos = self._key_positions(plan.dim_key, build_rel, plan.offset)
            table_size = self.b.range(plan.domain, out=_DOM)
            hash_table = self.b.scatter(
                build_rel, build_pos, pos_kp=_POS, sizeref=table_size
            )
            matched = self.b.gather(hash_table, probe_pos, pos_kp=_POS)

        for out_name, dim_col in plan.pull.items():
            rel = self.b.upsert(rel, _col(out_name), matched, _col(dim_col))
        return rel

    def _plan_semijoin(self, plan: ra.SemiJoin) -> V:
        rel = self.translate(plan.child)
        build_rel = self.translate(plan.build)
        build_key_v, build_key_kp = self.emit(plan.dim_key, build_rel)
        build_pos = self._key_positions(plan.dim_key, build_rel, plan.offset)
        table_size = self.b.range(plan.domain, out=_DOM)
        membership = self.b.scatter(
            self.b.project(build_key_v, build_key_kp, out=_K),
            build_pos,
            pos_kp=_POS,
            sizeref=table_size,
        )
        probe_pos = self._key_positions(plan.fact_key, rel, plan.offset)
        probed = self.b.gather(membership, probe_pos, pos_kp=_POS)
        exists = self.b.is_present(probed, out=_EXISTS, source_kp=_K)
        if plan.negated:
            exists = self.b.logical_not(exists, out=_EXISTS)
        chunked = self._with_chunks(self.b.upsert(rel, _EXISTS, exists, _EXISTS))
        positions = self.b.fold_select(
            chunked, sel_kp=_EXISTS, fold_kp=_CHUNK, out=_POS
        )
        return self.b.gather(rel, positions, pos_kp=_POS)

    def _plan_groupby(self, plan: ra.GroupBy) -> V:
        rel = self.translate(plan.child)
        agg_inputs: dict[str, Keypath | None] = {}
        for out_name, spec in plan.aggs.items():
            if spec.expr is None:
                agg_inputs[out_name] = None
                continue
            value_v, value_kp = self.emit(spec.expr, rel)
            attr = _col(f"__agg_{out_name}")
            rel = self.b.upsert(rel, attr, value_v, value_kp)
            agg_inputs[out_name] = attr

        if not plan.keys:
            return self._global_aggregate(plan, rel, agg_inputs)
        return self._grouped_aggregate(plan, rel, agg_inputs)

    # -- aggregation lowering ----------------------------------------------------------

    def _global_aggregate(self, plan: ra.GroupBy, rel: V, agg_inputs) -> V:
        """Hierarchical fold (paper Figure 3): chunk partials, then total."""
        if any(
            spec.expr is not None and not columns_used(spec.expr)
            for spec in plan.aggs.values()
        ):
            # A column-free aggregate input (e.g. sum(3+2)) is a *dense*
            # attribute: present on every slot, including the ε padding
            # earlier Filters left behind, so a direct fold would count
            # killed rows (conformance-fuzzer finding).  Compact the
            # relation to its live rows first (keyed aggregation needs no
            # such step — the group-id scatter drops ε rows already).
            rel = self._compact_rows(rel)
        chunked = self._with_chunks(rel, grain=plan.grain)
        out_rel: V | None = None
        avgs: list[str] = []
        for out_name, spec in plan.aggs.items():
            attr = agg_inputs[out_name]
            if spec.fn == "avg":
                avgs.append(out_name)
                for sub, fn in ((f"__sum_{out_name}", "sum"), (f"__cnt_{out_name}", "count")):
                    # count over spec.expr (not count(*)): avg's denominator
                    # is the number of slots where the expression is present
                    sub_spec = ra.AggSpec(fn, spec.expr)
                    partial, final_fn = self._partial_fold(sub_spec, chunked, attr, _CHUNK)
                    total = self._final_fold(final_fn, partial, _col(sub))
                    out_rel = total if out_rel is None else self.b.zip(out_rel, total)
                continue
            partial, final_fn = self._partial_fold(spec, chunked, attr, _CHUNK)
            total = self._final_fold(final_fn, partial, _col(out_name))
            out_rel = total if out_rel is None else self.b.zip(out_rel, total)
        return self._finish_avgs(avgs, out_rel)

    def _grouped_aggregate(self, plan: ra.GroupBy, rel: V, agg_inputs) -> V:
        gid_v, gid_kp, domain = self._group_id(plan.keys, rel)
        rel = self.b.upsert(rel, _GID, gid_v, gid_kp)
        pivots = self.b.range(domain, out=_PV)
        positions = self.b.partition(
            self.b.project(rel, _GID), pivots, out=_POS
        )
        scattered = self.b.scatter(rel, positions, pos_kp=_POS)

        out_rel: V | None = None
        avgs: list[str] = []
        for out_name, spec in plan.aggs.items():
            attr = agg_inputs[out_name]
            if spec.fn == "avg":
                avgs.append(out_name)
                sums = self._scattered_fold(
                    ra.AggSpec("sum", spec.expr), scattered, attr, _col(f"__sum_{out_name}")
                )
                counts = self._scattered_fold(
                    ra.AggSpec("count", spec.expr), scattered, attr, _col(f"__cnt_{out_name}")
                )
                pair = self.b.zip(sums, counts)
                out_rel = pair if out_rel is None else self.b.zip(out_rel, pair)
                continue
            folded = self._scattered_fold(spec, scattered, attr, _col(out_name))
            out_rel = folded if out_rel is None else self.b.zip(out_rel, folded)

        carried: dict[str, str] = {}
        for name in plan.carry:
            carried.setdefault(name, name)
        for key in plan.keys:
            carried.setdefault(key.name, key.expr.name)  # type: ignore[union-attr]
        for out_name, src_col in carried.items():
            extracted = self.b.fold_max(
                scattered, agg_kp=_col(src_col), fold_kp=_GID, out=_col(out_name)
            )
            out_rel = self.b.zip(out_rel, extracted)
        return self._finish_avgs(avgs, out_rel)

    def _partial_fold(self, spec: ra.AggSpec, chunked: V, attr, fold_kp):
        if spec.fn == "count":
            counted = attr if attr is not None else self._any_column(chunked)
            partial = self.b.fold_count(
                chunked, counted_kp=counted, fold_kp=fold_kp, out=_PARTIAL
            )
            return partial, "sum"
        fn = {"sum": "sum", "avg": "sum", "min": "min", "max": "max"}[spec.fn]
        partial = getattr(self.b, f"fold_{fn}")(
            chunked, agg_kp=attr, fold_kp=fold_kp, out=_PARTIAL
        )
        return partial, fn

    def _final_fold(self, fn: str, partial: V, out: Keypath) -> V:
        return getattr(self.b, f"fold_{fn}")(partial, agg_kp=_PARTIAL, out=out)

    def _scattered_fold(self, spec: ra.AggSpec, scattered: V, attr, out: Keypath) -> V:
        if spec.fn == "count":
            counted = attr if attr is not None else _GID
            return self.b.fold_count(
                scattered, counted_kp=counted, fold_kp=_GID, out=out
            )
        fn = {"sum": "sum", "avg": "sum", "min": "min", "max": "max"}[spec.fn]
        return getattr(self.b, f"fold_{fn}")(
            scattered, agg_kp=attr, fold_kp=_GID, out=out
        )

    def _finish_avgs(self, avgs: list[str], out_rel: V) -> V:
        """avg = sum / count over the (slot-aligned) fold outputs."""
        for out_name in avgs:
            sums = self.b.cast(
                out_rel, "float64", out=_F, source_kp=f".__sum_{out_name}"
            )
            quotient = self.b.divide(
                sums, out_rel, out=_col(out_name),
                left_kp=_F, right_kp=f".__cnt_{out_name}",
            )
            out_rel = self.b.zip(out_rel, quotient)
        return out_rel

    # -- helpers --------------------------------------------------------------------------

    def _temp(self, stem: str) -> str:
        self._fresh += 1
        return f".__{stem}{self._fresh}"

    def _any_column(self, rel: V):
        for path in rel.schema.paths():
            if not path.root.startswith("__"):
                return path
        return rel.schema.paths()[0]

    def _compact_rows(self, rel: V) -> V:
        """Filter-style compaction on row presence (ε padding dropped).

        Anchors on the first visible column — the same row-ness anchor
        ``count(*)`` uses — whose mask is exactly "this slot survived
        every upstream Filter/SemiJoin".
        """
        live = self.b.is_present(rel, out=_LIVE, source_kp=self._any_column(rel))
        chunked = self._with_chunks(self.b.upsert(rel, _LIVE, live, _LIVE))
        positions = self.b.fold_select(
            chunked, sel_kp=_LIVE, fold_kp=_CHUNK, out=_POS
        )
        return self.b.gather(rel, positions, pos_kp=_POS)

    def _with_chunks(self, rel: V, grain: int | None = None) -> V:
        """Attach the parallelism control vector (paper's $intent knob)."""
        grain = grain or self.grain
        ids = self.b.range(rel, out=_ID)
        ctrl = self.b.divide(ids, self.b.constant(grain), out=_CHUNK)
        return self.b.zip(rel, ctrl)

    def _key_positions(self, key: ex.Expr, rel: V, offset: int) -> V:
        key_v, key_kp = self.emit(key, rel)
        if offset:
            key_v = self.b.subtract(
                key_v, self.b.constant(offset), out=_POS, left_kp=key_kp
            )
        else:
            key_v = self.b.project(key_v, key_kp, out=_POS)
        return key_v

    def _positional_build(self, plan: ra.Join) -> bool:
        """True when the build side is a base table positionally addressed
        by a dense, sorted, unique key (no build phase needed).  Reads the
        key's values, so the table's version goes to :attr:`reads`."""
        if not isinstance(plan.build, ra.Scan) or not isinstance(plan.dim_key, ex.Col):
            return False
        table = self.store.table(plan.build.table)
        self.reads[table.name] = table.version
        column = table.column(plan.dim_key.name)
        data = column.data
        if len(data) == 0:
            return False
        expected_min = plan.offset
        return (
            data[0] == expected_min
            and data[-1] == expected_min + len(data) - 1
            and len(data) == plan.domain
            and bool(np.all(np.diff(data) == 1))
        )

    def _group_id(self, keys: tuple[ra.KeySpec, ...], rel: V):
        """Row-major linearization of composite keys into one group id."""
        for key in keys:
            if not isinstance(key.expr, ex.Col):
                raise TranslationError(
                    f"group key {key.name!r} must reference a column; "
                    "compute it with Map first"
                )
        domain = 1
        for key in keys:
            domain *= key.card
        stride = domain
        gid: V | None = None
        for key in keys:
            stride //= key.card
            term_v, term_kp = self.emit(key.expr, rel)
            if key.offset:
                term_v = self.b.subtract(
                    term_v, self.b.constant(key.offset), out=_T, left_kp=term_kp
                )
                term_kp = _T
            if stride != 1:
                term_v = self.b.multiply(
                    term_v, self.b.constant(stride), out=_T, left_kp=term_kp
                )
                term_kp = _T
            if gid is None:
                gid = self.b.project(term_v, term_kp, out=_GID)
            else:
                gid = self.b.add(gid, term_v, out=_GID, left_kp=_GID, right_kp=term_kp)
        return gid, _GID, domain

    # -- expressions ------------------------------------------------------------------------

    def emit(self, expr: ex.Expr, rel: V) -> tuple[V, Keypath]:
        """Lower an expression to (vector, keypath) over the relation."""
        if isinstance(expr, ex.Col):
            path = _col(expr.name)
            if path not in rel.schema:
                raise TranslationError(
                    f"no column {expr.name!r}; visible: "
                    f"{[str(p) for p in rel.schema.paths()]}"
                )
            return rel, path
        if isinstance(expr, ex.Lit):
            const = self.b.constant(expr.value)
            return const, const.only_attr()
        if isinstance(expr, ex.Param):
            raise TranslationError(
                f"unbound parameter :{expr.name}: a parameterized query "
                f"must be executed through engine.prepare(...), binding "
                f"{expr.name}=<value>"
            )
        if isinstance(expr, ex.Arith):
            return self._emit_arith(expr, rel)
        if isinstance(expr, ex.Cmp):
            fn = {"gt": "greater", "ge": "greater_equal", "lt": "less",
                  "le": "less_equal", "eq": "equals", "ne": "not_equals"}[expr.op]
            return self._emit_binary(fn, expr.left, expr.right, rel)
        if isinstance(expr, ex.And):
            return self._emit_binary("logical_and", expr.left, expr.right, rel)
        if isinstance(expr, ex.Or):
            return self._emit_binary("logical_or", expr.left, expr.right, rel)
        if isinstance(expr, ex.Not):
            v, kp = self.emit(expr.operand, rel)
            out = self.b.logical_not(v, out=_V, source_kp=kp)
            return out, _V
        if isinstance(expr, ex.InSet):
            return self._emit_inset(expr, rel)
        if isinstance(expr, ex.Membership):
            return self._emit_membership(expr, rel)
        if isinstance(expr, ex.IfThenElse):
            return self._emit_ifthenelse(expr, rel)
        if isinstance(expr, ex.Cast):
            v, kp = self.emit(expr.operand, rel)
            out = self.b.cast(v, expr.dtype, out=_V, source_kp=kp)
            return out, _V
        if isinstance(expr, ex.ScalarOf):
            return self._emit_scalar_of(expr)
        raise TranslationError(f"cannot translate expression {type(expr).__name__}")

    def _emit_binary(self, fn: str, left: ex.Expr, right: ex.Expr, rel: V):
        lv, lkp = self.emit(left, rel)
        rv, rkp = self.emit(right, rel)
        out = getattr(self.b, fn)(lv, rv, out=_V, left_kp=lkp, right_kp=rkp)
        return out, _V

    def _emit_arith(self, expr: ex.Arith, rel: V):
        lv, lkp = self.emit(expr.left, rel)
        rv, rkp = self.emit(expr.right, rel)
        if expr.op == "div":
            # SQL division is exact: promote integer operands to float.
            if lv.schema[lkp].kind in "iub":
                lv = self.b.cast(lv, "float64", out=_F, source_kp=lkp)
                lkp = _F
        fn = {"add": "add", "sub": "subtract", "mul": "multiply",
              "div": "divide", "idiv": "divide", "mod": "modulo"}[expr.op]
        out = getattr(self.b, fn)(lv, rv, out=_V, left_kp=lkp, right_kp=rkp)
        return out, _V

    def _emit_inset(self, expr: ex.InSet, rel: V):
        v, kp = self.emit(expr.operand, rel)
        acc: V | None = None
        for value in expr.values:
            term = self.b.equals(v, self.b.constant(value), out=_V, left_kp=kp)
            acc = term if acc is None else self.b.logical_or(
                acc, term, out=_V, left_kp=_V, right_kp=_V
            )
        return acc, _V

    def _emit_membership(self, expr: ex.Membership, rel: V):
        aux = self.b.load(expr.aux_name)
        pos = self._key_positions(expr.operand, rel, expr.offset)
        probed = self.b.gather(aux, pos, pos_kp=_POS)
        flag_kp = probed.only_attr()
        return probed, flag_kp

    def _emit_ifthenelse(self, expr: ex.IfThenElse, rel: V):
        """Predication: cond*then + (1-cond)*otherwise (no branches)."""
        cond_v, cond_kp = self.emit(expr.cond, rel)
        then_v, then_kp = self.emit(expr.then, rel)
        else_v, else_kp = self.emit(expr.otherwise, rel)
        cond_i = self.b.cast(cond_v, "int64", out=_C, source_kp=cond_kp)
        picked = self.b.multiply(cond_i, then_v, out=_V, left_kp=_C, right_kp=then_kp)
        inverse = self.b.subtract(self.b.constant(1), cond_i, out=_C, right_kp=_C)
        rejected = self.b.multiply(inverse, else_v, out=_W, left_kp=_C, right_kp=else_kp)
        out = self.b.add(picked, rejected, out=_V, left_kp=_V, right_kp=_W)
        return out, _V

    def _emit_scalar_of(self, expr: ex.ScalarOf):
        sub_rel = self.translate(self.sinking.plan(expr.plan))
        first = self.b.range(1, out=_ONE)
        scalar = self.b.gather(sub_rel, first, pos_kp=_ONE)
        return scalar, _col(expr.column)


def collect_needed_columns(query: ra.Query) -> set[str]:
    """Every column name the query can possibly touch (for scan pruning):
    its selected columns, every column an expression reads, what joins
    pull and what group-bys carry — scalar subqueries' plans included."""
    needed: set[str] = set(query.select)
    seen: set[int] = set()
    composite = (ex.Node, tuple, MappingProxyType)  # what holds more than a leaf value

    def visit(value) -> None:
        if isinstance(value, ex.Col):
            needed.add(value.name)
        elif isinstance(value, ex.Node):
            if id(value) in seen:
                return
            seen.add(id(value))
            if isinstance(value, ra.Join):
                needed.update(value.pull.values())
            elif isinstance(value, ra.GroupBy):
                needed.update(value.carry)
            for name in ex.node_fields(type(value)):
                child = getattr(value, name)
                if isinstance(child, composite):
                    visit(child)
        else:
            for item in (value.values() if isinstance(value, MappingProxyType) else value):
                if isinstance(item, composite):
                    visit(item)

    visit(query.plan)
    return needed
