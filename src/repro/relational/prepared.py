"""Prepared queries: the engine's single execution entry point.

``engine.prepare(query_or_sql)`` returns a :class:`PreparedQuery` — the
query with its literal bind slots
(:class:`~repro.relational.expressions.Param`, ``:name`` in SQL), which
the query listed when it was built, and every execution routed through
the engine's plan cache.  ``engine.query()`` / ``engine.execute()`` are
thin wrappers over it, so ad-hoc and prepared execution share one code
path:

    ready = engine.prepare("select sum(v) as total from t where k <= :hi")
    ready.execute(hi=10).table      # binds, executes through the caches
    ready.bind(hi=10)               # the substituted Query itself
    ready.explain(hi=10)            # how it would run

Binding substitutes :class:`Param` nodes with :class:`Lit` values and is
memoized per value tuple, so a steady-state serving workload cycling
over a fixed parameter set rebuilds no query: it looks up cached plans
(a bound query hashes in O(1)) and compiles nothing.
"""

from __future__ import annotations

from dataclasses import replace
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.relational import expressions as ex
from repro.relational.algebra import Query
from repro.relational.eviction import evict_oldest
from repro.relational.sinking import describe
from repro.relational.translate import Translator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.engine import QueryResult, ResultTable, VoodooEngine


def bind_params(query: Query, values: dict) -> Query:
    """*query* with every :class:`Param` replaced by a bound ``Lit``.

    Structurally identical to hand-building the query with the literals
    in place — the resulting key (hence plan-cache key) is the same,
    which is what lets prepared executions share cache entries with
    ad-hoc ones.  Subtrees without a bind slot are shared, not rebuilt.
    """
    for name, value in values.items():
        if not isinstance(value, (int, float, bool)):
            raise ExecutionError(
                f"parameter {name!r} must bind a numeric/boolean literal, "
                f"got {type(value).__name__} (resolve strings to dictionary "
                f"codes first, as the SQL frontend does)"
            )

    def rebuild(node):
        if isinstance(node, ex.Param):
            return ex.Lit(values[node.name])
        if isinstance(node, ex.Node):
            if not node.param_names:
                return node
            return replace(node, **{name: rebuild(getattr(node, name))
                                    for name in ex.node_fields(type(node))})
        if isinstance(node, tuple):
            return tuple(map(rebuild, node))
        if isinstance(node, MappingProxyType):
            return {key: rebuild(value) for key, value in node.items()}
        return node

    return rebuild(query)


class PreparedQuery:
    """One query bound to one engine.

    Obtained from :meth:`VoodooEngine.prepare`; ``params`` lists the bind
    slots.  Bound queries are memoized per value tuple (capped), so a
    warm execution with recurring parameters binds nothing.
    :meth:`execute` is :meth:`bind` then :meth:`run`; the server calls
    the two on different threads (bind on the event loop, run on a
    worker).
    """

    #: memoized bound-query cap (mirrors the engine's cache capacity)
    BIND_CAPACITY = 256

    def __init__(self, engine: "VoodooEngine", query: Query):
        self.engine = engine
        self.query = query
        self.params: tuple[str, ...] = query.param_names
        #: value tuple -> bound query
        self._bound: dict[tuple, Query] = {}

    # -- binding -----------------------------------------------------------

    def bind(self, **params) -> Query:
        """The substituted :class:`Query` for these parameter values;
        validates them, memoized per value tuple."""
        missing = [name for name in self.params if name not in params]
        if missing:
            raise ExecutionError(
                f"missing parameter(s) {missing}; prepared query takes "
                f"{list(self.params) or 'no parameters'}"
            )
        unknown = [name for name in params if name not in self.params]
        if unknown:
            raise ExecutionError(
                f"unknown parameter(s) {unknown}; prepared query takes "
                f"{list(self.params) or 'no parameters'}"
            )
        if not self.params:
            return self.query
        # keyed by type too: 1, 1.0 and True are equal dict keys but bind
        # different literals
        key = tuple((type(params[name]), params[name]) for name in self.params)
        bound = self._bound.get(key)
        if bound is None:
            bound = bind_params(self.query, params)
            evict_oldest(self._bound, self.BIND_CAPACITY)
            self._bound[key] = bound
        return bound

    # -- execution ---------------------------------------------------------

    def run(self, bound: Query) -> "QueryResult":
        """Execute a query :meth:`bind` returned through the engine's caches."""
        return self.engine._execute_bound(bound)

    def execute(self, **params) -> "QueryResult":
        """Bind and execute; the engine's caches serve repeated shapes."""
        return self.run(self.bind(**params))

    def table(self, **params) -> "ResultTable":
        """:meth:`execute`'s result table (the common serving call)."""
        return self.execute(**params).table

    # -- observability -----------------------------------------------------

    def explain(self, **params) -> str:
        """How this query would execute: backend, cache state, kernels,
        and one line per filter conjunct the translation moved below a
        join (:mod:`repro.relational.sinking`)."""
        bound = self.bind(**params)
        engine = self.engine
        lines = [
            f"prepared query: {len(self.params)} parameter(s) "
            f"{list(self.params)}"
        ]
        cached = engine._cached(engine.cache_key(bound)) is not None
        compiled = engine.compile(bound)
        kernels = "native" if compiled.native else "numpy"
        if engine.execution is not None and engine.execution.workers > 1:
            lines.append(
                f"backend: node runner, {kernels} kernels, thread pool "
                f"({engine.execution.workers} workers) at or above the pool "
                "crossover, otherwise whole"
            )
        elif engine.tracing:
            # (a traced run is whole-program on the NumPy kernels)
            lines.append(
                "backend: node runner, numpy kernels, inline + pricing pass "
                f"(simulated cost), device {engine.options.device}"
            )
        else:
            lines.append(f"backend: node runner, {kernels} kernels, inline")
        lines.append(f"compiled plan cached before this call: {cached}")
        lines.append(f"kernels: {compiled.kernel_count()}")
        translator = Translator(engine.store, grain=engine.grain)
        translator.translate_query(bound)
        lines += [describe(conjunct, join) for conjunct, join in translator.sinking.moves]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(params={list(self.params)}, "
            f"select={self.query.select})"
        )
