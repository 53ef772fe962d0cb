"""The query engine: plans (or SQL) in, result tables out.

Wires the whole stack of the paper's Figure 2 together: relational
algebra → Voodoo translation → compiled kernels → Structured Vector
outputs → result extraction (masked slots dropped, dictionary codes
decoded, order-by/limit applied as post-processing, as in section 5.2).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.compiler import CompiledProgram, compile_program
from repro.core.keypath import Keypath
from repro.errors import ExecutionError, TranslationError
from repro.hardware.cost import CostReport
from repro.hardware.trace import Trace
from repro.parallel import ParallelInterpreter
from repro.relational.algebra import Query
from repro.relational.config import EngineConfig
from repro.relational.eviction import evict_oldest
from repro.relational.prepared import PreparedQuery
from repro.relational.translate import Translator
from repro.storage.columnstore import ColumnStore


@dataclass
class ResultTable:
    """A small, fully materialized query result."""

    columns: list[str]
    arrays: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(next(iter(self.arrays.values()))) if self.arrays else 0

    def column(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def rows(self) -> list[tuple]:
        return list(zip(*(self.arrays[c] for c in self.columns)))

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows()]

    def __repr__(self) -> str:
        return f"ResultTable({len(self)} rows x {self.columns})"


@dataclass
class QueryResult:
    """Result plus everything observability needs.

    Untraced and partition-parallel runs show their values to no pricer
    — there is no priced trace to report, so ``trace``/``cost`` are
    empty.
    """

    table: ResultTable
    trace: Trace
    cost: CostReport
    compiled: CompiledProgram
    #: storage I/O this query caused (``bytes_scanned`` /
    #: ``bytes_decompressed`` deltas of the store's counters) — the
    #: observable difference between scanning plain segments, decoding
    #: compressed ones, and folding RLE runs without decoding
    io: dict[str, int] | None = None

    @property
    def milliseconds(self) -> float:
        return self.cost.milliseconds


class VoodooEngine:
    """Executes relational queries through the Voodoo backend.

    Configured by one validated :class:`~repro.relational.config.EngineConfig`
    (``VoodooEngine(store, config=EngineConfig(...))``).  Every execution —
    ``query()``, ``execute()``, SQL text or :class:`Query` objects — routes
    through a
    :class:`~repro.relational.prepared.PreparedQuery` (see
    :meth:`prepare`), so prepared and ad-hoc execution share one entry
    point and one set of caches.

    ``execution.workers=N`` (N > 1) switches execution to the partition-parallel
    backend: queries are translated as usual, then split into chunks
    along control-vector runs and run on an N-wide worker pool, producing
    results bit-identical to the sequential backends.  Chunks and whole
    programs execute on the same node runner
    (:mod:`repro.compiler.runner`) — fusion and multicore compose.

    Every query runs on the node runner (:mod:`repro.compiler.rt_fast`).
    ``tracing=True`` attaches the pricing pass
    (:mod:`repro.compiler.pricing`): the same results plus an operation
    trace and its simulated cost; ``tracing=False`` attaches nothing —
    the serving configuration.  ``tracing``
    defaults to ``True`` for sequential engines and ``False`` for
    parallel ones (the pricer follows one whole-program run; a chunked
    run has no priced trace to collect).  Asking explicitly for
    ``tracing=True`` together with ``workers > 1`` raises
    :class:`~repro.errors.ExecutionError` instead of silently returning
    a trace that prices to zero.

    A parallel engine has one parallel backend, built with the engine.
    It owns nothing but its worker-pool lease (taken on the first pooled
    run) and is **reused across queries**; a run takes its Load context
    as an argument, so parallel queries of concurrent callers overlap.
    Call :meth:`close` (or use the engine as a context manager) to
    release the lease deterministically.

    Compilation artifacts are memoized in a **plan cache** keyed on the
    relational query *structure* (not object identity: a query keys
    itself when it is built) and the store's schema fingerprint;
    options, execution and grain are the engine's own, fixed when it is
    built.  A repeated query skips translate +
    optimize + fragment planning entirely; changing the schema
    invalidates the entry, an append does not.  Each entry also records
    the version of every table whose contents its translation read (a
    positional join's build key); once one moves, the next lookup
    recompiles and counts a miss.
    """

    def __init__(self, store: ColumnStore, config: EngineConfig | None = None):
        config = (config if config is not None else EngineConfig()).resolved()
        self.config = config
        self.store = store
        self.options = config.options
        self.grain = config.grain
        self.execution = config.execution
        self.tracing = config.tracing
        #: the ``workers``-wide backend of a parallel engine (building one
        #: leases nothing: its pool lease is taken on the first pooled run)
        self._parallel_backend = (
            ParallelInterpreter(workers=config.execution.workers,
                                native=config.options.native)
            if config.parallel else None
        )
        self._plan_cache: dict = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: prepared queries, memoized by query structure
        self._prepared: dict = {}
        self._closed = False
        #: serving engines execute concurrently: misses compile (and are
        #: counted) under this lock, hits are counted under the second,
        #: which no compile holds; runs share no mutable state
        self._compile_lock = threading.Lock()
        self._count_lock = threading.Lock()

    def vectors(self):
        """The Load context: the store's memoized table vectors (unshared
        copies) plus its auxiliary vectors read live, so late-registered
        ones (LIKE membership tables) are always visible."""
        return self.store.vectors()

    # -- plan cache ----------------------------------------------------------

    def cache_key(self, query: Query) -> tuple:
        """What a compiled plan of this engine depends on: the query's
        structure (the query itself, which hashes in O(1)) and the store's
        schema (the configuration is fixed, and contents are checked per
        entry)."""
        return query, self.store.fingerprint()

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and size of the plan cache every backend —
        sequential and parallel — compiles through."""
        info = {
            "plan_hits": self.plan_cache_hits,
            "plan_misses": self.plan_cache_misses,
            # always 0: there is one cache; the keys stay for their last
            # reader, perfbench/analytics.py, which sums them into its
            # hit ratio
            "program_hits": 0,
            "program_misses": 0,
            "size": len(self._plan_cache),
            "programs": 0,
        }
        # cumulative storage I/O of this engine's store (all queries, all
        # engines sharing the store): scanned = physical payload bytes
        # read, decompressed = logical bytes decoded from non-plain
        # segments.  Per-query deltas live on QueryResult.io.
        info["storage_bytes_scanned"] = self.store.io.bytes_scanned
        info["storage_bytes_decompressed"] = self.store.io.bytes_decompressed
        if self.options.native:
            from repro.native import snapshot

            for key, value in snapshot().items():
                if key != "fallback_reasons":  # keep the dict flat (ints only)
                    info[f"native_{key}"] = value
        return info

    def clear_plan_cache(self) -> None:
        self._plan_cache.clear()

    # -- compilation ---------------------------------------------------------

    def translate(self, query: Query):
        return Translator(self.store, grain=self.grain).translate_query(query)

    #: entry cap per cache; the key includes literal constants, so a
    #: parameterized workload (same shape, different thresholds) would
    #: otherwise grow a serving engine's memory without bound (appends
    #: add no entries: the key holds the schema, not the contents)
    CACHE_CAPACITY = 256

    def _cached(self, key: tuple) -> CompiledProgram | None:
        """The plan cached under *key*, unless a table whose contents its
        translation read has been appended to since (``None`` then)."""
        entry = self._plan_cache.get(key)
        if entry is None or any(self.store.table(name).version != version
                                for name, version in entry[1]):
            return None
        return entry[0]

    def compile(self, query: Query) -> CompiledProgram:
        """The compiled plan of *query*, through the one plan cache."""
        key = self.cache_key(query)
        compiled = self._cached(key)
        if compiled is None:
            with self._compile_lock:
                compiled = self._cached(key)
                if compiled is None:  # (else: raced another thread's miss)
                    self.plan_cache_misses += 1
                    translator = Translator(self.store, grain=self.grain)
                    compiled = compile_program(translator.translate_query(query), self.options)
                    self._plan_cache.pop(key, None)  # a stale entry is replaced
                    evict_oldest(self._plan_cache, self.CACHE_CAPACITY)
                    self._plan_cache[key] = (compiled, tuple(translator.reads.items()))
                    return compiled
        with self._count_lock:  # `+=` is a read and a write: racing hits would be lost
            self.plan_cache_hits += 1
        return compiled

    # -- execution -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError(
                "engine is closed: its worker pools have been "
                "released.  Construct a new VoodooEngine (close() is "
                "terminal, so a serving layer can lease and release engines "
                "without a released engine silently re-opening pools)."
            )

    def prepare(self, query: Query | str) -> PreparedQuery:
        """Analyze *query* (a :class:`Query` or SQL text) once for repeated
        execution; memoized by query structure, so preparing the same
        shape twice returns the same object."""
        self._check_open()
        if isinstance(query, str):
            from repro.relational.sql import parse_sql

            query = parse_sql(query, self.store)
        prepared = self._prepared.get(query)
        if prepared is None:
            prepared = PreparedQuery(self, query)
            evict_oldest(self._prepared, self.CACHE_CAPACITY)
            self._prepared[query] = prepared
        return prepared

    def execute(self, query: Query | str, **params) -> QueryResult:
        """Execute (via an internally prepared query — the single entry
        point); ``params`` bind any :class:`Param` slots."""
        return self.prepare(query).execute(**params)

    def query(self, query: Query | str, **params) -> ResultTable:
        return self.execute(query, **params).table

    def _execute_bound(self, query: Query) -> QueryResult:
        """Run one fully bound query (every execution funnels through
        here: ad-hoc and prepared alike): one compile step (the plan
        cache) and one run step."""
        self._check_open()
        before = self.store.io.snapshot()
        compiled = self.compile(query)
        if self._parallel_backend is not None:
            # chunked over the persistent worker pool: real kernels on
            # real cores, no priced trace
            outputs = self._parallel_backend.run(compiled.program, self.vectors())
            mode = "native" if compiled.native else "numpy"
            trace = Trace()
            cost = CostReport(device=f"{self.execution.workers}-core pool ({mode})")
        elif not self.tracing:
            outputs, trace = compiled.run(self.vectors(), collect_trace=False)
            cost = CostReport(device=f"{self.options.device} (untraced)")
        else:
            outputs, trace = compiled.run(self.vectors())
            cost = compiled.price(trace)
        return QueryResult(
            table=self._extract(query, outputs["result"]), trace=trace, cost=cost,
            compiled=compiled, io=self.store.io.delta(before),
        )

    def close(self) -> None:
        """Release every worker-pool lease (idempotent, terminal).

        Sequential engines have little to release; parallel engines
        should be closed (or used as context managers) so worker-pool
        leases are released deterministically.  A closed engine raises
        :class:`~repro.errors.ExecutionError` on any further execution:
        the serving layer leases and releases engines, and a released
        engine silently re-opening pools would leak them.
        """
        if self._closed:
            return
        self._closed = True
        if self._parallel_backend is not None:
            self._parallel_backend.close()
        self._prepared.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "VoodooEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- result extraction -------------------------------------------------------

    def _extract(self, query: Query, vector) -> ResultTable:
        paths = [Keypath([name]) for name in query.select]
        have = vector.paths
        missing = [name for name, path in zip(query.select, paths) if path not in have]
        if missing:
            raise TranslationError(
                f"result lacks columns {missing}; has {[str(p) for p in have]}"
            )
        # the present rows as the runner stored them: no padded image is read
        arrays = dict(zip(query.select, vector.rows(paths)))

        order = self._sort_order(query, arrays)
        if order is not None:
            arrays = {name: arr[order] for name, arr in arrays.items()}
        if query.limit is not None:
            arrays = {name: arr[: query.limit] for name, arr in arrays.items()}
        if order is None:  # the table owns its arrays: the vector's are shared
            arrays = {name: arr.copy() for name, arr in arrays.items()}

        decoded: dict[str, np.ndarray] = {}
        for name, arr in arrays.items():
            source = query.decode.get(name)
            if source is not None:
                dictionary = self.store.table(source[0]).dictionary(source[1])
                decoded[name] = np.array(dictionary.decode(arr), dtype=object)
            else:
                decoded[name] = arr
        return ResultTable(columns=list(query.select), arrays=decoded)

    @staticmethod
    def _sort_order(query: Query, arrays: dict[str, np.ndarray]):
        """Row permutation for ORDER BY: stable, so ties keep result order
        in either direction.  A DESC key sorts by its negated dense rank
        — exact for every dtype, where negating the values wraps unsigned
        columns and int64-min and is undefined for bools (NaN ranks as the
        largest value in both directions)."""
        if not query.order_by:
            return None
        keys = []
        for name, desc in reversed(query.order_by):  # lexsort: last key is primary
            col = arrays[name]
            keys.append(-np.unique(col, return_inverse=True)[1] if desc else col)
        return np.lexsort(keys)
