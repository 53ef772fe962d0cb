"""A cached plan outlives an append.

The plan-cache key is the query's structure and the store's schema, so
an append keeps every plan whose translation read no table contents; a
plan whose translation did read one (a positional join checks its build
key's density) recompiles once that table's version moves.  For three
appends, on each configuration that runs differently — untraced inline,
traced, and pooled over two workers with every plan chunked — the 14
TPC-H queries are rebuilt on the appended store and run on the warm
engine: the hits and misses are pinned, every result is bit-identical to
a fresh engine's, and the program every plan runs prints as a fresh
engine's does.
"""

import numpy as np
import pytest

from repro.compiler import ExecutionOptions
from repro.core.printer import to_ssa
from repro.errors import ExecutionError
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate

CONFIGS = {
    "untraced": EngineConfig(tracing=False),
    "traced": EngineConfig(tracing=True),
    "pooled-w2": EngineConfig(execution=ExecutionOptions(workers=2)),
}


def resampled(store, table: str, rows, **override) -> dict:
    """A batch of *table*'s own *rows* (strings decoded), with the
    columns in *override* replaced."""
    batch = {}
    for name, col in store.table(table).columns.items():
        values = col.decoded()
        batch[name] = np.asarray(values, dtype=object if col.dictionary else None)[rows]
    batch.update(override)
    return batch


def lineitem_resampled(store) -> tuple[str, dict]:
    """Rows like the ones there: stats and dictionaries stay, every plan
    and every rebuilt query is reused."""
    rows = np.random.default_rng(5).integers(0, len(store.table("lineitem")), 64)
    return "lineitem", resampled(store, "lineitem", rows)


def lineitem_new_shipmode(store) -> tuple[str, dict]:
    """A new ``l_shipmode`` string shifts the dictionary codes, so the
    queries that compare against ship modes (Q12, Q19) rebuild with other
    literals."""
    rows = np.random.default_rng(6).integers(0, len(store.table("lineitem")), 64)
    return "lineitem", resampled(store, "lineitem", rows, l_shipmode=["BARGE"] * 64)


def orders_dense_row(store) -> tuple[str, dict]:
    """The next order key: ``orders`` stays dense, its key domain grows,
    so every query joining it rebuilds with the new domain."""
    key = store.table("orders").column("o_orderkey").max + 1
    return "orders", resampled(store, "orders", [0], o_orderkey=[key])


#: append -> (its batch, pinned hits, pinned misses of the 14 rebuilt queries)
APPENDS = {
    "lineitem-resampled": (lineitem_resampled, 14, 0),
    "lineitem-new-shipmode": (lineitem_new_shipmode, 12, 2),
    "orders-dense-row": (orders_dense_row, 7, 7),
}


def engine_for(store, label: str) -> VoodooEngine:
    engine = VoodooEngine(store, config=CONFIGS[label])
    if engine._parallel_backend is not None:
        engine._parallel_backend._effective = 2  # a real pool, also on a 1-CPU host
    return engine


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


@pytest.mark.parametrize("append", sorted(APPENDS))
@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_rebuilt_queries_reuse_their_plans_after_an_append(label, append):
    make_batch, hits, misses = APPENDS[append]
    store = generate(0.002, seed=7)
    with engine_for(store, label) as engine:
        warm = {n: engine.execute(build(store, n)).compiled for n in sorted(QUERIES)}
        store.append(*make_batch(store))
        before = engine.cache_info()
        results = {n: engine.execute(build(store, n)) for n in sorted(QUERIES)}
        after = engine.cache_info()
        assert (after["plan_hits"] - before["plan_hits"],
                after["plan_misses"] - before["plan_misses"]) == (hits, misses)
        assert after["size"] == 14 + misses
        assert sum(results[n].compiled is warm[n] for n in results) == hits
        with engine_for(store, label) as fresh:
            for number, result in results.items():
                expected = fresh.execute(build(store, number))
                got = result.table
                assert got.columns == expected.table.columns, number
                for column in got.columns:
                    a, b = expected.table.column(column), got.column(column)
                    assert a.dtype == b.dtype, (number, column)
                    assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), (number, column)
                assert to_ssa(result.compiled.program) == to_ssa(expected.compiled.program), number


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_kept_q14_after_an_append_names_the_dropped_aux_vector(label):
    """Building Q14 registers its LIKE membership vector; an append drops
    it, so a Q14 kept from before reuses its plan and finds the vector
    gone: an ``ExecutionError`` naming it, not a ``KeyError`` and not a
    table computed from something else."""
    store = generate(0.002, seed=7)
    with engine_for(store, label) as engine:
        kept = build(store, 14)
        engine.execute(kept)
        store.append(*lineitem_resampled(store))
        with pytest.raises(ExecutionError, match="aux:p_type:PROMO%"):
            engine.execute(kept)
        rebuilt = engine.execute(build(store, 14))
        with engine_for(store, label) as fresh:
            assert rebuilt.table.rows() == fresh.query(build(store, 14)).rows()
