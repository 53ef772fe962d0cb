"""perfbench's own seeded inputs: the micro fact table, the serving
dataset, append batches and ad-hoc parameter draws.  The engine sees
only what is generated here and by ``repro.tpch.generate(seed=)``."""

from __future__ import annotations

import numpy as np

from repro.storage import ColumnStore, Table
from repro.tpch import queries as tpch_queries
from repro.tpch.schema import SHIP_MODES, date

KEY_CARD = 12
GROUP_CARD = 100

MICRO_SQL = {
    "micro.select": "SELECT SUM(v2) AS total FROM facts WHERE v1 <= 0.1",
    "micro.project": "SELECT SUM(v1 * v2 + w) AS total FROM facts WHERE v1 <= 0.2",
    "micro.groupby": (
        "SELECT k, SUM(v1) AS s1, SUM(v2) AS s2, COUNT(*) AS cnt, MAX(w) AS top "
        "FROM facts WHERE w <= 95 GROUP BY k ORDER BY k"
    ),
}


def _facts(rng: np.random.Generator, rows: int) -> Table:
    return Table.from_arrays(
        "facts",
        k=rng.integers(0, KEY_CARD, rows).astype(np.int64),
        g=rng.integers(0, GROUP_CARD, rows).astype(np.int64),
        v1=rng.random(rows),
        v2=rng.random(rows),
        w=rng.integers(0, 100, rows).astype(np.int64),
    )


def micro_store(rows: int, seed: int) -> ColumnStore:
    store = ColumnStore(meta={"generator": "perfbench.data.micro_store",
                              "seed": seed, "rows": rows})
    store.add(_facts(np.random.default_rng([seed, 1]), rows))
    return store


def serving_store(rows: int, seed: int) -> ColumnStore:
    """``facts`` for the scans and the wide group-by, ``tiny`` (1 k rows)
    for the lookup whose cost is transport and hand-off, not the engine."""
    rng = np.random.default_rng([seed, 2])
    store = ColumnStore(meta={"generator": "perfbench.data.serving_store",
                              "seed": seed, "rows": rows})
    store.add(_facts(rng, rows))
    store.add(Table.from_arrays(
        "tiny",
        id=np.arange(1000, dtype=np.int64),
        v=rng.random(1000),
    ))
    return store


def append_batches(store: ColumnStore, count: int, rows: int, seed: int) -> list[dict]:
    """*count* lineitem batches of *rows* rows, resampled from the rows the
    store was generated with (so foreign keys stay valid and the string
    dictionaries do not grow)."""
    rng = np.random.default_rng([seed, 3])
    table = store.table("lineitem")
    columns = {name: col.decoded() for name, col in table.columns.items()}
    batches = []
    for _ in range(count):
        pick = rng.integers(0, len(table), rows)
        batches.append({
            name: [values[i] for i in pick] if isinstance(values, list) else values[pick]
            for name, values in columns.items()
        })
    return batches


# -- ad-hoc templates -------------------------------------------------------

_SQL_Q1 = (
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= {cutoff} "
    "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
)
_SQL_Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= {lo} AND l_shipdate < {hi} "
    "AND l_discount BETWEEN {low!r} AND {high!r} AND l_quantity < {quantity}"
)

#: template name -> TPC-H reference number; ``sql_*`` are SQL *text* with
#: inline literals, the rest ``repro.tpch.queries.qN(store, **params)``
ADHOC_TEMPLATES = {"q1": 1, "q4": 4, "q6": 6, "q10": 10, "q12": 12, "q14": 14,
                   "sql_q1": 1, "sql_q6": 6}


def _draw(rng: np.random.Generator, template: str) -> dict:
    """Substitution parameters over domains wide enough (dates by day,
    discounts by 1e-4) that a repeat within a run is rare."""
    year = int(rng.integers(1993, 1998))
    if template in ("q1", "sql_q1"):
        return {"delta_days": int(rng.integers(30, 1200))}
    if template in ("q4", "q10", "q14"):
        return {"start": (year, int(rng.integers(1, 13)), int(rng.integers(1, 29)))}
    if template in ("q6", "sql_q6"):
        # an odd multiple of 5e-5: the +-0.011 window edges never fall on
        # a generated discount (multiples of 0.01), so text and plan agree
        discount = 0.02 + (2 * int(rng.integers(0, 700)) + 1) * 0.00005
        return {"start_year": year, "discount": discount,
                "quantity": int(rng.integers(10, 51))}
    first, second = rng.choice(len(SHIP_MODES), 2, replace=False)
    return {"mode1": SHIP_MODES[first], "mode2": SHIP_MODES[second], "start_year": year}


def adhoc_draws(count: int, seed: int, stream: int) -> list[tuple[str, dict]]:
    """*count* (template, params) pairs, round-robin over the templates."""
    rng = np.random.default_rng([seed, 4, stream])
    names = list(ADHOC_TEMPLATES)
    return [(names[i % len(names)], _draw(rng, names[i % len(names)])) for i in range(count)]


def adhoc_query(store: ColumnStore, template: str, params: dict):
    """What the caller hands to ``engine.execute``: a Query, or SQL text."""
    if template == "sql_q1":
        return _SQL_Q1.format(cutoff=date(1998, 12, 1) - params["delta_days"])
    if template == "sql_q6":
        year = params["start_year"]
        return _SQL_Q6.format(
            lo=date(year, 1, 1), hi=date(year + 1, 1, 1),
            low=params["discount"] - 0.011, high=params["discount"] + 0.011,
            quantity=params["quantity"],
        )
    return getattr(tpch_queries, template)(store, **params)
