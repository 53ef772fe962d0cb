"""Where the worker pool starts to pay: the ladder behind ``POOL_CROSSOVER``.

The partition-parallel backend cuts a program into chunks along its
control-vector runs (the paper's §3.1 controlled folding; Figures 3–4
are one run per core).  Whether those chunks should run on the worker
pool at all, or the program run whole on the calling thread, is a
question of size: a pool hand-off costs thread wake-ups and GIL
contention that only enough NumPy work per chunk pays back.  The planner
answers it with one constant, :data:`repro.parallel.planner.POOL_CROSSOVER`,
compared against each plan's ``work`` (rows per chunk x nodes a chunk
evaluates).  This script measures the curve that constant is fitted from.

For every point of a size ladder — the three micro queries over 2^14 ..
2^22 fact rows, the 14 TPC-H queries at SF 0.005 .. 0.2 — it times a
warm ``execute()`` two ways, interleaved, and reports medians:

* ``pool``  — a 2-worker engine whose plans send their chunks to the pool;
* ``whole`` — a 2-worker engine whose programs all run whole;

then the faster of the two, the schedule the current constant chooses
for that plan, and the constant that would have chosen best over the
whole ladder.  Every result is checked bit-identical across the two
engines.

Run:  python examples/parallel_crossover.py             the whole ladder (~10 min)
      python examples/parallel_crossover.py --smallest  one point per family (a smoke run)
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro import tpch
from repro.compiler import ExecutionOptions
from repro.parallel import PartitionPlanner, planner
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import ColumnStore, Table
from repro.testing import crossover

WORKERS = 2
MICRO_ROWS = (1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22)
TPCH_SCALES = (0.005, 0.02, 0.05, 0.1, 0.2)
MICRO_SQL = {
    "select": "SELECT SUM(v2) AS total FROM facts WHERE v1 <= 0.1",
    "project": "SELECT SUM(v1 * v2 + w) AS total FROM facts WHERE v1 <= 0.2",
    "groupby": ("SELECT k, SUM(v1) AS s1, SUM(v2) AS s2, COUNT(*) AS cnt, MAX(w) AS top "
                "FROM facts WHERE w <= 95 GROUP BY k ORDER BY k"),
}
#: a chosen schedule within this factor of the faster one is within noise
NOISE = 1.10


def micro_store(rows: int) -> ColumnStore:
    rng = np.random.default_rng(1)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "facts",
        k=rng.integers(0, 12, rows).astype(np.int64),
        g=rng.integers(0, 100, rows).astype(np.int64),
        v1=rng.random(rows),
        v2=rng.random(rows),
        w=rng.integers(0, 100, rows).astype(np.int64),
    ))
    return store


def same(a, b) -> bool:
    return a.columns == b.columns and all(
        np.array_equal(a.column(c), b.column(c), equal_nan=a.column(c).dtype.kind == "f")
        for c in a.columns)


def measure(store: ColumnStore, queries: dict, budget_s: float) -> list[dict]:
    """One row per query: plan work and the median ms of each schedule."""
    parallel = EngineConfig(execution=ExecutionOptions(workers=WORKERS))
    engines = {
        "pool": (VoodooEngine(store, config=parallel), 0),
        "whole": (VoodooEngine(store, config=parallel), float("inf")),
    }
    rows = []
    try:
        for name, query in queries.items():
            prepared, tables = {}, {}
            for mode, (engine, value) in engines.items():
                with crossover(value):
                    prepared[mode] = engine.prepare(query)
                    tables[mode] = prepared[mode].execute().table  # warm: plans made
            assert same(tables["pool"], tables["whole"]), name
            program = prepared["whole"].execute().compiled.program
            with crossover(0):  # the work of the plan however it runs
                plan = PartitionPlanner(program, store.vectors(), WORKERS).plan()
            samples: dict = {mode: [] for mode in engines}
            deadline = time.perf_counter() + budget_s
            while len(samples["whole"]) < 3 or (
                    len(samples["whole"]) < 15 and time.perf_counter() < deadline):
                for mode, (engine, value) in engines.items():
                    with crossover(value):
                        start = time.perf_counter()
                        prepared[mode].execute()
                        samples[mode].append((time.perf_counter() - start) * 1e3)
            ms = {mode: statistics.median(times) for mode, times in samples.items()}
            work = plan.work if plan.parallel else 0
            chosen = "pool" if work and work >= planner.POOL_CROSSOVER else "whole"
            rows.append({"query": name, "work": work, "chosen": chosen, **ms})
    finally:
        for engine, _ in engines.values():
            engine.close()
    return rows


def fit(rows: list[dict]) -> int:
    """The crossover that loses the least time to the wrong schedule over
    every measured plan (ties: the smallest such constant)."""
    chunked = [row for row in rows if row["work"]]
    works = sorted({row["work"] for row in chunked})
    candidates = [0, *works, works[-1] + 1 if works else 1]  # (the last: every plan whole)

    def regret(limit: int) -> float:
        return sum(row["pool" if row["work"] >= limit else "whole"]
                   - min(row["pool"], row["whole"]) for row in chunked)

    return min(candidates, key=lambda limit: (regret(limit), limit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smallest", action="store_true",
                        help="only the smallest point of each family")
    parser.add_argument("--budget", type=float, default=0.6,
                        help="seconds of repetitions per query and point")
    args = parser.parse_args(argv)
    micro_rows = MICRO_ROWS[:1] if args.smallest else MICRO_ROWS
    scales = TPCH_SCALES[:1] if args.smallest else TPCH_SCALES

    print(f"POOL_CROSSOVER = {planner.POOL_CROSSOVER:,}  ({WORKERS} workers; ms are medians)")
    print(f"{'point':<14}{'query':<9}{'work':>13}{'pool':>9}{'whole':>9}  faster  chosen")
    def points():  # one store alive at a time
        for n in micro_rows:
            yield f"micro 2^{n.bit_length() - 1}", micro_store(n), MICRO_SQL
        for sf in scales:
            store = tpch.generate(sf, seed=1)
            yield (f"tpch sf {sf}", store,
                   {f"q{n}": tpch.build(store, n) for n in sorted(tpch.QUERIES)})

    rows, off = [], 0
    for label, store, queries in points():
        for row in measure(store, queries, args.budget):
            faster = "pool" if row["pool"] < row["whole"] else "whole"
            miss = row[row["chosen"]] > NOISE * row[faster]
            off += miss
            print(f"{label:<14}{row['query']:<9}{row['work']:>13,}{row['pool']:>9.2f}"
                  f"{row['whole']:>9.2f}  {faster:<7} {row['chosen']}"
                  f"{'  <- off' if miss else ''}")
            rows.append(row)
    print(f"\nbest-fitting crossover over these {len(rows)} plans: {fit(rows):,}; "
          f"{off} chosen schedule(s) more than {NOISE - 1:.0%} slower than the faster one")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
