"""Auto-tuning demo (the paper's section 5.3, without the hand).

One engine, one extra argument: ``VoodooEngine(store, config=EngineConfig(tuning="auto"))``.
Per query, the tuner searches the knobs untraced execution reads —
virtual scatter, worker count, the native C tier — by measurement
alone: the candidates race in wall-clock on a sampled store, near-ties
are confirmed on the full store, and the tuner then memoizes the
winner so the search never repeats (persist it across restarts with
``tuning_cache="path.json"``).  The engine runs whatever
is chosen itself: a configuration is a value, not another engine.

Run:  python examples/auto_tuning.py
"""

import time

from repro.relational import EngineConfig, VoodooEngine
from repro.tpch import build, generate

QUERIES = (1, 6, 19)


def main():
    store = generate(0.02, seed=42)

    print("=" * 72)
    print("COLD: first execution tunes (search cost paid once, memoized)")
    print("=" * 72)
    with VoodooEngine(store, config=EngineConfig(tuning="auto")) as engine:
        for number in QUERIES:
            start = time.perf_counter()
            engine.query(build(store, number))
            cold_ms = (time.perf_counter() - start) * 1e3
            report = engine.explain_tuning(build(store, number))
            print(f"\nQ{number} ({cold_ms:.0f} ms including tuning):")
            print(report.render())

        print()
        print("=" * 72)
        print("WARM: decisions memoized — repeated queries just execute")
        print("=" * 72)
        for number in QUERIES:
            start = time.perf_counter()
            engine.query(build(store, number))
            print(f"Q{number}: {(time.perf_counter() - start) * 1e3:7.1f} ms "
                  "(no search, no trials)")
        info = engine.cache_info()
        print(f"\ntuning cache: {info['tuning_misses']} cold searches, "
              f"{info['tuning_entries']} memoized decisions; plan cache: "
              f"{info['plan_misses']} compiles, {info['plan_hits']} hits")
        assert info["tuning_misses"] == info["tuning_entries"] == len(QUERIES)
        assert info["plan_misses"] == len(QUERIES)  # one plan per decision
        assert info["plan_hits"] == len(QUERIES)  # ... reused when warm

    print()
    print("take-away: the engine picks the paper's knobs per query, per")
    print("machine — results are bit-identical to the static default, and a")
    print('persistent cache (tuning_cache="tuning.json") survives restarts.')


if __name__ == "__main__":
    main()
