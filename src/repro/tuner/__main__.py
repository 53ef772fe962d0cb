"""Tuning smoke CLI (the CI step)::

    python -m repro.tuner --queries 1 6 19 --scale 0.01 --cache /tmp/t.json

Tunes the given TPC-H queries cold, prints each decision and the set it
raced, and checks the search by counting, not timing: every candidate
that does not run whole was raced, and the choice is a member of the
knob space and — unless it won on confirmed full-store laps — not behind
the default's sample lap by more than ``AutoTuner.KEEP_DEFAULT_MARGIN``.
Then proves the memoization contract: a second tuner loading the same
cache answers every query with a **cache hit and zero measured
trials**.  Exits non-zero if a check fails, a decision changes between
the runs or the warm run measures anything.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.tpch import build, generate
from repro.tuner import AutoTuner, TuningCache


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Auto-tuner smoke: tune queries, assert warm cache hits."
    )
    parser.add_argument("--queries", type=int, nargs="+", default=[1, 6, 19])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--sample-rows", type=int, default=8192)
    parser.add_argument("--cache", default=None,
                        help="tuning-cache path (default: a temp file)")
    args = parser.parse_args(argv)

    cache_path = Path(args.cache) if args.cache else (
        Path(tempfile.mkdtemp(prefix="repro-tuning-")) / "tuning_cache.json"
    )
    store = generate(args.scale, seed=args.seed)
    print(f"tuning {len(args.queries)} queries at scale {args.scale} "
          f"(cache: {cache_path})")

    cold = AutoTuner(store, cache=TuningCache(path=cache_path),
                     sample_rows=args.sample_rows)
    decisions = {}
    failures = 0
    for number in args.queries:
        start = time.perf_counter()
        report = cold.explain(build(store, number))
        decisions[number] = report.chosen
        print(f"  Q{number}: {report.chosen.describe()} "
              f"({report.measured_trials} trials, "
              f"{(time.perf_counter() - start) * 1e3:.0f} ms)")
        print("       raced: " + ", ".join(
            c.config.describe() for c in report.candidates
            if c.measured_seconds is not None))
        unraced = [c.config.describe() for c in report.candidates
                   if not c.whole and c.measured_seconds is None]
        if unraced:
            print(f"FAIL Q{number}: not whole, yet never raced: {', '.join(unraced)}")
            failures += 1
        default, winner = report.candidates[0], next(
            c for c in report.candidates if c.chosen)
        behind = winner.measured_seconds > default.measured_seconds * (
            1 + AutoTuner.KEEP_DEFAULT_MARGIN)
        if winner.config not in cold.space or (
                behind and winner.confirmed_seconds is None):
            print(f"FAIL Q{number}: {winner.config.describe()} is outside the knob "
                  f"space, or behind the default's sample lap and never confirmed")
            failures += 1

    warm = AutoTuner(store, cache=TuningCache(path=cache_path),
                     sample_rows=args.sample_rows)
    for number in args.queries:
        chosen = warm.tune(build(store, number))
        if chosen != decisions[number]:
            print(f"FAIL Q{number}: warm decision {chosen.describe()} != "
                  f"cold {decisions[number].describe()}")
            failures += 1
    if warm.cache.hits != len(args.queries):
        print(f"FAIL: expected {len(args.queries)} cache hits, "
              f"got {warm.cache.hits}")
        failures += 1
    if warm.measured_trials != 0:
        print(f"FAIL: warm run measured {warm.measured_trials} trials, expected 0")
        failures += 1
    if failures:
        return 1
    print(f"warm cache: {warm.cache.hits} hits, 0 measured trials — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
