#!/usr/bin/env python3
"""perfbench — the repository's benchmark.

    python perfbench/run.py --seed 42                  the whole set: six workloads,
                                                       each in fresh child processes
    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                       one workload (the driver's form)
    python perfbench/run.py compare A.json B.json      verdict per workload x metric
    python perfbench/run.py noise                      the set twice on the same code
    python perfbench/run.py spec                       print BENCHMARK.json from metrics.py

See perfbench/README.md for the workloads, the metrics and the noise rule.
"""

import time

_STARTED = time.perf_counter()  # before the heavy imports: set-up pays for them

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own engine is what gets measured, installed copy or not
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", nargs="?", default="run", choices=("run", "compare", "noise", "spec"))
    parser.add_argument("files", nargs="*", help="compare: two result files")
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured part (default: suite.RUN_SECONDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 laps at SF 0.01: a smoke run, not a measurement")
    parser.add_argument("--out", help="run/noise: where to write the result file")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError:
        print(f"cannot import repro: {ROOT / 'src'} is missing — run perfbench from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    from perfbench import suite

    if args.mode == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result files")
        return suite.compare_files(*args.files)
    if args.files:
        parser.error(f"unexpected argument {args.files[0]!r}")
    if args.mode == "spec":
        print(json.dumps(suite.spec(), indent=2))
        return 0
    seconds = suite.RUN_SECONDS if args.seconds is None else args.seconds
    if args.mode == "noise":
        return suite.noise(args.seed, seconds, args.quick, args.out)
    if args.workload is None:
        return suite.run_set(args.seed, seconds, args.quick, args.out)

    from perfbench import workload

    return workload.run_one(workload.Context(
        workload=args.workload, seed=args.seed, seconds=seconds,
        trace=bool(args.trace), quick=args.quick, started=_STARTED,
    ))


if __name__ == "__main__":
    raise SystemExit(main())
