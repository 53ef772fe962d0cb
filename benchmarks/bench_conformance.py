"""Runtime tracking for the conformance suite itself.

The fuzzing harness only stays in CI if it stays fast: this wrapper
times case generation + the interpreter anchor + the full backend grid
+ the oracle, so a regression in *suite* throughput (cases/second) is as
visible as a regression in query speed.  The smoke variant runs a small batch; the
``slow`` variant times the full 2000-case sweep the nightly soak uses.
"""

import pytest

from repro.testing import BACKEND_GRID, run_conformance

SMOKE_CASES = 15
SWEEP_CASES = 2000


def test_conformance_smoke_runtime(benchmark, capsys):
    failures = benchmark.pedantic(
        lambda: run_conformance(SMOKE_CASES, seed=0, dump_dir=None),
        rounds=1, iterations=1,
    )
    assert failures == [], [str(f) for f in failures]
    seconds = benchmark.stats.stats.mean
    with capsys.disabled():
        print(f"\n  conformance: {SMOKE_CASES} cases x {len(BACKEND_GRID)} "
              f"backends in {seconds:.2f}s ({SMOKE_CASES / seconds:.1f} cases/s)")


@pytest.mark.slow
def test_conformance_sweep_runtime(benchmark, capsys):
    failures = benchmark.pedantic(
        lambda: run_conformance(SWEEP_CASES, seed=0, dump_dir=None),
        rounds=1, iterations=1,
    )
    assert failures == [], [str(f) for f in failures]
    seconds = benchmark.stats.stats.mean
    with capsys.disabled():
        print(f"\n  conformance sweep: {SWEEP_CASES} cases x {len(BACKEND_GRID)} "
              f"backends in {seconds:.1f}s ({SWEEP_CASES / seconds:.1f} cases/s)")
