"""The frozen calibration kernel and the speed normaliser.

The sandbox this benchmark runs on speeds up and slows down in 5-10 s
waves and minute-scale drifts while wall time equals CPU time (the
process is not descheduled; the machine itself changes speed).  Every
timing metric is therefore *speed-normalised*: a fixed NumPy kernel is
timed before the first and after every measured round, and each sample
of a round is multiplied by ``REFERENCE_MS / mean(kernel before, after)``.

The kernel and ``REFERENCE_MS`` are frozen: changing either re-bases
every timing metric, so a change to this file is a change to the
benchmark (its own PR, baseline re-measured after).  The kernel uses
NumPy only — never the engine — so an engine change cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: about the kernel's median on the sandbox the benchmark was defined on;
#: normalised values read as "milliseconds on a machine that runs the
#: kernel in REFERENCE_MS"
REFERENCE_MS = 40.0

_SEED = 20160901  # PVLDB 9(14), the source paper
_N = 1 << 20


class _Inputs:
    """Kernel inputs, built once per process on first use (importing this
    module allocates nothing)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        self.a = rng.random(_N)
        self.b = rng.random(_N)
        self.keys = rng.integers(0, 64, _N)
        self.gather = rng.integers(0, _N, _N >> 1)


_inputs: _Inputs | None = None


def kernel_ms() -> float:
    """Run the calibration kernel once; its wall time in milliseconds.

    The sandbox's slow phases hit interpreter- and compute-bound code
    harder than memory-bound code (measured: a pure-Python loop swings
    36 % where a streaming pass swings 20 % and a TPC-H lap 27 %), so the
    kernel blends both in roughly the proportion a lap does — about 60 %
    compute (a Python dict loop, small-array operators, a sort) and 40 %
    memory (filter + grouped sum, a 2^19-element gather, a streaming
    scale-add / compare / masked sum).  With this blend 20-lap medians of
    TPC-H lap time divided by kernel time spread 2 % while the raw
    medians spread 27 %.
    """
    global _inputs
    if _inputs is None:
        _inputs = _Inputs()
    x = _inputs
    start = time.perf_counter()
    # interpreter: a dict-updating loop, twice 40 000 iterations
    counts: dict[int, int] = {}
    for i in range(80_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    sink = float(counts[7])
    # small-array operators: allocator and per-call overhead
    small = x.a[: 1 << 15]
    for _ in range(45):
        step = small * 1.01 + 0.5
        sink += step[step > 1.0].sum()
    # sort
    for lo in (0, 1 << 17):
        sink += float(np.argsort(x.a[lo: lo + (1 << 17)])[0])
    # filter -> positions -> grouped sum
    pos = np.flatnonzero(x.a <= 0.3)
    value = x.a[pos] * (1.0 - x.b[pos])
    sink += np.bincount(x.keys[pos], weights=value, minlength=64)[0]
    # gather
    sink += x.a[x.gather].sum()
    # streaming scale-add, compare, masked sum
    half = x.b[: _N >> 1]
    scaled = half * 1.0001 + 0.5
    sink += scaled.sum(where=scaled > 1.0)
    elapsed = (time.perf_counter() - start) * 1000.0
    if not sink > 0.0:  # consumes the results; cannot happen
        raise AssertionError("calibration kernel produced no output")
    return elapsed


def factor(before_ms: float, after_ms: float) -> float:
    """Multiplier that maps a raw duration measured between two kernel
    runs onto the reference machine."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2.0)
