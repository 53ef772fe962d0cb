"""What every workload shares: the run context, the round recorder that
applies the noise rule, the set-up timer, and provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import calibrate
from perfbench.metrics import geomean, mean, median, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: full set-ups per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 5
#: laps (slices on serving_closed) of the traced pass
TRACE_LAPS = 3


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    #: perf_counter() when the process entered run.py, before the imports
    started: float
    #: scratch space inside the checkout, removed when the run ends
    tmp: Path = field(default_factory=lambda: OUT_DIR / f"tmp-{os.getpid()}")

    def rounds(self, per_second: float) -> int:
        """Measured rounds: a fixed count for a given ``--seconds``, so
        both sides of a comparison do identical work."""
        if self.quick:
            return 2
        # a traced run spends half its time in the traced pass
        return max(2, round(per_second * self.seconds / (2 if self.trace else 1)))

    @property
    def trace_laps(self) -> int:
        return 1 if self.quick else TRACE_LAPS

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Round:
    wall_ms: float
    samples: list  # (op name, raw ms)
    before_ms: float
    after_ms: float

    @property
    def factor(self) -> float:
        return calibrate.factor(self.before_ms, self.after_ms)


class Recorder:
    """Measured rounds with the calibration kernel run before the first
    and after every one."""

    def __init__(self, kernel_ms=calibrate.kernel_ms) -> None:
        self._kernel_ms = kernel_ms
        self.kernel = [kernel_ms()]
        self.rounds: list[Round] = []

    def add(self, wall_ms: float, samples: list) -> Round:
        after = self._kernel_ms()
        done = Round(wall_ms, samples, self.kernel[-1], after)
        self.kernel.append(after)
        self.rounds.append(done)
        return done

    def per_op(self, normalised: bool = True) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for done in self.rounds:
            scale = done.factor if normalised else 1.0
            for name, ms in done.samples:
                out.setdefault(name, []).append(ms * scale)
        return out

    def op_medians(self, normalised: bool = True) -> dict[str, float]:
        return {name: median(v) for name, v in self.per_op(normalised).items()}

    def latency_geomean_ms(self, normalised: bool = True) -> float:
        return geomean(self.op_medians(normalised).values())

    def throughput_qps(self, normalised: bool = True) -> float:
        """Ops completed per second of the median round (rounds do equal
        work, so the median round stands for all and one stalled round
        does not move the result)."""
        ops = median(len(done.samples) for done in self.rounds)
        round_ms = median(
            done.wall_ms * (done.factor if normalised else 1.0) for done in self.rounds)
        return ops / (round_ms / 1000.0)

    def calibration_rows(self) -> dict[str, float]:
        return {
            "calib.kernel_ms_p50": median(self.kernel),
            "calib.kernel_ms_min": min(self.kernel),
            "calib.spread_p90_p10": (
                (percentile(self.kernel, 0.9) - percentile(self.kernel, 0.1))
                / median(self.kernel)
            ),
        }


class Workload:
    """What ``perfbench.workload.run_one`` drives.  A subclass builds its
    inputs in :meth:`setup`, does one measured round in :meth:`round`,
    checks its answers in :meth:`verify` and replays ops under spans in
    :meth:`trace`."""

    #: measured rounds per second of ``--seconds`` (a fixed count per run)
    rounds_per_second = 2.5

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: set-up seconds spent while native kernels were being compiled
        self.jit_s = 0.0
        #: named parts of the last set-up, raw seconds (per-layer rows)
        self.setup_parts: dict[str, float] = {}
        #: QueryResult.io summed over every timed op
        self.io = {"bytes_scanned": 0, "bytes_decompressed": 0}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict:
        """Cumulative counters, read before and after the measured rounds."""
        raise NotImplementedError

    def prepare_round(self, index: int):
        """Untimed work a round needs (building queries, say)."""
        return index

    def round(self, work, gate) -> list:
        """One measured round; returns its (op name, raw ms) samples."""
        raise NotImplementedError

    def measure(self, recorder: Recorder, gate) -> None:
        for index in range(self.ctx.rounds(self.rounds_per_second)):
            work = self.prepare_round(index)
            start = time.perf_counter()
            samples = self.round(work, gate)
            recorder.add((time.perf_counter() - start) * 1000.0, samples)

    def timed(self, name: str, call, samples: list, gate):
        """Time one engine call as op *name*; an exception is a failed
        op, not a failed benchmark."""
        gate.timed(1)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as error:
            gate.fail(f"{name}: {type(error).__name__}: {error}")
            return None
        samples.append((name, (time.perf_counter() - start) * 1000.0))
        for key in self.io:
            self.io[key] += (result.io or {}).get(key, 0)
        return result

    def gates(self, gate, delta: dict) -> None:
        """Conditions on the measured rounds' counters (hit ratios, ...)."""

    def verify(self, gate) -> dict:
        """The correctness gate; returns result digests by op."""
        return {}

    def trace(self, spans, recorder: Recorder, gate) -> dict:
        """The traced pass; returns per-layer rows."""
        raise NotImplementedError

    def layer_rows(self, recorder: Recorder, delta: dict, setup: dict) -> dict:
        """Per-layer rows taken from the untraced rounds and counters."""
        return {}


def cache_rows(delta: dict) -> dict:
    lookups = delta["hits"] + delta["misses"]
    return {
        "relational.plan_cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "relational.plan_cache_misses": delta["misses"],
        "relational.plan_cache_evictions": delta["misses"] - delta["entries"],
    }


def io_rows(delta: dict) -> dict:
    scanned = delta["bytes_scanned"]
    return {
        "storage.bytes_scanned": scanned,
        "storage.bytes_decompressed": delta["bytes_decompressed"],
        "storage.decode_ratio": delta["bytes_decompressed"] / scanned if scanned else 0.0,
    }


def timed_setup(setup) -> tuple[float, float]:
    """Run ``setup()`` between two kernel runs; (raw seconds, factor)."""
    before = calibrate.kernel_ms()
    start = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - start
    return elapsed, calibrate.factor(before, calibrate.kernel_ms())


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def table_digest(table) -> str:
    """sha256 over dtype + shape + bytes per column (decoded string
    columns hash their text: object arrays hold pointers, not data)."""
    h = hashlib.sha256()
    for name in table.columns:
        array = table.arrays[name]
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        if array.dtype.kind == "O":
            h.update("\0".join(map(str, array)).encode())
        else:
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository; no subprocess leaves the tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            return ref.read_text().strip() if ref.exists() else text[5:]
        return text
    except OSError:
        return "unknown"


def _cc_version() -> str:
    from repro.native import find_compiler

    compiler = find_compiler()
    if compiler is None:
        return "none"
    try:
        out = subprocess.run([*compiler, "--version"], capture_output=True,
                             text=True, timeout=20).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.splitlines()[0] if out else "unknown"


def provenance(ctx: Context, recorder: Recorder, counts: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": _cc_version(),
        "nproc": os.cpu_count(),
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "quick": ctx.quick,
        "reference_ms": calibrate.REFERENCE_MS,
        "calibration": recorder.calibration_rows(),
        **counts,
    }


def layer_ms(spans, name: str) -> float:
    """A timing row: the mean over ops of each op's median span."""
    per_op: dict[str, list[float]] = {}
    for record in spans.by_name(name):
        per_op.setdefault(record.op.split("#")[0], []).append(record.ms)
    return mean(median(v) for v in per_op.values()) if per_op else 0.0
