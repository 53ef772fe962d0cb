"""Run one workload in this process and print its result (the form the
driver calls: ``--workload NAME --seed N --seconds S --trace 0|1``)."""

from __future__ import annotations

import json
import os
import shutil
import time

from perfbench import checks
from perfbench.harness import (
    OUT_DIR,
    SETUP_REPEATS,
    Context,
    Recorder,
    peak_rss_mb,
    provenance,
    timed_setup,
)
from perfbench.metrics import END_TO_END_NAMES, PER_LAYER_NAMES, UNITS, WORKLOADS, median
from perfbench.spans import SpanRecorder

__all__ = ["Context", "run_one"]


def _build(ctx: Context):
    if ctx.workload.startswith("analytics_"):
        from perfbench.analytics import Analytics
        return Analytics(ctx)
    if ctx.workload == "adhoc_cold":
        from perfbench.adhoc import AdhocCold
        return AdhocCold(ctx)
    if ctx.workload == "serving_closed":
        from perfbench.serving import ServingClosed
        return ServingClosed(ctx)
    from perfbench.storage import StorageAppend
    return StorageAppend(ctx)


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def run_one(ctx: Context) -> int:
    if ctx.workload not in WORKLOADS:
        print(f"unknown workload {ctx.workload!r}; have {sorted(WORKLOADS)}")
        return 2
    # hermetic: native kernels are cached under the run's own scratch
    # directory, never in ~/.cache
    os.environ["REPRO_NATIVE_CACHE"] = str(ctx.tmp / "native-cache")
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)


def _run(ctx: Context) -> int:
    imports_s = time.perf_counter() - ctx.started
    bench = _build(ctx)
    gate = checks.Gate()

    # set-up, several times over: the run reports the median
    setups = []
    for repeat in range(1 if ctx.trace or ctx.quick else SETUP_REPEATS):
        if repeat:
            bench.teardown()
        raw_s, factor = timed_setup(bench.setup)
        setups.append({"raw_s": raw_s, "factor": factor, "jit_s": bench.jit_s,
                       "parts": dict(bench.setup_parts)})
    # a process JIT-compiles a kernel once: later set-ups find it in memory,
    # so each is charged the first set-up's compile time instead
    jit_s = setups[0]["jit_s"]
    setup_s = imports_s + median(
        (s["raw_s"] - s["jit_s"] + jit_s) * s["factor"] for s in setups)

    try:
        recorder = Recorder()
        before = bench.counters()
        bench.measure(recorder, gate)
        delta = _delta(before, bench.counters())
        bench.gates(gate, delta)
        digests = bench.verify(gate)

        layers = dict.fromkeys(PER_LAYER_NAMES, 0.0)
        if ctx.trace:
            spans = SpanRecorder()
            traced = Recorder()
            layers.update(bench.trace(spans, traced, gate))
            layers["trace.overhead_ratio"] = _overhead(recorder, traced)
            for problem in spans.problems():
                gate.check(False, f"span tree: {problem}")
            if ctx.workload in ("analytics_fused", "adhoc_cold"):
                share = layers["trace.replay_coverage"]
                gate.check(0.85 <= share <= 1.15,
                           f"trace.replay_coverage {share:.3f} outside 0.85-1.15")
            spans.dump(OUT_DIR / f"spans-{ctx.workload}-seed{ctx.seed}.json")
    finally:
        bench.teardown()

    end_to_end = {
        "setup_s": setup_s,
        "latency_geomean_ms": recorder.latency_geomean_ms(),
        "throughput_qps": recorder.throughput_qps(),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers.update(bench.layer_rows(recorder, delta, setups[0]))
    layers.update(recorder.calibration_rows())
    layers["raw.latency_geomean_ms"] = recorder.latency_geomean_ms(normalised=False)
    layers["raw.throughput_qps"] = recorder.throughput_qps(normalised=False)
    layers["native.jit_compile_s"] = jit_s * setups[0]["factor"]

    unknown = set(layers) - set(PER_LAYER_NAMES)
    if unknown:
        raise AssertionError(f"rows outside the per-layer table: {sorted(unknown)}")
    chosen = layers if ctx.trace else end_to_end
    metrics = {name: {"value": float(chosen[name]), "unit": UNITS[name]}
               for name in (PER_LAYER_NAMES if ctx.trace else END_TO_END_NAMES)}
    per_op = recorder.per_op()
    detail = {
        "workload": ctx.workload,
        "trace": ctx.trace,
        "provenance": provenance(ctx, recorder, {
            "rounds": len(recorder.rounds),
            "setups": len(setups),
            "ops_per_round": len(recorder.rounds[0].samples),
        }),
        "samples_per_op": {name: len(values) for name, values in per_op.items()},
        "op_median_ms": recorder.op_medians(),
        "counters": delta,
        "digests": digests,
        "problems": gate.problems,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "trace" if ctx.trace else "e2e"
    (OUT_DIR / f"detail-{ctx.workload}-seed{ctx.seed}-{suffix}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    for name, entry in metrics.items():
        print(f"{ctx.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for problem in gate.problems:
        print(f"FAILED {ctx.workload}: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.failed == 0 else 1


def _overhead(untraced: Recorder, traced: Recorder) -> float:
    """Traced-pass median over untraced median, per op name; the median."""
    base = untraced.op_medians()
    ratios = [value / base[name] for name, value in traced.op_medians().items()
              if name in base]
    return median(ratios) if ratios else 0.0
