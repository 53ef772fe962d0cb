"""Wall-clock benchmark: does fusion pay off in real seconds?

Everything else in :mod:`repro.bench` reports *simulated* device seconds;
this module measures actual Python/NumPy wall-clock of the three
evaluators on the same programs:

* ``interpreter`` — the reference bulk processor;
* ``compiled_traced`` — the simulating compiled backend (the seed
  behaviour: ground-truth semantics + full trace emission);
* ``compiled_fused`` — the untraced node runner
  (:mod:`repro.compiler.runner` over :mod:`repro.compiler.rt_fast`):
  raw-array kernels, virtual control vectors, uniform-run fold
  shortcuts, zero accounting.

Results are written to ``BENCH_fused.json`` so CI can track the
wall-clock trajectory per PR; ``summary`` holds the headline numbers
(fused-vs-traced speedups) and ``plan_cache`` the translate+codegen cost
a warm :class:`~repro.relational.engine.VoodooEngine` avoids.

The **multicore section** (:func:`run_multicore`, written to
``BENCH_fused_mc.json``) measures the *composed* fast path — the
partition-parallel backend scheduling the same runner per chunk
(``fused_parallel_wN``) — against the sequential traced and fused
backends, on the microbenchmarks (including a Q1-class grouped
aggregation) and the aggregation-bound TPC-H laggards.  Read
``meta.cpu_count`` first: on a single-core host the parallel rows
measure pure chunking overhead (chunks execute inline), so speedups
come from fusion and the group-by kernels alone; worker-pool scaling
only shows on multi-core hardware (e.g. the CI runners, whose smoke
output is uploaded as an artifact).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import geometric_mean
from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, Schema
from repro.core.vector import StructuredVector
from repro.interpreter import Interpreter
from repro.parallel import ParallelInterpreter
from repro.relational.config import EngineConfig
from repro.relational.engine import VoodooEngine
from repro.tpch import build, generate

MODES = ("interpreter", "compiled_traced", "compiled_fused")
MC_WORKERS = (2, 4)
MC_MODES = ("compiled_traced", "compiled_fused") + tuple(
    f"fused_parallel_w{w}" for w in MC_WORKERS
)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_backends(program, storage, repeats: int) -> dict[str, float]:
    compiled = compile_program(program, CompilerOptions())
    interpreter = Interpreter(storage)
    times = {
        "interpreter": _best_of(lambda: interpreter.run(program), repeats),
        "compiled_traced": _best_of(lambda: compiled.run(storage), repeats),
        "compiled_fused": _best_of(
            lambda: compiled.run(storage, collect_trace=False), repeats
        ),
    }
    times["speedup_fused_vs_traced"] = (
        times["compiled_traced"] / times["compiled_fused"]
        if times["compiled_fused"] > 0 else 0.0
    )
    return times


# ------------------------------------------------------- microbenchmarks


#: RNG seed of the micro/group-by stores (recorded as dataset provenance
#: in the BENCH_*.json meta — keep the literal in exactly one place)
MICRO_SEED = 0


def micro_store(n: int, seed: int = MICRO_SEED) -> dict[str, StructuredVector]:
    rng = np.random.default_rng(seed)
    return {
        "facts": StructuredVector(
            n,
            {
                ".v1": rng.random(n, dtype=np.float32),
                ".v2": rng.random(n, dtype=np.float32),
                ".v3": rng.random(n, dtype=np.float32),
                ".v4": rng.random(n, dtype=np.float32),
            },
        )
    }


def _schema() -> Schema:
    return Schema({".v1": "float32", ".v2": "float32",
                   ".v3": "float32", ".v4": "float32"})


def selection_micro(n: int, selectivity: float = 0.1, grain: int = 8192):
    """``select sum(v2) from facts where v1 <= θ`` (Figure 1/15 shape)."""
    b = Builder({"facts": _schema()})
    facts = b.load("facts")
    pred = b.less_equal(
        facts.project(".v1"), b.constant(float(selectivity), dtype="float32"),
        out=".sel",
    )
    ctrl = b.divide(b.range(facts), b.constant(grain), out=".chunk")
    with_sel = b.zip(b.zip(facts, pred), ctrl)
    positions = b.fold_select(with_sel, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(facts.project(".v2"), positions, pos_kp=".pos")
    partial = b.fold_sum(b.zip(payload, ctrl), agg_kp=".v2", fold_kp=".chunk", out=".part")
    total = b.fold_sum(partial, agg_kp=".part", out=".total")
    return b.build(total=total)


def projection_micro(n: int, selectivity: float = 0.2, grain: int = 8192):
    """Q6-style projection chain over selected rows:
    ``sum(v2 * (1 - v3) * (1 + v4)) where v1 <= θ``."""
    b = Builder({"facts": _schema()})
    facts = b.load("facts")
    pred = b.less_equal(
        facts.project(".v1"), b.constant(float(selectivity), dtype="float32"),
        out=".sel",
    )
    ctrl = b.divide(b.range(facts), b.constant(grain), out=".chunk")
    with_sel = b.zip(b.zip(facts, pred), ctrl)
    positions = b.fold_select(with_sel, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(facts, positions, pos_kp=".pos")
    one = b.constant(1.0, dtype="float64")
    disc = b.subtract(one, payload.project(".v3"), out=".disc")
    tax = b.add(one, payload.project(".v4"), out=".tax")
    revenue = b.multiply(
        b.multiply(payload.project(".v2"), disc, out=".rev0"), tax, out=".rev"
    )
    partial = b.fold_sum(b.zip(revenue, ctrl), agg_kp=".rev", fold_kp=".chunk", out=".part")
    total = b.fold_sum(partial, agg_kp=".part", out=".total")
    return b.build(total=total)


def run_micro(n: int, repeats: int = 5) -> dict:
    storage = micro_store(n)
    return {
        "selection": _time_backends(selection_micro(n), storage, repeats),
        "projection": _time_backends(projection_micro(n), storage, repeats),
    }


def groupby_micro(n: int, cards: int = 12, selectivity: float = 0.95):
    """A Q1-class grouped aggregation: filter → partition → scatter →
    multi-aggregate fold (sum/sum/count/max) over a small key domain —
    the shape that exercises the fused group-by kernels."""
    b = Builder(
        {"gfacts": Schema({".k": "int64", ".v1": "float64",
                           ".v2": "float64", ".w": "int64"})}
    )
    facts = b.load("gfacts")
    pred = b.less_equal(
        facts.project(".w"), b.constant(int(selectivity * 100)), out=".sel"
    )
    ctrl = b.divide(b.range(facts), b.constant(8192), out=".chunk")
    chained = b.zip(b.zip(facts, pred), ctrl)
    positions = b.fold_select(chained, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    kept = b.gather(facts, positions, pos_kp=".pos")
    pivots = b.range(cards, out=".pv")
    part = b.partition(kept.project(".k"), pivots, out=".dest")
    scattered = b.scatter(kept, part, pos_kp=".dest")
    s1 = b.fold_sum(scattered, agg_kp=".v1", fold_kp=".k", out=".sum1")
    s2 = b.fold_sum(scattered, agg_kp=".v2", fold_kp=".k", out=".sum2")
    cnt = b.fold_count(scattered, counted_kp=".v1", fold_kp=".k", out=".cnt")
    top = b.fold_max(scattered, agg_kp=".w", fold_kp=".k", out=".top")
    return b.build(sum1=s1, sum2=s2, cnt=cnt, top=top)


def groupby_store(n: int, cards: int = 12,
                  seed: int = MICRO_SEED) -> dict[str, StructuredVector]:
    rng = np.random.default_rng(seed)
    return {
        "gfacts": StructuredVector(
            n,
            {
                ".k": rng.integers(0, cards, n).astype(np.int64),
                ".v1": rng.random(n),
                ".v2": rng.random(n),
                ".w": rng.integers(0, 100, n).astype(np.int64),
            },
        )
    }


def _time_multicore(program, storage, repeats: int) -> dict[str, float]:
    """Best-of-k seconds of the sequential backends vs fused-parallel."""
    compiled = compile_program(program, CompilerOptions())
    times = {
        "compiled_traced": _best_of(lambda: compiled.run(storage), repeats),
        "compiled_fused": _best_of(
            lambda: compiled.run(storage, collect_trace=False), repeats
        ),
    }
    for workers in MC_WORKERS:
        with ParallelInterpreter(storage, workers=workers) as runner:
            times[f"fused_parallel_w{workers}"] = _best_of(
                lambda: runner.run(program), repeats
            )
    best_mc = min(times[f"fused_parallel_w{w}"] for w in MC_WORKERS)
    times["speedup_fused_vs_traced"] = (
        times["compiled_traced"] / times["compiled_fused"]
        if times["compiled_fused"] > 0 else 0.0
    )
    times["speedup_mc_vs_traced"] = (
        times["compiled_traced"] / best_mc if best_mc > 0 else 0.0
    )
    times["speedup_mc_vs_fused"] = (
        times["compiled_fused"] / best_mc if best_mc > 0 else 0.0
    )
    return times


def run_multicore(
    n: int = 1 << 20,
    scale: float = 0.05,
    queries=(1, 6, 9, 19),
    repeats: int = 3,
    seed: int = 42,
) -> dict:
    """The fused × multicore trajectory (``BENCH_fused_mc.json``)."""
    micro_storage = micro_store(n)
    micro = {
        "selection": _time_multicore(selection_micro(n), micro_storage, repeats),
        "projection": _time_multicore(projection_micro(n), micro_storage, repeats),
        "groupby": _time_multicore(groupby_micro(n), groupby_store(n), repeats),
    }
    store = generate(scale, seed=seed)
    engine = VoodooEngine(store)
    tpch: dict[str, dict] = {}
    for number in queries:
        program = engine.translate(build(store, number))
        tpch[f"Q{number}"] = _time_multicore(program, engine.vectors(), repeats)
    mc_speedups = [row["speedup_mc_vs_traced"] for row in tpch.values()]
    summary = {
        "micro_groupby_mc_speedup": micro["groupby"]["speedup_mc_vs_traced"],
        "micro_groupby_fused_speedup": micro["groupby"]["speedup_fused_vs_traced"],
        "tpch_mc_geomean_speedup": geometric_mean(mc_speedups),
        "tpch_mc_queries_at_1_5x": sum(1 for s in mc_speedups if s >= 1.5),
        "tpch_queries": len(mc_speedups),
        "q1_mc_vs_traced": tpch.get("Q1", {}).get("speedup_mc_vs_traced", 0.0),
        "q19_mc_vs_traced": tpch.get("Q19", {}).get("speedup_mc_vs_traced", 0.0),
    }
    return {
        "meta": {
            "micro_n": n,
            "tpch_scale": scale,
            "repeats": repeats,
            "workers": list(MC_WORKERS),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timings_are": "best-of-k wall-clock seconds",
            "note": (
                "fused_parallel_wN = partition-parallel backend executing "
                "fused chunk kernels; on cpu_count=1 hosts chunks run "
                "inline, so these rows measure fusion + chunking overhead, "
                "not pool scaling"
            ),
            # dataset provenance: regenerate with these seeds to replay
            "datasets": [
                dict(store.meta),
                {"generator": "repro.bench.fused_wallclock.micro_store",
                 "seed": MICRO_SEED, "n": n},
                {"generator": "repro.bench.fused_wallclock.groupby_store",
                 "seed": MICRO_SEED, "n": n},
            ],
        },
        "micro": micro,
        "tpch": tpch,
        "summary": summary,
    }


def render_multicore(results: dict) -> str:
    meta = results["meta"]
    lines = [
        f"fused x multicore wall-clock (seconds, best-of-k; "
        f"cpu_count={meta['cpu_count']})"
    ]
    header = (
        f"{'workload':>12} | " + " | ".join(f"{m:>17}" for m in MC_MODES)
        + " |  mc/traced"
    )
    lines += [header, "-" * len(header)]

    def row(name, data):
        cells = " | ".join(f"{data[m]:17.4f}" for m in MC_MODES)
        return f"{name:>12} | {cells} | {data['speedup_mc_vs_traced']:9.2f}x"

    for name, data in results["micro"].items():
        lines.append(row(name, data))
    for name, data in results["tpch"].items():
        lines.append(row(name, data))
    summary = results["summary"]
    lines.append(
        f"summary: groupby micro {summary['micro_groupby_mc_speedup']:.2f}x, "
        f"TPC-H geomean {summary['tpch_mc_geomean_speedup']:.2f}x "
        f"({summary['tpch_mc_queries_at_1_5x']}/{summary['tpch_queries']} >= 1.5x), "
        f"Q1 {summary['q1_mc_vs_traced']:.2f}x, Q19 {summary['q19_mc_vs_traced']:.2f}x"
    )
    return "\n".join(lines)


# ------------------------------------------------------------- TPC-H


def run_tpch(store, queries, repeats: int = 3) -> dict:
    engine = VoodooEngine(store)
    results: dict[str, dict] = {}
    for number in queries:
        query = build(store, number)
        program = engine.translate(query)
        results[f"Q{number}"] = _time_backends(program, engine.vectors(), repeats)
    return results


def run_plan_cache(store, query_number: int = 19) -> dict:
    """Cold vs warm engine latency: what the plan cache saves per query."""
    engine = VoodooEngine(store, config=EngineConfig(tracing=False))
    query = build(store, query_number)
    start = time.perf_counter()
    engine.execute(query)
    cold = time.perf_counter() - start
    warm = _best_of(lambda: engine.execute(build(store, query_number)), 3)
    info = engine.cache_info()
    return {
        "query": f"Q{query_number}",
        "cold_seconds": cold,
        "warm_seconds": warm,
        "saved_seconds": cold - warm,
        "hits": info["plan_hits"],
        "misses": info["plan_misses"],
    }


# ------------------------------------------------------------ trajectory


def run_all(
    n: int = 1 << 20,
    scale: float = 0.05,
    queries=(1, 4, 5, 6, 8, 9, 10, 12, 14, 19),
    repeats: int = 3,
    seed: int = 42,
) -> dict:
    micro = run_micro(n, repeats=max(repeats, 3))
    store = generate(scale, seed=seed)
    tpch = run_tpch(store, queries, repeats=repeats)
    cache = run_plan_cache(store)
    speedups = [row["speedup_fused_vs_traced"] for row in tpch.values()]
    summary = {
        "micro_selection_speedup": micro["selection"]["speedup_fused_vs_traced"],
        "micro_projection_speedup": micro["projection"]["speedup_fused_vs_traced"],
        "tpch_geomean_speedup": geometric_mean(speedups),
        "tpch_queries_at_1_5x": sum(1 for s in speedups if s >= 1.5),
        "tpch_queries": len(speedups),
    }
    return {
        "meta": {
            "micro_n": n,
            "tpch_scale": scale,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timings_are": "best-of-k wall-clock seconds",
            # dataset provenance: regenerate with these seeds to replay
            "datasets": [
                dict(store.meta),
                {"generator": "repro.bench.fused_wallclock.micro_store",
                 "seed": MICRO_SEED, "n": n},
            ],
        },
        "micro": micro,
        "tpch": tpch,
        "plan_cache": cache,
        "summary": summary,
    }


def write_trajectory(results: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")
    return path


def render(results: dict) -> str:
    lines = ["fused wall-clock (seconds, best-of-k; speedup = traced / fused)"]
    header = f"{'workload':>12} | " + " | ".join(f"{m:>17}" for m in MODES) + " |  speedup"
    lines += [header, "-" * len(header)]

    def row(name, data):
        cells = " | ".join(f"{data[m]:17.4f}" for m in MODES)
        return f"{name:>12} | {cells} | {data['speedup_fused_vs_traced']:7.2f}x"

    for name, data in results["micro"].items():
        lines.append(row(name, data))
    for name, data in results["tpch"].items():
        lines.append(row(name, data))
    cache = results["plan_cache"]
    lines.append(
        f"plan cache ({cache['query']}): cold {cache['cold_seconds']*1e3:.1f} ms -> "
        f"warm {cache['warm_seconds']*1e3:.1f} ms"
    )
    summary = results["summary"]
    lines.append(
        f"summary: selection {summary['micro_selection_speedup']:.2f}x, "
        f"projection {summary['micro_projection_speedup']:.2f}x, "
        f"TPC-H geomean {summary['tpch_geomean_speedup']:.2f}x "
        f"({summary['tpch_queries_at_1_5x']}/{summary['tpch_queries']} queries >= 1.5x)"
    )
    return "\n".join(lines)
