"""Wall-clock benchmark: does the native C tier pay off in real seconds?

Measures the fused NumPy fast path (``compiled_fused``, the previous
wall-clock champion) against the native tier (:mod:`repro.native`):

* ``native`` — chain/fold/gather kernels lowered to C, compiled through
  the on-disk ``.so`` cache, called over the raw column buffers;
* ``native_parallel_w2`` — the same kernels inside the
  partition-parallel backend's chunk workers (native × multicore).

Results are written to ``BENCH_native.json``.  Sizes matter here: the
uniform-run fold shortcuts (and therefore the native fold kernels) only
engage when the control-run length divides the input, so the micro
``n`` should be a multiple of the 8192-row grain — the committed run
uses ``n = 1 << 20``.

The **warm-window section** (:func:`run_warm_window`) replays a mixed
TPC-H workload on one warm engine and records the native-tier counter
deltas: a steady-state serving window must compile **zero** kernels
(``kernels_compiled_delta == 0``) — everything is served from the
in-memory registry or the ``.so`` disk cache.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

from repro.bench.harness import best_of, geometric_mean
from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, Schema
from repro.core.vector import StructuredVector
from repro.native import find_compiler, snapshot
from repro.parallel import ParallelInterpreter
from repro.relational.config import EngineConfig
from repro.relational.engine import VoodooEngine
from repro.tpch import build, generate

MODES = ("compiled_fused", "native", "native_parallel_w2")

__all__ = [
    "MODES", "run_all", "run_warm_window", "render", "write_trajectory",
]


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


def write_trajectory(results: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n")
    return path


def _time_native(program, storage, repeats: int) -> dict[str, float]:
    fused = compile_program(program, CompilerOptions())
    native = compile_program(program, CompilerOptions(native=True))
    # warm each backend once outside the laps: the native first lap JIT
    # compiles (or loads) its kernels, which is plan-cache territory,
    # not steady-state execution
    fused.run(storage, collect_trace=False)
    native.run(storage, collect_trace=False)
    times = {
        "compiled_fused": best_of(
            lambda: fused.run(storage, collect_trace=False), repeats
        ),
        "native": best_of(
            lambda: native.run(storage, collect_trace=False), repeats
        ),
    }
    with ParallelInterpreter(storage, workers=2, native=True) as runner:
        runner.run(program)
        times["native_parallel_w2"] = best_of(
            lambda: runner.run(program), repeats
        )
    best_native = min(times["native"], times["native_parallel_w2"])
    times["speedup_native_vs_fused"] = (
        times["compiled_fused"] / times["native"] if times["native"] > 0 else 0.0
    )
    times["speedup_best_native_vs_fused"] = (
        times["compiled_fused"] / best_native if best_native > 0 else 0.0
    )
    return times


def run_warm_window(store, queries=(1, 6, 12, 19), laps: int = 3) -> dict:
    """Counter deltas over a warm serving window (must not recompile)."""
    with VoodooEngine(
        store, config=EngineConfig(native=True, tracing=False)
    ) as engine:
        bound = [build(store, number) for number in queries]
        for query in bound:  # cold pass: plan, specialize, JIT
            engine.execute(query)
        before = snapshot()
        for _ in range(laps):
            for query in bound:
                engine.execute(query)
        after = snapshot()
    return {
        "queries": [f"Q{n}" for n in queries],
        "laps": laps,
        "kernels_compiled_delta": (
            after["kernels_compiled"] - before["kernels_compiled"]
        ),
        "so_cache_hits_delta": after["so_cache_hits"] - before["so_cache_hits"],
        "chain_calls_delta": after["chain_calls"] - before["chain_calls"],
        "fold_calls_delta": after["fold_calls"] - before["fold_calls"],
        "fallbacks_delta": after["fallbacks"] - before["fallbacks"],
    }


def run_all(
    n: int = 1 << 20,
    scale: float = 0.05,
    queries=(1, 4, 5, 6, 8, 9, 10, 12, 14, 19),
    repeats: int = 3,
    seed: int = 42,
) -> dict:
    micro_storage = micro_store(n)
    micro = {
        "selection": _time_native(selection_micro(n), micro_storage, repeats),
        "projection": _time_native(projection_micro(n), micro_storage, repeats),
        "groupby": _time_native(groupby_micro(n), groupby_store(n), repeats),
    }
    store = generate(scale, seed=seed)
    engine = VoodooEngine(store)
    tpch: dict[str, dict] = {}
    for number in queries:
        program = engine.translate(build(store, number))
        tpch[f"Q{number}"] = _time_native(program, engine.vectors(), repeats)
    warm = run_warm_window(store)
    speedups = [row["speedup_native_vs_fused"] for row in tpch.values()]
    best = [row["speedup_best_native_vs_fused"] for row in tpch.values()]
    summary = {
        "micro_selection_speedup": micro["selection"]["speedup_native_vs_fused"],
        "micro_projection_speedup": micro["projection"]["speedup_native_vs_fused"],
        "micro_groupby_speedup": micro["groupby"]["speedup_native_vs_fused"],
        "tpch_geomean_speedup": geometric_mean(speedups),
        "tpch_queries_at_1_1x": sum(1 for s in speedups if s >= 1.1),
        "tpch_best_queries_at_1_1x": sum(1 for s in best if s >= 1.1),
        "tpch_queries": len(speedups),
        "warm_window_recompiles": warm["kernels_compiled_delta"],
    }
    native_stats = snapshot()
    return {
        "meta": {
            "micro_n": n,
            "tpch_scale": scale,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "compiler": find_compiler(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "timings_are": "best-of-k wall-clock seconds (warmed)",
            "note": (
                "native = fused dispatch with C chain/fold/gather kernels "
                "(bit-identical outputs); native_parallel_w2 = the same "
                "kernels inside partition-parallel chunk workers.  On "
                "cpu_count=1 hosts the parallel rows measure chunking "
                "overhead, not pool scaling."
            ),
            "native_stats": {
                k: v for k, v in native_stats.items()
                if k != "fallback_reasons"
            },
            "fallback_reasons": native_stats["fallback_reasons"],
            # dataset provenance: regenerate with these seeds to replay
            "datasets": [
                dict(store.meta),
                {"generator": "repro.bench.native_wallclock.micro_store",
                 "seed": MICRO_SEED, "n": n},
                {"generator": "repro.bench.native_wallclock.groupby_store",
                 "seed": MICRO_SEED, "n": n},
            ],
        },
        "micro": micro,
        "tpch": tpch,
        "warm_window": warm,
        "summary": summary,
    }


def render(results: dict) -> str:
    meta = results["meta"]
    lines = [
        f"native wall-clock (seconds, best-of-k; cpu_count="
        f"{meta['cpu_count']}, compiler={meta['compiler']})"
    ]
    header = (
        f"{'workload':>12} | " + " | ".join(f"{m:>18}" for m in MODES)
        + " | native/fused"
    )
    lines += [header, "-" * len(header)]

    def row(name, data):
        cells = " | ".join(f"{data[m]:18.4f}" for m in MODES)
        return f"{name:>12} | {cells} | {data['speedup_native_vs_fused']:11.2f}x"

    for name, data in results["micro"].items():
        lines.append(row(name, data))
    for name, data in results["tpch"].items():
        lines.append(row(name, data))
    warm = results["warm_window"]
    lines.append(
        f"warm window ({'+'.join(warm['queries'])} x {warm['laps']}): "
        f"{warm['kernels_compiled_delta']} kernels compiled, "
        f"{warm['fallbacks_delta']} fallbacks"
    )
    summary = results["summary"]
    lines.append(
        f"summary: selection {summary['micro_selection_speedup']:.2f}x, "
        f"projection {summary['micro_projection_speedup']:.2f}x, "
        f"groupby {summary['micro_groupby_speedup']:.2f}x, "
        f"TPC-H geomean {summary['tpch_geomean_speedup']:.2f}x "
        f"({summary['tpch_queries_at_1_1x']}/{summary['tpch_queries']} "
        f"queries >= 1.1x)"
    )
    return "\n".join(lines)
