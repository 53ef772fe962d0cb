"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
metrics, and the small statistics they are computed with.

``BENCHMARK.json`` at the repository root is the machine-readable copy of
these tables (``perfbench/tests`` keeps the two equal); later issues
refer to workloads and metrics by exactly these names.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

# ------------------------------------------------------------------ workloads

#: name -> why it is here (one line; the README has the long form)
WORKLOADS = {
    "analytics_fused": (
        "warm prepared TPC-H 14 + 3 micros on the fused NumPy tier: plan-cache "
        "hits, so executor and kernel changes show and front-end changes must not"
    ),
    "analytics_native": (
        "same ops on the native C tier with a cold JIT cache in set-up: a native "
        "gain shows here and must leave analytics_fused flat"
    ),
    "analytics_parallel": (
        "same ops on the 2-worker partition-parallel backend: planner, chunking, "
        "pool hand-off and merges do work nowhere else"
    ),
    "adhoc_cold": (
        "ad-hoc TPC-H templates and SQL text with fresh literals: >= 90 % plan-cache "
        "misses, so parse/translate/optimize/codegen are about half the latency"
    ),
    "serving_closed": (
        "VoodooServer on a real socket, 2 closed-loop keep-alive clients, mixed "
        "ops: asyncio, JSON and scheduler hand-off beside engine time"
    ),
    "storage_append": (
        "mmap-backed compressed store: warm queries, a 256-row append, then the "
        "same queries cold; read cost, write cost and space in one workload"
    ),
}


# -------------------------------------------------------------------- metrics


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: every workload reports every one of these (the driver's contract), so
#: the issue's workload-specific rows (p95 on serving, append latency and
#: bytes-on-disk ratio on storage_append) are per-layer rows instead
END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first measured round: imports plus the median of "
        "five full set-ups (data generation, resegment/save/load, engine or "
        "server construction, prepare, warm-up; cold native JIT included)",
    ),
    EndToEnd(
        "latency_geomean_ms", "ms", "lower", 0.15,
        "geomean over the workload's op names of each op's median "
        "speed-normalised latency (client-observed on serving_closed)",
    ),
    EndToEnd(
        "throughput_qps", "1/s", "higher", 0.15,
        "ops completed in a round / median speed-normalised round duration "
        "(rounds do equal work)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the workload's process at exit (not normalised)",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: the end-to-end metric and workload this row should move
    moves: str
    #: repeats exactly between two runs of the same code, seed and --seconds
    exact: bool = False


def _ms(name: str, moves: str) -> Layer:
    return Layer(name, "ms", "lower", moves)


def _count(name: str, moves: str, better: str = "lower", exact: bool = True) -> Layer:
    return Layer(name, "count", better, moves, exact)


_ANALYTICS = "latency_geomean_ms on analytics_*"
_ROWS = "row of latency_geomean_ms on analytics_*"

#: timing rows are the mean over op names of each op's median span, in
#: raw (un-normalised) milliseconds of the traced pass; a row a workload
#: does not exercise reads 0
PER_LAYER = (
    _ms("relational.parse_ms", "latency_geomean_ms on adhoc_cold; adhoc_sql on serving_closed"),
    _ms("relational.prepare_ms", "latency_geomean_ms on adhoc_cold"),
    _ms("relational.bind_ms", "latency_geomean_ms on serving_closed"),
    _ms("relational.cache_key_ms", f"{_ANALYTICS} (q6, q11) and serving_closed"),
    _ms("relational.translate_ms", "latency_geomean_ms on adhoc_cold"),
    _count("relational.program_nodes", "latency_geomean_ms on adhoc_cold"),
    _ms("relational.execute_ms", "is the op latency (root span)"),
    _ms("relational.extract_ms", f"{_ANALYTICS} (q9, q10); wide_result on serving_closed"),
    Layer("relational.plan_cache_hit_ratio", "ratio", "higher",
          "latency_geomean_ms on analytics_* (>= 0.99); <= 0.10 on adhoc_cold", True),
    _count("relational.plan_cache_misses", "latency_geomean_ms on adhoc_cold"),
    _count("relational.plan_cache_evictions", "latency_geomean_ms on adhoc_cold"),
    _ms("compiler.optimize_ms", "latency_geomean_ms on adhoc_cold"),
    _count("compiler.nodes_after_cse", "latency_geomean_ms on adhoc_cold"),
    _ms("compiler.codegen_ms", "latency_geomean_ms on adhoc_cold"),
    _count("compiler.kernels", "latency_geomean_ms on adhoc_cold"),
    Layer("compiler.source_bytes", "B", "lower", "latency_geomean_ms on adhoc_cold", True),
    _ms("compiler.run_ms",
        "latency_geomean_ms, throughput_qps on analytics_fused, storage_append; "
        "point_agg on serving_closed"),
    _ms("native.run_ms", "latency_geomean_ms on analytics_native"),
    _count("native.chain_calls", "explains native.run_ms on analytics_native", "higher"),
    _count("native.fold_calls", "explains native.run_ms on analytics_native", "higher"),
    _count("native.fallbacks", "latency_geomean_ms on analytics_native"),
    Layer("native.fallback_ratio", "ratio", "lower",
          "latency_geomean_ms on analytics_native", True),
    _count("native.kernels_compiled", "must be 0 in measured rounds of analytics_native"),
    _count("native.so_cache_hits", "setup_s on analytics_native", "higher"),
    Layer("native.jit_compile_s", "s", "lower", "setup_s on analytics_native"),
    _ms("parallel.plan_ms", "latency_geomean_ms on analytics_parallel (first run per plan)"),
    _ms("parallel.run_ms", "latency_geomean_ms on analytics_parallel"),
    Layer("parallel.run_ratio_vs_fused", "ratio", "lower",
          "latency_geomean_ms on analytics_parallel (base: compiler.run_ms)"),
    _count("parallel.chunks", "explains parallel.run_ratio_vs_fused", "higher"),
    _count("parallel.zones_partitioned", "explains parallel.run_ratio_vs_fused", "higher"),
    _count("parallel.zones_seq", "bounds any gain on analytics_parallel"),
    _count("parallel.sequential_ops", "bounds any gain on analytics_parallel"),
    _ms("storage.vectors_ms", f"{_ANALYTICS}, storage_append"),
    Layer("storage.bytes_scanned", "B", "lower", "latency_geomean_ms on storage_append", True),
    Layer("storage.bytes_decompressed", "B", "lower",
          "latency_geomean_ms on storage_append", True),
    Layer("storage.decode_ratio", "ratio", "lower",
          "latency_geomean_ms on storage_append (base: bytes scanned)", True),
    Layer("storage.resegment_s", "s", "lower", "setup_s on storage_append"),
    Layer("storage.save_s", "s", "lower", "setup_s on storage_append"),
    Layer("storage.load_s", "s", "lower", "setup_s on storage_append"),
    Layer("storage.disk_bytes", "B", "lower", "storage.bytes_ratio on storage_append", True),
    Layer("storage.resident_bytes", "B", "lower", "peak_rss_mb on storage_append", True),
    Layer("storage.bytes_ratio", "ratio", "lower",
          "space on storage_append: catalog bytes on disk / plain in-RAM total_bytes()", True),
    _count("storage.segments", "latency_geomean_ms on storage_append"),
    _ms("storage.append_ms", "write cost on storage_append (median ColumnStore.append)"),
    _ms("storage.post_append_query_ms", "latency_geomean_ms on storage_append"),
    _ms("serving.engine_ms_p50", "latency_geomean_ms on serving_closed"),
    _ms("serving.overhead_ms_p50", "latency_geomean_ms on serving_closed"),
    _ms("serving.dispatch_ms", "latency_geomean_ms on serving_closed (tiny_lookup)"),
    _ms("serving.transport_ms", "latency_geomean_ms on serving_closed (tiny_lookup)"),
    _ms("serving.scheduler_handoff_ms", "throughput_qps on serving_closed"),
    _ms("serving.serialize_ms", "latency_geomean_ms on serving_closed (wide_result)"),
    Layer("serving.response_bytes", "B", "lower",
          "latency_geomean_ms on serving_closed (wide_result)"),
    _ms("serving.point_agg_ms_p50", "row of latency_geomean_ms on serving_closed"),
    _ms("serving.wide_result_ms_p50", "row of latency_geomean_ms on serving_closed"),
    _ms("serving.tiny_lookup_ms_p50", "row of latency_geomean_ms on serving_closed"),
    _ms("serving.adhoc_sql_ms_p50", "row of latency_geomean_ms on serving_closed"),
    _ms("serving.latency_p95_ms", "tail on serving_closed: geomean over op types of p95"),
    _ms("serving.latency_p99_ms", "tail on serving_closed, all requests"),
    _count("serving.rejected", "failed-op share on serving_closed", exact=False),
    _count("serving.timeouts", "failed-op share on serving_closed", exact=False),
    _count("serving.errors", "failed-op share on serving_closed", exact=False),
    *(_ms(f"tpch.q{n}_ms", _ROWS) for n in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 19, 20)),
    _ms("micro.select_ms", _ROWS),
    _ms("micro.project_ms", _ROWS),
    _ms("micro.groupby_ms", _ROWS),
    _ms("raw.latency_geomean_ms", "latency_geomean_ms before normalisation, every workload"),
    Layer("raw.throughput_qps", "1/s", "higher",
          "throughput_qps before normalisation, every workload"),
    _ms("calib.kernel_ms_p50", "how fast the sandbox ran during the run"),
    _ms("calib.kernel_ms_min", "how fast the sandbox ran during the run"),
    Layer("calib.spread_p90_p10", "ratio", "lower", "how much the sandbox moved during the run"),
    Layer("trace.replay_coverage", "ratio", "higher",
          "validity of the decomposition: replayed stage spans / real execute span"),
    Layer("trace.overhead_ratio", "ratio", "lower",
          "traced-pass median / untraced median (base: untraced)"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
#: per-layer rows compared for equality between two runs of the same
#: code; on serving_closed two workers race, so its counts may differ
EXACT = frozenset(m.name for m in PER_LAYER if m.exact)


# ----------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def quartile_spread(values) -> float | None:
    """Distance between first and third quartile as a share of the median
    (the driver's steadiness measure); ``None`` below four values."""
    values = list(values)
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
