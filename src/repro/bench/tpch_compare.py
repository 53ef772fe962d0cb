"""Figures 12 and 13: TPC-H, Voodoo vs HyPeR-like vs Ocelot-like.

Figure 13 (CPU): Voodoo is at par with HyPeR overall, ahead on the
compute/lookup-intensive queries (5, 6, 9, 19 — metadata-derived identity
hashing) and behind on the order-by/limit query (10, which HyPeR runs
with priority queues; both engines here omit the sort from the measured
plan, as the paper did for Voodoo).  Ocelot's full-materialization tax is
crushing on the CPU, worst for high-cardinality queries like Q1.

Figure 12 (GPU): the same comparison on the GPU profile — Ocelot's
materialization penalty mostly disappears behind 300 GB/s of bandwidth.

The paper's measured milliseconds (SF 10, their hardware) are recorded in
``PAPER_CPU_MS`` / ``PAPER_GPU_MS`` so the figure wrappers can print
paper-vs-reproduction side by side; our absolute numbers are simulated at
a smaller scale factor, so only ratios are comparable.
"""

from __future__ import annotations

from repro.baselines import HyperEngine, OcelotEngine
from repro.bench.harness import BarSet
from repro.compiler import CompilerOptions
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import ColumnStore
from repro.tpch import CPU_QUERIES, GPU_QUERIES, build, generate

#: paper Figure 13 (CPU, SF 10, ms); '-' entries were not reported
PAPER_CPU_MS = {
    "HyPeR":  {1: 120, 4: 151, 5: 158, 6: 42, 7: 473, 8: 87, 9: 365, 10: 76,
               11: 85, 12: 222, 14: 155, 15: 435, 19: 1825, 20: 103},
    "Voodoo": {1: 162, 4: 63, 5: 42, 6: 38, 7: 154, 8: 76, 9: 523, 10: 420,
               11: 591, 12: 137, 14: 30, 15: 74, 19: 120, 20: 56},
    "Ocelot": {1: 3000, 4: 1200, 5: 900, 6: 298, 8: 2000, 12: 191, 19: 279},
}

#: paper Figure 12 (GPU, SF 10, ms)
PAPER_GPU_MS = {
    "Voodoo": {1: 294, 4: 102, 5: 288, 6: 13, 8: 208, 12: 170, 19: 37},
    "Ocelot": {1: 347, 4: 213, 5: None, 6: 13, 8: 184, 12: 61, 19: 47},
}


def run(device: str = "cpu-mt", scale_factor: float = 0.02,
        queries=None, store: ColumnStore | None = None,
        include_ocelot: bool = True, include_hyper: bool | None = None) -> BarSet:
    """Regenerate one panel: simulated ms per query per system.

    HyPeR is CPU-only in the paper, so the GPU panel (Figure 12) compares
    Voodoo against Ocelot only unless ``include_hyper`` forces it.
    """
    queries = tuple(queries or (CPU_QUERIES if device.startswith("cpu") else GPU_QUERIES))
    store = store or generate(scale_factor)
    figure = BarSet(title=f"TPC-H on {device} (SF {scale_factor}, simulated ms)")
    if include_hyper is None:
        include_hyper = device.startswith("cpu")

    voodoo = VoodooEngine(store, config=EngineConfig(
        options=CompilerOptions(device=device)))
    systems = []
    if include_hyper:
        systems.append(("HyPeR", HyperEngine(store, device=device)))
    if include_ocelot:
        systems.append(("Ocelot", OcelotEngine(store, device=device)))

    for number in queries:
        query = build(store, number)
        result = voodoo.execute(query)
        figure.set("Voodoo", f"Q{number}", result.cost.seconds)
        for name, engine in systems:
            _, _, report = engine.execute(query)
            figure.set(name, f"Q{number}", report.seconds)
    return figure


def expected_shape_cpu(figure: BarSet) -> list[str]:
    """The paper's CPU claims, as checkable inequalities."""
    problems = []
    # Ocelot's materialization tax: much slower than Voodoo on Q1
    v1 = figure.value("Voodoo", "Q1")
    o1 = figure.value("Ocelot", "Q1")
    if o1 is not None and v1 is not None and o1 < 2.0 * v1:
        problems.append(f"CPU: Ocelot should be >2x Voodoo on Q1 (got {o1/v1:.2f}x)")
    # Voodoo ahead on the metadata-exploiting queries
    for q in ("Q5", "Q6", "Q19"):
        v = figure.value("Voodoo", q)
        h = figure.value("HyPeR", q)
        if v is not None and h is not None and v > h:
            problems.append(f"CPU: Voodoo should beat HyPeR on {q}")
    # overall parity with HyPeR: geometric mean within 2x either way
    ratios = []
    for group in figure.groups:
        v, h = figure.value("Voodoo", group), figure.value("HyPeR", group)
        if v and h:
            ratios.append(v / h)
    geo = 1.0
    for r in ratios:
        geo *= r
    geo **= 1.0 / max(1, len(ratios))
    if not (0.2 <= geo <= 1.5):
        problems.append(f"CPU: Voodoo/HyPeR geo-mean ratio {geo:.2f} outside [0.2, 1.5]")
    return problems


def expected_shape_gpu(cpu_figure: BarSet, gpu_figure: BarSet) -> list[str]:
    """The paper's GPU claim: Ocelot's bulk penalty shrinks on the GPU."""
    problems = []
    for group in gpu_figure.groups:
        cpu_v = cpu_figure.value("Voodoo", group)
        cpu_o = cpu_figure.value("Ocelot", group)
        gpu_v = gpu_figure.value("Voodoo", group)
        gpu_o = gpu_figure.value("Ocelot", group)
        if None in (cpu_v, cpu_o, gpu_v, gpu_o):
            continue
        cpu_ratio = cpu_o / cpu_v
        gpu_ratio = gpu_o / gpu_v
        if cpu_ratio > 2.0 and gpu_ratio > cpu_ratio:
            problems.append(
                f"{group}: Ocelot/Voodoo ratio should shrink on GPU "
                f"(CPU {cpu_ratio:.1f}x -> GPU {gpu_ratio:.1f}x)"
            )
    return problems
