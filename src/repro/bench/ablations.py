"""Ablation studies of the compiler's design choices.

The paper motivates (but does not separately chart) several backend
mechanisms; these experiments quantify each one by switching it off:

* **fragment fusion** (`fuse`) — operator-at-a-time vs fused kernels
  (the HyPeR-inherited pipelining, section 3.1.1);
* **virtual scatter** (`virtual_scatter`) — annotation vs materialized
  partition-scatter before grouped aggregation (section 3.1.3, Fig. 11);
* **empty-slot suppression** (`slot_suppression`) — compact vs padded
  fold-output buffers (section 3.1.2);
* **intent sweep** — the declarative parallelism knob of Figures 3/4:
  hierarchical aggregation at varying partial-fold grain.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import SeriesSet
from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, Schema
from repro.core.vector import StructuredVector

MODEL_N = 256 * 1024 * 1024  # trace-scaled element count


def _store(n: int, groups: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return {
        "t": StructuredVector(
            n,
            {".g": rng.integers(0, groups, n).astype(np.int64),
             ".v": rng.random(n)},
        )
    }


def _schema():
    return {"t": Schema({".g": "int64", ".v": "float64"})}


def grouped_aggregation_program(groups: int = 64):
    """Partition -> scatter -> grouped fold (the Figure 10/11 pattern)."""
    b = Builder(_schema())
    t = b.load("t")
    pivots = b.range(groups, out=".pv")
    positions = b.partition(b.project(t, ".g"), pivots, out=".pos")
    scattered = b.scatter(t, positions, pos_kp=".pos")
    gsum = b.fold_sum(scattered, agg_kp=".v", fold_kp=".g", out=".sum")
    return b.build(gsum=gsum)


def filter_sum_program(grain: int = 8192):
    """A fusable pipeline: predicate -> select -> gather -> fold."""
    b = Builder(_schema())
    t = b.load("t")
    pred = b.greater(t.project(".v"), b.constant(0.5), out=".sel")
    ctrl = b.divide(b.range(t), b.constant(grain), out=".chunk")
    zipped = b.zip(b.zip(t, pred), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(t.project(".v"), positions, pos_kp=".pos")
    partial = b.fold_sum(b.zip(payload, ctrl), agg_kp=".v", fold_kp=".chunk", out=".p")
    total = b.fold_sum(partial, agg_kp=".p", out=".total")
    return b.build(total=total)


def hierarchical_sum_program(grain: int):
    """Figure 3: partial sums at *grain*, then a global fold."""
    b = Builder(_schema())
    t = b.load("t")
    ctrl = b.divide(b.range(t), b.constant(grain), out=".chunk")
    partial = b.fold_sum(b.zip(t, ctrl), agg_kp=".v", fold_kp=".chunk", out=".p")
    total = b.fold_sum(partial, agg_kp=".p", out=".total")
    return b.build(total=total)


def _simulate(program, options, n: int, store=None) -> float:
    store = store or _store(n)
    compiled = compile_program(program, options)
    _, report = compiled.simulate(store, scale=MODEL_N / n)
    return report.seconds


def ablate_fusion(device: str = "cpu-mt", n: int = 1 << 19) -> dict[str, float]:
    """Fused fragments vs one kernel per operator."""
    store = _store(n)
    program = filter_sum_program()
    return {
        "fused": _simulate(program, CompilerOptions(device=device, fuse=True), n, store),
        "operator-at-a-time": _simulate(
            program, CompilerOptions(device=device, fuse=False), n, store
        ),
    }


def ablate_virtual_scatter(device: str = "cpu-mt", n: int = 1 << 19) -> dict[str, float]:
    """Virtual vs materialized scatter for grouped aggregation."""
    store = _store(n)
    program = grouped_aggregation_program()
    return {
        "virtual": _simulate(
            program, CompilerOptions(device=device, virtual_scatter=True), n, store
        ),
        "materialized": _simulate(
            program, CompilerOptions(device=device, virtual_scatter=False), n, store
        ),
    }


def ablate_slot_suppression(device: str = "cpu-mt", n: int = 1 << 19) -> dict[str, float]:
    """Suppressed vs padded fold outputs (selection at 1%)."""
    store = _store(n)
    program = filter_sum_program()
    return {
        "suppressed": _simulate(
            program, CompilerOptions(device=device, slot_suppression=True), n, store
        ),
        "padded": _simulate(
            program, CompilerOptions(device=device, slot_suppression=False), n, store
        ),
    }


def intent_sweep(device: str = "cpu-mt", n: int = 1 << 19,
                 grains=(1, 64, 1024, 8192, 65536)) -> SeriesSet:
    """Hierarchical aggregation across partial-fold grains (Figures 3/4)."""
    figure = SeriesSet(
        title=f"ablation: hierarchical aggregation intent sweep ({device})",
        x_label="grain (intent)", y_label="seconds",
    )
    store = _store(n)
    line = figure.line(device)
    for grain in grains:
        seconds = _simulate(
            hierarchical_sum_program(grain), CompilerOptions(device=device), n, store
        )
        line.add(grain, seconds)
    return figure
