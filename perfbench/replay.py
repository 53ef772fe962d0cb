"""Outside-in decomposition: replay one op a public call at a time.

The real op runs inside a ``relational.execute`` span; then the same op
is replayed stage by stage — each stage a public entry point of one
layer, each a span named after the per-layer row it feeds — under a
``replay`` span of the same op id.  ``trace.replay_coverage`` is the sum
of the replayed stage spans over the sum of the real execute spans: when
it leaves 0.85-1.15 the replay is not accounting for the op.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from perfbench.harness import layer_ms
from perfbench.metrics import mean, median
from perfbench.spans import SpanRecorder
from repro.compiler import compile_program, optimize

#: stage spans that may appear under a ``replay`` span, in pipeline order
STAGES = (
    "relational.parse", "relational.prepare", "relational.bind",
    "relational.cache_key", "relational.translate", "compiler.optimize",
    "compiler.codegen", "parallel.plan", "storage.vectors", "compiler.run",
    "native.run", "parallel.run", "serving.dispatch", "serving.serialize",
)


@contextmanager
def traced_round(spans: SpanRecorder, recorder):
    """One round of the traced pass: yields the list its samples go to,
    then closes the round with a calibration run and normalises every
    span recorded meanwhile."""
    first, samples = len(spans.spans), []
    start = time.perf_counter()
    yield samples
    done = recorder.add((time.perf_counter() - start) * 1000.0, samples)
    spans.scale_from(first, done.factor)


def traced_op(spans: SpanRecorder, op: str, call, stages,
              root: str = "relational.execute") -> float:
    """Span the real ``call()``, then its replay ``stages(result)``;
    returns the real call's raw milliseconds."""
    with spans.span("op", op):
        with spans.span(root, op) as real:
            result = call()
        with spans.span("replay", op):
            stages(result)
    return (real.end - real.start) * 1000.0


def cold_stages(spans: SpanRecorder, op: str, engine, query):
    """translate -> optimize -> codegen, as a plan-cache miss pays them;
    returns the compiled program and the exact counts of each stage."""
    with spans.span("relational.translate", op):
        program = engine.translate(query)
    with spans.span("compiler.optimize", op):
        optimized = optimize(program)
    with spans.span("compiler.codegen", op):
        compiled = compile_program(optimized, engine.options, run_optimizer=False)
    counts = {
        "relational.program_nodes": len(program),
        "compiler.nodes_after_cse": len(optimized),
        "compiler.kernels": compiled.kernel_count(),
        "compiler.source_bytes": len(compiled.fused_source or compiled.source),
    }
    return program, compiled, counts


def warm_stages(spans: SpanRecorder, op: str, engine, query, compiled) -> None:
    """cache key -> Load context -> kernels, as a plan-cache hit pays them."""
    with spans.span("relational.cache_key", op):
        engine.cache_key(query)
    with spans.span("storage.vectors", op):
        vectors = engine.vectors()
    with spans.span("native.run" if compiled.native else "compiler.run", op):
        compiled.run(vectors, collect_trace=False)


def coverage(spans: SpanRecorder, root: str = "relational.execute") -> float:
    real = sum(s.ms for s in spans.by_name(root))
    replays = {s.id for s in spans.by_name("replay")}
    staged = sum(s.ms for s in spans.spans if s.parent in replays)
    return staged / real if real else 0.0


def stage_rows(spans: SpanRecorder, root: str = "relational.execute") -> dict[str, float]:
    """Per-layer timing rows of a traced pass.  ``relational.extract_ms``
    is the execute span's self time: what no replayed stage accounts for
    (result extraction, sort, decode, and the engine's own glue)."""
    rows = {f"{name}_ms": layer_ms(spans, name) for name in STAGES}
    rows["relational.execute_ms"] = layer_ms(spans, root)
    replays = {s.id for s in spans.by_name("replay")}
    staged: dict[str, float] = {}
    for record in spans.spans:
        if record.parent in replays:
            staged[record.op] = staged.get(record.op, 0.0) + record.ms
    left: dict[str, list[float]] = {}
    for record in spans.by_name(root):
        left.setdefault(record.op.split("#")[0], []).append(
            max(0.0, record.ms - staged.get(record.op, 0.0)))
    rows["relational.extract_ms"] = mean(median(v) for v in left.values()) if left else 0.0
    rows["trace.replay_coverage"] = coverage(spans, root)
    return rows
