"""``analytics_fused`` / ``analytics_native`` / ``analytics_parallel``:
warm prepared laps over the paper's 14 TPC-H queries and three micros,
one engine configuration each."""

from __future__ import annotations

import time

from perfbench import checks, replay
from perfbench.data import MICRO_SQL, micro_store
from perfbench.harness import (
    Context,
    Recorder,
    Workload,
    cache_rows,
    io_rows,
    table_digest,
)
from repro import native, tpch
from repro.compiler import CompilerOptions, ExecutionOptions, compile_program
from repro.parallel import PARTITIONED, SEQ, ParallelInterpreter, PartitionPlanner
from repro.relational import EngineConfig, VoodooEngine

WORKERS = 2

CONFIGS = {
    "analytics_fused": EngineConfig(tracing=False),
    "analytics_native": EngineConfig(tracing=False, native=True),
    "analytics_parallel": EngineConfig(execution=ExecutionOptions(workers=WORKERS)),
}

_NATIVE_COUNTS = ("chain_calls", "fold_calls", "fallbacks", "kernels_compiled", "so_cache_hits")


class Analytics(Workload):
    #: 20 laps in the 8 s the benchmark measures for
    rounds_per_second = 2.5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.native = ctx.workload == "analytics_native"
        self.parallel = ctx.workload == "analytics_parallel"
        # sized so that a lap stays near 0.3 s: the driver's 136 runs share
        # one hour, set-up included
        self.scale = 0.01 if ctx.quick else 0.02
        self.micro_rows = 1 << (14 if ctx.quick else 18)
        self.engines: tuple = ()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        ctx = self.ctx
        if self.native:
            ctx.fresh_dir("native-cache")  # every set-up finds the disk cache cold
        self.tpch = tpch.generate(self.scale, seed=ctx.seed)
        self.micro = micro_store(self.micro_rows, ctx.seed)
        config = CONFIGS[ctx.workload]
        self.engines = (VoodooEngine(self.tpch, config=config),
                        VoodooEngine(self.micro, config=config))
        self.ops = [
            (f"tpch.q{n}", self.engines[0].prepare(tpch.build(self.tpch, n)))
            for n in sorted(tpch.QUERIES)
        ] + [(name, self.engines[1].prepare(sql)) for name, sql in MICRO_SQL.items()]
        self.jit_s = 0.0
        for _ in range(2):  # warm-up laps: plans compiled, kernels JIT-ed
            for _, prepared in self.ops:
                compiled = native.snapshot()["kernels_compiled"]
                start = time.perf_counter()
                prepared.execute()
                if native.snapshot()["kernels_compiled"] > compiled:
                    self.jit_s += time.perf_counter() - start

    def teardown(self) -> None:
        for engine in self.engines:
            engine.close()
        self.engines = ()

    # -- measured rounds -----------------------------------------------------

    def counters(self) -> dict:
        info = [engine.cache_info() for engine in self.engines]
        out = {
            "hits": sum(i["plan_hits"] + i["program_hits"] for i in info),
            "misses": sum(i["plan_misses"] + i["program_misses"] for i in info),
            "entries": sum(i["size"] + i["programs"] for i in info),
            **self.io,
        }
        snapshot = native.snapshot()
        out.update({key: snapshot[key] for key in _NATIVE_COUNTS})
        return out

    def round(self, _index, gate: checks.Gate) -> list:
        samples: list = []
        for name, prepared in self.ops:
            self.timed(name, prepared.execute, samples, gate)
        return samples

    # -- correctness gate ----------------------------------------------------

    def verify(self, gate: checks.Gate) -> dict:
        """References for every op; on the native and parallel tiers also
        bit-identity with a fused engine over the same stores."""
        tables = {name: prepared.execute().table for name, prepared in self.ops}
        for name, table in tables.items():
            if name.startswith("tpch."):
                ok = checks.tpch_matches(self.tpch, int(name[6:]), table)
            else:
                ok = checks.micro_matches(self.micro, name, table)
            gate.check(ok, f"{name} differs from its reference: {checks.describe(table)}")
        if self.native or self.parallel:
            fused = [VoodooEngine(engine.store, config=CONFIGS["analytics_fused"])
                     for engine in self.engines]
            try:
                for name, prepared in self.ops:
                    twin = fused[0 if name.startswith("tpch.") else 1]
                    same = checks.tables_identical(
                        tables[name], twin.execute(prepared.query).table)
                    gate.check(same, f"{name} is not bit-identical to the fused tier")
            finally:
                for engine in fused:
                    engine.close()
        return {name: table_digest(table) for name, table in tables.items()}

    def gates(self, gate: checks.Gate, delta: dict) -> None:
        lookups = delta["hits"] + delta["misses"]
        gate.check(lookups > 0 and delta["hits"] / lookups >= 0.99,
                   f"plan-cache hit ratio {delta['hits']}/{lookups} below 0.99 on a warm workload")
        if self.native:
            gate.check(delta["kernels_compiled"] == 0,
                       f"{delta['kernels_compiled']} kernels compiled in measured rounds")

    # -- traced pass ---------------------------------------------------------

    def _replay(self, spans, op: str, prepared, compiled, program, runner) -> None:
        engine = prepared.engine
        with spans.span("relational.bind", op):
            query = prepared.bind()
        if runner is None:
            replay.warm_stages(spans, op, engine, query, compiled)
            return
        with spans.span("relational.cache_key", op):
            engine.cache_key(query)
        with spans.span("storage.vectors", op):
            vectors = engine.vectors()
        with spans.span("parallel.run", op):
            runner.reset_storage(vectors)
            runner.run(program)

    @staticmethod
    def _count_plan(counts: dict, plan) -> None:
        """What the partition planner decided for one op (``None``: the
        op ran sequentially without a plan)."""
        zones = plan.summary() if plan is not None else {}
        counts["parallel.chunks"] += len(plan.chunks) if plan is not None else 0
        counts["parallel.zones_partitioned"] += zones.get(PARTITIONED, 0)
        counts["parallel.zones_seq"] += zones.get(SEQ, 0)
        counts["parallel.sequential_ops"] += int(plan is None or not plan.parallel)

    def trace(self, spans, recorder: Recorder, gate: checks.Gate) -> dict:
        runner = ParallelInterpreter(workers=WORKERS) if self.parallel else None
        counts = dict.fromkeys(
            ("relational.program_nodes", "compiler.nodes_after_cse", "compiler.kernels",
             "compiler.source_bytes", "parallel.chunks", "parallel.zones_partitioned",
             "parallel.zones_seq", "parallel.sequential_ops"), 0)
        plans = {}
        try:
            # once per op: what a plan-cache miss would have paid
            for name, prepared in self.ops:
                op, engine = f"{name}#compile", prepared.engine
                with spans.span("compile-replay", op):
                    program, compiled, staged = replay.cold_stages(
                        spans, op, engine, prepared.bind())
                    if self.parallel:
                        with spans.span("parallel.plan", op):
                            PartitionPlanner(program, engine.vectors(), workers=WORKERS).plan()
                if self.parallel:  # ratio base: the same program on the fused tier
                    compiled = compile_program(program, CompilerOptions())
                for key, value in staged.items():
                    counts[key] += value
                plans[name] = (program, compiled)
            for lap in range(self.ctx.trace_laps):
                with replay.traced_round(spans, recorder) as samples:
                    for name, prepared in self.ops:
                        program, compiled = plans[name]
                        samples.append((name, replay.traced_op(
                            spans, f"{name}#{lap}", prepared.execute,
                            lambda _result, op=f"{name}#{lap}": self._replay(
                                spans, op, prepared, compiled, program, runner))))
                        if runner is None:
                            continue
                        # outside the replay: coverage must not count the baseline
                        with spans.span("baseline", f"{name}#base{lap}"):
                            with spans.span("compiler.run", f"{name}#base{lap}"):
                                compiled.run(prepared.engine.vectors(), collect_trace=False)
                        if lap == 0:
                            self._count_plan(counts, runner.last_plan)
        finally:
            if runner is not None:
                runner.close()
        rows = {**replay.stage_rows(spans), **counts}
        if self.parallel:
            fused = rows["compiler.run_ms"]
            rows["parallel.run_ratio_vs_fused"] = rows["parallel.run_ms"] / fused if fused else 0.0
        return rows

    def layer_rows(self, recorder: Recorder, delta: dict, setup: dict) -> dict:
        rows = {f"{name}_ms": value for name, value in recorder.op_medians().items()}
        rows.update(cache_rows(delta))
        rows.update(io_rows(delta))
        if self.native:
            calls = delta["chain_calls"] + delta["fold_calls"]
            rows.update({f"native.{key}": delta[key] for key in _NATIVE_COUNTS})
            rows["native.fallback_ratio"] = delta["fallbacks"] / calls if calls else 0.0
        return rows
