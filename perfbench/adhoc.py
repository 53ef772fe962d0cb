"""``adhoc_cold``: the engine used the other way — miss instead of hit.

One long-lived engine executes TPC-H templates and SQL text whose
substitution parameters are fresh on (almost) every execution, so parse,
translate, optimize and codegen are paid each time and more plans pass
through the 256-entry FIFO cache than it holds.
"""

from __future__ import annotations

from perfbench import checks, replay
from perfbench.data import ADHOC_TEMPLATES, adhoc_draws, adhoc_query
from perfbench.harness import (
    Context,
    Recorder,
    Workload,
    cache_rows,
    io_rows,
    table_digest,
)
from repro import tpch
from repro.relational import EngineConfig, VoodooEngine, parse_sql

#: executions per measured round: three per template
ROUND = 3 * len(ADHOC_TEMPLATES)
#: every n-th execution is kept and checked against its reference
CHECK_EVERY = 10

_SQL_Q1_KEYS = frozenset({"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
                          "sum_disc_price", "avg_disc", "count_order"})


class AdhocCold(Workload):
    #: 20 rounds of 24 executions in the 8 s the benchmark measures for
    rounds_per_second = 2.5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.engine = None
        self.kept: list = []

    def setup(self) -> None:
        seed = self.ctx.seed
        self.store = tpch.generate(0.01, seed=seed)
        self.engine = VoodooEngine(self.store, config=EngineConfig(tracing=False))
        self.executed = 0
        # two warm-up passes over the templates: imports and code paths
        # warm, the plans themselves stay one-off
        for template, params in adhoc_draws(2 * len(ADHOC_TEMPLATES), seed, stream=0):
            self.engine.execute(adhoc_query(self.store, template, params))

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def counters(self) -> dict:
        info = self.engine.cache_info()
        return {"hits": info["plan_hits"], "misses": info["plan_misses"],
                "entries": info["size"], **self.io}

    def prepare_round(self, index: int) -> list:
        """The round's draws with their queries built: the op under the
        clock is ``engine.execute``, not plan construction."""
        if index == 0:
            rounds = self.ctx.rounds(self.rounds_per_second)
            self.draws = adhoc_draws(rounds * ROUND, self.ctx.seed, stream=1)
        batch = self.draws[index * ROUND:(index + 1) * ROUND]
        return [(template, params, adhoc_query(self.store, template, params))
                for template, params in batch]

    def round(self, batch: list, gate: checks.Gate) -> list:
        samples: list = []
        for template, params, query in batch:
            result = self.timed(template, lambda query=query: self.engine.execute(query),
                                samples, gate)
            self.executed += 1
            if result is not None and self.executed % CHECK_EVERY == 0:
                self.kept.append((template, params, result.table))
        return samples

    def gates(self, gate: checks.Gate, delta: dict) -> None:
        lookups = delta["hits"] + delta["misses"]
        gate.check(lookups > 0 and delta["hits"] / lookups <= 0.10,
                   f"plan-cache hit ratio {delta['hits']}/{lookups} above 0.10 on a cold workload")

    def verify(self, gate: checks.Gate) -> dict:
        digests = {}
        for index, (template, params, table) in enumerate(self.kept):
            keys = _SQL_Q1_KEYS if template == "sql_q1" else None
            ok = checks.tpch_matches(self.store, ADHOC_TEMPLATES[template], table, params, keys)
            gate.check(ok, f"{template} {params} differs from its reference")
            digests[f"{template}#{index}"] = table_digest(table)
        return digests

    def trace(self, spans, recorder: Recorder, gate: checks.Gate) -> dict:
        engine, store = self.engine, self.store
        counts = dict.fromkeys(("relational.program_nodes", "compiler.nodes_after_cse",
                                "compiler.kernels", "compiler.source_bytes"), 0)
        draws = adhoc_draws(self.ctx.trace_laps * len(ADHOC_TEMPLATES), self.ctx.seed, stream=2)

        def stages(op: str, query) -> None:
            if isinstance(query, str):
                with spans.span("relational.parse", op):
                    query = parse_sql(query, store)
            with spans.span("relational.prepare", op):
                prepared = engine.prepare(query)
            with spans.span("relational.bind", op):
                bound = prepared.bind()
            _, compiled, staged = replay.cold_stages(spans, op, engine, bound)
            replay.warm_stages(spans, op, engine, bound, compiled)
            for key, value in staged.items():
                counts[key] += value

        for lap in range(self.ctx.trace_laps):
            batch = draws[lap * len(ADHOC_TEMPLATES):(lap + 1) * len(ADHOC_TEMPLATES)]
            queries = [adhoc_query(store, template, params) for template, params in batch]
            with replay.traced_round(spans, recorder) as samples:
                for (template, _), query in zip(batch, queries):
                    op = f"{template}#{lap}"
                    samples.append((template, replay.traced_op(
                        spans, op, lambda query=query: engine.execute(query),
                        lambda _result, op=op, query=query: stages(op, query))))
        return {**replay.stage_rows(spans), **counts}

    def layer_rows(self, recorder: Recorder, delta: dict, setup: dict) -> dict:
        return {**cache_rows(delta), **io_rows(delta)}
