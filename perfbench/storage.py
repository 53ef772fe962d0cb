"""``storage_append``: writes beside reads on the storage layer.

Set-up builds the compressed, mmap-backed copy of a TPC-H store
(resegment -> save -> load).  Each lap runs five queries warm, appends a
256-row batch to ``lineitem`` (which bumps the store fingerprint), then
runs the same five queries again — cold plans over one more segment.  A
plain in-RAM twin receives the same appends and must agree bit for bit.
"""

from __future__ import annotations

import time

from perfbench import checks, replay
from perfbench.data import append_batches
from perfbench.harness import (
    Context,
    Recorder,
    Workload,
    cache_rows,
    io_rows,
    table_digest,
)
from perfbench.metrics import median
from repro import tpch
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import load, resegment, save

QUERIES = (1, 6, 12, 14, 19)
BATCH_ROWS = 256
#: the plain twin re-runs the post-append queries every n-th lap
TWIN_EVERY = 4


class StorageAppend(Workload):
    #: 24 laps in the 8 s the benchmark measures for
    rounds_per_second = 3.0

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.scale = 0.01 if ctx.quick else 0.02
        self.segment_rows = 16_384 if ctx.quick else 32_768
        self.engine = self.twin_engine = None

    def setup(self) -> None:
        ctx = self.ctx
        laps = ctx.rounds(self.rounds_per_second) + ctx.trace_laps
        self.twin = tpch.generate(self.scale, seed=ctx.seed)
        self.plain_bytes = self.twin.total_bytes()
        self.batches = append_batches(self.twin, laps, BATCH_ROWS, ctx.seed)
        directory = ctx.fresh_dir("store")
        start = time.perf_counter()
        compressed = resegment(self.twin, encoding="auto", segment_rows=self.segment_rows)
        resegmented = time.perf_counter()
        save(compressed, directory)
        saved = time.perf_counter()
        self.store = load(directory, mmap=True)
        loaded = time.perf_counter()
        self.setup_parts = {"storage.resegment_s": resegmented - start,
                            "storage.save_s": saved - resegmented,
                            "storage.load_s": loaded - saved}
        self.disk_bytes = sum(f.stat().st_size for f in directory.iterdir())
        report = self.store.storage_report()
        self.resident_bytes, self.segments = report["total_bytes"], report["segments"]
        config = EngineConfig(tracing=False)
        self.engine = VoodooEngine(self.store, config=config)
        self.twin_engine = VoodooEngine(self.twin, config=config)
        self.appended = 0
        self.pending: list = []
        for _ in range(2):  # warm-up laps
            self._queries("warm", checks.Gate(), [])

    def teardown(self) -> None:
        for engine in (self.engine, self.twin_engine):
            if engine is not None:
                engine.close()
        self.engine = self.twin_engine = None
        self.store = self.twin = None  # drop the mappings before the files go

    def counters(self) -> dict:
        info = self.engine.cache_info()
        return {"hits": info["plan_hits"], "misses": info["plan_misses"],
                "entries": info["size"], **self.io}

    def _queries(self, phase: str, gate: checks.Gate, samples: list) -> dict:
        """The five queries once, as ops ``<phase>.qN``; their tables."""
        # rebuilt each time: an append drops the LIKE membership vectors
        # that building q14 registers, exactly as an ad-hoc caller finds
        queries = {n: tpch.build(self.store, n) for n in QUERIES}
        tables = {}
        for number, query in queries.items():
            result = self.timed(f"{phase}.q{number}",
                                lambda query=query: self.engine.execute(query), samples, gate)
            if result is not None:
                tables[number] = result.table
        return tables

    def round(self, _index, gate: checks.Gate) -> list:
        samples: list = []
        self._queries("warm", gate, samples)
        batch = self.batches[self.appended]
        gate.timed(1)
        start = time.perf_counter()
        self.store.append("lineitem", batch)
        samples.append(("append", (time.perf_counter() - start) * 1000.0))
        tables = self._queries("cold", gate, samples)
        self.appended += 1
        if self.appended % TWIN_EVERY == 0:
            self.pending.append((self.appended, tables))
        return samples

    def verify(self, gate: checks.Gate) -> dict:
        """Replay the appends on the plain twin; every kept lap and the
        final state must be bit-identical, and the final state must match
        the NumPy references."""
        digests = {}
        applied = 0
        for lap, tables in [*self.pending, (self.appended, None)]:
            for batch in self.batches[applied:lap]:
                self.twin.append("lineitem", batch)
            applied = lap
            if tables is None:
                tables = self._queries("final", gate, [])
            for number, table in tables.items():
                query = tpch.build(self.twin, number)
                same = checks.tables_identical(table, self.twin_engine.execute(query).table)
                gate.check(same, f"q{number} after {lap} appends differs from the plain twin")
                digests[f"q{number}@{lap}"] = table_digest(table)
        for number, table in tables.items():
            gate.check(checks.tpch_matches(self.twin, number, table),
                       f"q{number} after {applied} appends differs from its reference")
        return digests

    def trace(self, spans, recorder: Recorder, gate: checks.Gate) -> dict:
        engine = self.engine
        counts = dict.fromkeys(("relational.program_nodes", "compiler.nodes_after_cse",
                                "compiler.kernels", "compiler.source_bytes"), 0)

        def stages(op: str, query, cold: bool) -> None:
            with spans.span("relational.prepare", op):
                bound = engine.prepare(query).bind()
            if cold:
                _, compiled, staged = replay.cold_stages(spans, op, engine, bound)
                for key, value in staged.items():
                    counts[key] += value
            else:
                compiled = engine.compile(bound)
            replay.warm_stages(spans, op, engine, bound, compiled)

        for lap in range(self.ctx.trace_laps):
            with replay.traced_round(spans, recorder) as samples:
                for phase in ("warm", "cold"):
                    if phase == "cold":
                        began = time.perf_counter()
                        self.store.append("lineitem", self.batches[self.appended])
                        samples.append(("append", (time.perf_counter() - began) * 1000.0))
                        self.appended += 1
                    for number in QUERIES:
                        query = tpch.build(self.store, number)
                        op = f"{phase}.q{number}#{lap}"
                        samples.append((f"{phase}.q{number}", replay.traced_op(
                            spans, op, lambda query=query: engine.execute(query),
                            lambda _result, op=op, query=query, phase=phase: stages(
                                op, query, phase == "cold"))))
        return {**replay.stage_rows(spans), **counts}

    def layer_rows(self, recorder: Recorder, delta: dict, setup: dict) -> dict:
        medians = recorder.op_medians()
        rows = {**cache_rows(delta), **io_rows(delta)}
        rows.update({name: seconds * setup["factor"]
                     for name, seconds in setup["parts"].items()})
        rows.update({
            "storage.disk_bytes": self.disk_bytes,
            "storage.resident_bytes": self.resident_bytes,
            "storage.bytes_ratio": self.disk_bytes / self.plain_bytes,
            "storage.segments": self.segments,
            "storage.append_ms": medians.get("append", 0.0),
            "storage.post_append_query_ms": median(
                [v for name, v in medians.items() if name.startswith("cold.")] or [0.0]),
        })
        return rows
