"""``serving_closed``: an in-process ``VoodooServer`` on a real socket,
driven by two closed-loop keep-alive clients.

Closed loop because each caller waits for its reply before sending the
next request.  The measured part is a fixed number of *slices*: in each,
both clients send the same number of requests, then wait at a barrier
while the calibration kernel runs.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from perfbench import checks, replay
from perfbench.data import GROUP_CARD, KEY_CARD, serving_store
from perfbench.harness import Context, Recorder, Workload, cache_rows, layer_ms
from perfbench.metrics import geomean, median, percentile
from repro.relational import EngineConfig, VoodooEngine
from repro.serving import Catalog, ServingConfig, VoodooServer, table_to_json

CLIENTS = 2
DATASET = "bench"
#: bind values the prepared statements rotate through (all seen in warm-up)
THETAS = (0.05, 0.1, 0.2, 0.4)
LOOKUPS = (0.25, 0.5, 0.75)

POINT_SQL = "SELECT SUM(v2) AS total FROM facts WHERE v1 <= :theta"
WIDE_SQL = ("SELECT k, g, SUM(v1) AS s1, COUNT(*) AS cnt FROM facts "
            "GROUP BY k, g ORDER BY k, g")
TINY_SQL = "SELECT SUM(v) AS total, COUNT(*) AS cnt FROM tiny WHERE v <= :cut"
ADHOC_SQL = "SELECT SUM(v1) AS total, MAX(w) AS top FROM facts WHERE v2 <= {theta!r}"

STATEMENTS = {"point_agg": POINT_SQL, "wide_result": WIDE_SQL, "tiny_lookup": TINY_SQL}
BIND_VALUES = {"point_agg": THETAS, "wide_result": (None,),
               "tiny_lookup": LOOKUPS, "adhoc_sql": THETAS}

#: requests of each type a client sends per slice (50 / 20 / 15 / 15 %)
MIX = {"point_agg": 20, "wide_result": 8, "tiny_lookup": 6, "adhoc_sql": 6}
QUICK_MIX = {"point_agg": 4, "wide_result": 2, "tiny_lookup": 2, "adhoc_sql": 2}


class _Client:
    """A keep-alive HTTP/1.1 connection (one per closed-loop client)."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "_Client":
        return cls(*await asyncio.open_connection(host, port))

    async def request(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


class ServingClosed(Workload):
    #: 20 slices in the 8 s the benchmark measures for
    rounds_per_second = 2.5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.mix = QUICK_MIX if ctx.quick else MIX
        self.rows = 20_000 if ctx.quick else 100_000
        self.loop = None
        self.server = self.listener = None
        self.clients: list = []

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        self.store = serving_store(self.rows, self.ctx.seed)
        catalog = Catalog(config=EngineConfig(tracing=False))
        catalog.add(DATASET, self.store)
        self.server = VoodooServer(catalog=catalog, serving=ServingConfig(workers=CLIENTS))
        self.listener = await self.server.start("127.0.0.1", 0)
        host, port = self.listener.sockets[0].getsockname()[:2]
        self.clients, self.sessions = [], []
        for _ in range(CLIENTS):
            client = await _Client.connect(host, port)
            _, opened = await client.request("POST", "/session", {"dataset": DATASET})
            statements = {}
            for op, sql in STATEMENTS.items():
                _, prepared = await client.request(
                    "POST", "/prepare", {"session": opened["session"], "sql": sql})
                statements[op] = prepared["statement"]
            self.clients.append(client)
            self.sessions.append((opened["session"], statements))
        # warm-up: every (op, bind value) pair once per client, twice over
        for _ in range(2):
            for index in range(CLIENTS):
                for op, values in BIND_VALUES.items():
                    for value in values:
                        await self.clients[index].request(*self._request(index, op, value))

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._teardown())
        self.loop.close()
        self.loop = None

    async def _teardown(self) -> None:
        for client in self.clients:
            await client.close()
        # let the server's connection handlers see EOF and finish
        handlers = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        if self.listener is not None:
            self.listener.close()
            await self.listener.wait_closed()
        if self.server is not None:
            self.server.close()

    # -- the traffic -----------------------------------------------------------

    def _request(self, client: int, op: str, value):
        session, statements = self.sessions[client]
        if op == "adhoc_sql":
            return "POST", "/query", {"dataset": DATASET, "sql": ADHOC_SQL.format(theta=value)}
        params = {"point_agg": {"theta": value}, "tiny_lookup": {"cut": value}}.get(op, {})
        return "POST", "/execute", {"session": session, "statement": statements[op],
                                    "params": params}

    def _schedule(self, slices: int, stream: int) -> list:
        """Per slice and client, a seeded shuffle of exactly ``mix``."""
        rng = np.random.default_rng([self.ctx.seed, 5, stream])
        plan = []
        for _ in range(slices):
            per_client = []
            for _ in range(CLIENTS):
                ops = [op for op, count in self.mix.items() for _ in range(count)]
                rng.shuffle(ops)
                per_client.append([
                    (op, BIND_VALUES[op][int(rng.integers(len(BIND_VALUES[op])))])
                    for op in ops])
            plan.append(per_client)
        return plan

    async def _client_slice(self, index: int, requests: list, out: list) -> None:
        client = self.clients[index]
        for op, value in requests:
            start = time.perf_counter()
            try:
                status, body = await asyncio.wait_for(
                    client.request(*self._request(index, op, value)), timeout=30.0)
            except (asyncio.TimeoutError, ConnectionError, ValueError) as error:
                status, body = 0, {"error": f"{type(error).__name__}: {error}"}
            out.append((op, value, (time.perf_counter() - start) * 1000.0, status, body))

    async def _slice(self, per_client: list) -> list:
        out: list = []
        await asyncio.gather(*(
            self._client_slice(index, requests, out)
            for index, requests in enumerate(per_client)))
        return out

    def counters(self) -> dict:
        info = self.server.catalog.cache_info()[DATASET]
        stats = self.server.scheduler.stats()
        return {"hits": info["plan_hits"], "misses": info["plan_misses"],
                "entries": info["size"],
                **{key: stats[key] for key in ("rejected", "timeouts", "errors")}}

    def measure(self, recorder: Recorder, gate: checks.Gate) -> None:
        """One slice per round: both clients send their requests, then meet
        at the barrier.  The slice's clock stops there; its responses are
        checked afterwards."""
        self.expected = self._expected(gate)
        self.engine_ms: list[float] = []
        self.overhead_ms: list[float] = []
        for per_client in self._schedule(self.ctx.rounds(self.rounds_per_second), stream=1):
            start = time.perf_counter()
            out = self.loop.run_until_complete(self._slice(per_client))
            wall_ms = (time.perf_counter() - start) * 1000.0
            recorder.add(wall_ms, self._account(out, gate))

    def _account(self, out: list, gate: checks.Gate) -> list:
        """Samples of one slice; every response is checked here, after the
        slice's clock has stopped."""
        samples = []
        gate.timed(len(out))
        for op, value, ms, status, body in out:
            if status != 200:
                gate.fail(f"{op}({value}): HTTP {status} {body.get('error', '')}")
            elif body["rows"] != self.expected[op, value]:
                gate.fail(f"{op}({value}): rows differ from the single-caller engine")
            else:
                samples.append((op, ms))
                self.engine_ms.append(body["elapsed_ms"])
                self.overhead_ms.append(ms - body["elapsed_ms"])
        return samples

    # -- correctness gate ----------------------------------------------------

    def _expected(self, gate: checks.Gate) -> dict:
        """What each (op, bind value) must return: a fresh single-caller
        engine over the same store, itself checked against direct NumPy."""
        facts, tiny = self.store.table("facts"), self.store.table("tiny")
        k, g, v1, v2, w = (facts.column(c).data for c in ("k", "g", "v1", "v2", "w"))
        v = tiny.column("v").data
        cells = np.bincount(k * GROUP_CARD + g, minlength=KEY_CARD * GROUP_CARD)
        sums = np.bincount(k * GROUP_CARD + g, weights=v1, minlength=KEY_CARD * GROUP_CARD)
        wide = [{"k": cell // GROUP_CARD, "g": cell % GROUP_CARD,
                 "s1": sums[cell], "cnt": int(cells[cell])}
                for cell in range(KEY_CARD * GROUP_CARD) if cells[cell]]
        expected = {}
        single = VoodooEngine(self.store, config=EngineConfig(tracing=False))
        try:
            for theta in THETAS:
                table = single.execute(POINT_SQL, theta=theta).table
                gate.check(checks.rows_match(table, float(v2[v1 <= theta].sum())),
                           f"point_agg({theta}) differs from NumPy")
                expected["point_agg", theta] = _wire_rows(table)
                table = single.execute(ADHOC_SQL.format(theta=theta)).table
                keep = v2 <= theta
                gate.check(checks.rows_match(
                    table, [{"total": v1[keep].sum(), "top": w[keep].max()}]),
                    f"adhoc_sql({theta}) differs from NumPy")
                expected["adhoc_sql", theta] = _wire_rows(table)
            for cut in LOOKUPS:
                table = single.execute(TINY_SQL, cut=cut).table
                gate.check(checks.rows_match(
                    table, [{"total": v[v <= cut].sum(), "cnt": int((v <= cut).sum())}]),
                    f"tiny_lookup({cut}) differs from NumPy")
                expected["tiny_lookup", cut] = _wire_rows(table)
            table = single.execute(WIDE_SQL).table
            gate.check(checks.rows_match(table, wide), "wide_result differs from NumPy")
            expected["wide_result", None] = _wire_rows(table)
            self.tables = {"wide_result": table}
        finally:
            single.close()
        return expected

    def gates(self, gate: checks.Gate, delta: dict) -> None:
        gate.check(delta["misses"] == 0,
                   f"{delta['misses']} plans compiled in the measured slices of a warm server")

    def verify(self, gate: checks.Gate) -> dict:
        return {}  # every response was compared in _account

    # -- traced pass ---------------------------------------------------------

    def trace(self, spans, recorder: Recorder, gate: checks.Gate) -> dict:
        return self.loop.run_until_complete(self._trace(spans, recorder, gate))

    async def _trace(self, spans, recorder: Recorder, gate: checks.Gate) -> dict:
        """One client, one request at a time.  The client-observed request
        is the root span; its replay is the same operation through
        ``handle_request`` in-process (no socket), so transport is the
        difference.  The stages *inside* the dispatch — bind, cache key,
        Load context, kernels, serialisation, scheduler hand-off — are
        replayed one public call each under a sibling ``stages`` span."""
        engine = self.server.catalog.engine(DATASET)
        handoff_ms, sizes = [], {}
        for lap, per_client in enumerate(self._schedule(self.ctx.trace_laps, stream=2)):
            first, out, handoff = len(spans.spans), [], []
            start = time.perf_counter()
            for number, (op, value) in enumerate(per_client[0]):
                tag = f"{op}#{lap}.{number}"
                method, path, payload = self._request(0, op, value)
                with spans.span("op", tag):
                    with spans.span("serving.request", tag) as real:
                        status, body = await self.clients[0].request(method, path, payload)
                    out.append((op, value, (real.end - real.start) * 1000.0, status, body))
                    with spans.span("replay", tag):
                        with spans.span("serving.dispatch", tag):
                            await self.server.handle_request(
                                method, path, json.dumps(payload).encode())
                    with spans.span("stages", tag):
                        if op == "adhoc_sql":
                            with spans.span("relational.parse", tag):
                                prepared = engine.prepare(payload["sql"])
                        else:
                            prepared = engine.prepare(STATEMENTS[op])
                        params = payload.get("params", {})
                        with spans.span("relational.bind", tag):
                            query = prepared.bind(**params)
                        replay.warm_stages(spans, tag, engine, query, engine.compile(query))
                        table = prepared.execute(**params).table
                        with spans.span("serving.serialize", tag):
                            wire = json.dumps(table_to_json(table, 0.0))
                        sizes.setdefault(op, []).append(len(wire))
                        begin = time.perf_counter()
                        await self.server.scheduler.run(lambda: None)
                        handoff.append((time.perf_counter() - begin) * 1000.0)
            done = recorder.add((time.perf_counter() - start) * 1000.0,
                                self._account(out, gate))
            spans.scale_from(first, done.factor)
            handoff_ms += [ms * done.factor for ms in handoff]
        rows = replay.stage_rows(spans, root="serving.request")
        # the engine's execute call sits inside the server: not visible from outside
        rows["relational.execute_ms"] = rows["relational.extract_ms"] = 0.0
        rows["serving.transport_ms"] = max(
            0.0, layer_ms(spans, "serving.request") - rows["serving.dispatch_ms"])
        rows["serving.scheduler_handoff_ms"] = median(handoff_ms)
        rows["serving.response_bytes"] = sum(median(v) for v in sizes.values()) / len(sizes)
        return rows

    def layer_rows(self, recorder: Recorder, delta: dict, setup: dict) -> dict:
        per_op = recorder.per_op()
        scale = median(done.factor for done in recorder.rounds)
        everything = [ms for values in per_op.values() for ms in values]
        rows = {f"serving.{op}_ms_p50": median(values) for op, values in per_op.items()}
        rows.update(cache_rows(delta))
        rows.update({
            "serving.latency_p95_ms": geomean(percentile(v, 0.95) for v in per_op.values()),
            "serving.latency_p99_ms": percentile(everything, 0.99),
            "serving.engine_ms_p50": median(self.engine_ms) * scale,
            "serving.overhead_ms_p50": median(self.overhead_ms) * scale,
            "serving.rejected": delta["rejected"],
            "serving.timeouts": delta["timeouts"],
            "serving.errors": delta["errors"],
        })
        return rows


def _wire_rows(table) -> list:
    """The rows as a client receives them (through JSON, both ways)."""
    return json.loads(json.dumps(table_to_json(table, 0.0)))["rows"]
