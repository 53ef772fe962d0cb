"""The serving layer end to end: sessions, scheduling, HTTP, stdio.

No pytest-asyncio here — each test drives its own loop with
``asyncio.run`` (the serving layer itself is plain asyncio).
"""

import asyncio
import io
import json
import threading

import numpy as np
import pytest

from repro.errors import AdmissionError, QueryTimeout, ServingError
from repro.serving import (
    Catalog,
    QueryScheduler,
    ServingConfig,
    SessionManager,
    VoodooServer,
)
from repro.serving.catalog import micro_store

SQL = "SELECT SUM(v2) AS total FROM facts WHERE v1 <= :theta"


def make_server(rows: int = 50_000, **serving) -> VoodooServer:
    catalog = Catalog()
    catalog.add("micro", micro_store(rows))
    defaults = dict(workers=2, max_inflight=16, default_timeout=10.0)
    defaults.update(serving)
    return VoodooServer(catalog=catalog, serving=ServingConfig(**defaults))


async def http(host, port, method, path, payload=None):
    """One-shot HTTP request (own connection)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write((
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    data = json.loads(await reader.readexactly(length))
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    return status, data


class TestSessions:
    def test_open_prepare_execute_close(self):
        async def run():
            server = make_server()
            try:
                opened = await server.dispatch("open", {"dataset": "micro"})
                prepared = await server.dispatch(
                    "prepare", {"session": opened["session"], "sql": SQL}
                )
                assert prepared["params"] == ["theta"]
                result = await server.dispatch("execute", {
                    "session": opened["session"],
                    "statement": prepared["statement"],
                    "params": {"theta": 0.2},
                })
                assert result["columns"] == ["total"]
                assert result["row_count"] == 1
                await server.dispatch("close", {"session": opened["session"]})
                with pytest.raises(ServingError, match="session"):
                    await server.dispatch("execute", {
                        "session": opened["session"],
                        "statement": prepared["statement"],
                        "params": {"theta": 0.2},
                    })
            finally:
                server.close()
        asyncio.run(run())

    def test_unknown_dataset_and_statement(self):
        async def run():
            server = make_server()
            try:
                with pytest.raises(ServingError, match="dataset"):
                    await server.dispatch("open", {"dataset": "nope"})
                opened = await server.dispatch("open", {"dataset": "micro"})
                with pytest.raises(ServingError, match="statement"):
                    await server.dispatch("execute", {
                        "session": opened["session"], "statement": "s99",
                    })
            finally:
                server.close()
        asyncio.run(run())

    def test_sessions_share_the_dataset_engine_caches(self):
        """Two sessions preparing the same SQL compile exactly once."""
        async def run():
            server = make_server()
            try:
                for _ in range(2):
                    opened = await server.dispatch("open", {"dataset": "micro"})
                    prepared = await server.dispatch(
                        "prepare", {"session": opened["session"], "sql": SQL}
                    )
                    await server.dispatch("execute", {
                        "session": opened["session"],
                        "statement": prepared["statement"],
                        "params": {"theta": 0.2},
                    })
                info = server.catalog.cache_info()["micro"]
                assert info["plan_misses"] == 1
                assert info["plan_hits"] == 1
            finally:
                server.close()
        asyncio.run(run())


    def test_warm_execute_walks_no_query(self, monkeypatch):
        """A warm POST /execute reaches the plan cache with the
        statement's memoized bound query: no node is built and no
        query tree is walked."""
        from repro.relational import expressions as ex

        calls = []
        build_node = ex.Node.__post_init__
        fields_of = ex.node_fields

        def counted_build(node):
            calls.append(node)
            build_node(node)

        def counted_fields(cls):
            calls.append(cls)
            return fields_of(cls)

        async def run():
            server = make_server()
            try:
                opened = await server.dispatch("open", {"dataset": "micro"})
                prepared = await server.dispatch(
                    "prepare", {"session": opened["session"], "sql": SQL})
                body = json.dumps({
                    "session": opened["session"],
                    "statement": prepared["statement"],
                    "params": {"theta": 0.2},
                }).encode()
                status, cold = await server.handle_request("POST", "/execute", body)
                assert status == 200
                monkeypatch.setattr(ex.Node, "__post_init__", counted_build)
                monkeypatch.setattr(ex, "node_fields", counted_fields)
                for _ in range(3):
                    status, warm = await server.handle_request("POST", "/execute", body)
                    assert status == 200 and warm["rows"] == cold["rows"]
                assert calls == []
                info = server.catalog.cache_info()["micro"]
                assert (info["plan_misses"], info["plan_hits"]) == (1, 3)
            finally:
                server.close()
        asyncio.run(run())


class TestScheduler:
    def test_admission_rejects_beyond_capacity(self):
        """max_inflight=1: concurrent submissions past the first are
        refused immediately with AdmissionError."""
        async def run():
            scheduler = QueryScheduler(ServingConfig(
                workers=1, max_inflight=1, default_timeout=10.0))
            try:
                import threading
                release = threading.Event()

                first = asyncio.ensure_future(
                    scheduler.run(lambda: release.wait(5)))
                await asyncio.sleep(0.05)        # first occupies the slot
                with pytest.raises(AdmissionError, match="capacity"):
                    await scheduler.run(lambda: 1)
                release.set()
                assert await first is True
                assert scheduler.stats()["rejected"] == 1
                assert scheduler.stats()["completed"] == 1
            finally:
                scheduler.close()
        asyncio.run(run())

    def test_timeout_raises_and_pool_stays_usable(self):
        async def run():
            scheduler = QueryScheduler(ServingConfig(
                workers=1, max_inflight=4, default_timeout=10.0))
            try:
                import threading
                release = threading.Event()
                with pytest.raises(QueryTimeout, match="deadline"):
                    await scheduler.run(lambda: release.wait(5), timeout=0.05)
                release.set()
                # the worker that timed out finishes in the background;
                # the pool must still serve new work
                assert await scheduler.run(lambda: 42) == 42
                stats = scheduler.stats()
                assert stats["timeouts"] == 1
                assert stats["completed"] == 1
            finally:
                scheduler.close()
        asyncio.run(run())

    def test_errors_are_counted_and_propagated(self):
        async def run():
            scheduler = QueryScheduler(ServingConfig(workers=1))
            try:
                with pytest.raises(ValueError, match="boom"):
                    await scheduler.run(
                        lambda: (_ for _ in ()).throw(ValueError("boom")))
                assert scheduler.stats()["errors"] == 1
            finally:
                scheduler.close()
        asyncio.run(run())

    def test_closed_scheduler_refuses(self):
        async def run():
            scheduler = QueryScheduler(ServingConfig(workers=1))
            scheduler.close()
            with pytest.raises(AdmissionError, match="closed"):
                await scheduler.run(lambda: 1)
        asyncio.run(run())


class TestHTTP:
    def test_concurrent_clients_get_consistent_results(self):
        async def run():
            server = make_server()
            listener = await server.start("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()
            try:
                async def client(i):
                    _, opened = await http(host, port, "POST", "/session",
                                           {"dataset": "micro"})
                    _, prepared = await http(host, port, "POST", "/prepare", {
                        "session": opened["session"], "sql": SQL})
                    values = []
                    for theta in (0.1, 0.3):
                        status, result = await http(
                            host, port, "POST", "/execute", {
                                "session": opened["session"],
                                "statement": prepared["statement"],
                                "params": {"theta": theta},
                            })
                        assert status == 200, result
                        values.append(result["rows"][0][0])
                    return values

                results = await asyncio.gather(*(client(i) for i in range(5)))
                assert all(r == results[0] for r in results)
                status, stats = await http(host, port, "GET", "/stats")
                assert stats["scheduler"]["completed"] == 10
                assert stats["scheduler"]["errors"] == 0
            finally:
                listener.close()
                await listener.wait_closed()
                server.close()
        asyncio.run(run())

    def test_admission_rejection_over_http_is_429(self):
        async def run():
            server = make_server(rows=400_000, workers=1, max_inflight=1)
            listener = await server.start("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()
            try:
                heavy = {"dataset": "micro",
                         "sql": "SELECT SUM(v1 * v2) AS s FROM facts"}
                responses = await asyncio.gather(*(
                    http(host, port, "POST", "/query", heavy)
                    for _ in range(6)
                ))
                statuses = sorted(status for status, _ in responses)
                assert 200 in statuses
                assert 429 in statuses, statuses
            finally:
                listener.close()
                await listener.wait_closed()
                server.close()
        asyncio.run(run())

    def test_timeout_over_http_is_504_and_server_recovers(self):
        # The deadline must beat the query however fast the engine is (a
        # worker can finish a 2 ms query inside one GIL switch interval,
        # before the loop sees the deadline pass): the worker is held
        # until the 504 has been asserted.
        release = threading.Event()

        async def run():
            server = make_server(rows=400_000)
            engine = server.catalog.engine("micro")
            plain = engine._execute_bound

            def held(*binding):
                assert release.wait(30)
                return plain(*binding)

            engine._execute_bound = held
            listener = await server.start("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()
            try:
                status, body = await http(host, port, "POST", "/query", {
                    "dataset": "micro",
                    "sql": "SELECT SUM(v1 * v2) AS s FROM facts",
                    "timeout": 0.0001,
                })
                assert status == 504
                assert body["type"] == "QueryTimeout"
                release.set()
                status, body = await http(host, port, "POST", "/query", {
                    "dataset": "micro", "sql": "SELECT COUNT(*) AS n FROM facts",
                })
                assert status == 200
                assert body["rows"] == [[400_000]]
            finally:
                release.set()
                listener.close()
                await listener.wait_closed()
                server.close()
        asyncio.run(run())

    def test_routing_errors(self):
        async def run():
            server = make_server()
            try:
                status, _ = await server.handle_request("GET", "/nope", b"")
                assert status == 404
                status, _ = await server.handle_request(
                    "DELETE", "/query", b"")
                assert status == 405
                status, _ = await server.handle_request(
                    "POST", "/query", b"{not json")
                assert status == 400
                for body in (b"[1]", b"null", b"3", b'"sql"'):
                    status, error = await server.handle_request("POST", "/query", body)
                    assert status == 400, body
                    assert "must be a JSON object" in error["error"]
                status, body = await server.handle_request(
                    "POST", "/query",
                    json.dumps({"dataset": "micro",
                                "sql": "SELECT FROM"}).encode())
                assert status == 400
                assert body["type"] == "SQLError"
            finally:
                server.close()
        asyncio.run(run())

    @pytest.mark.parametrize("limit", ["-1", "2.5", ":n", "k"])
    def test_a_bad_limit_is_400(self, limit):
        """``LIMIT`` takes a non-negative integer literal; anything else
        is the client's SQL error, not a server fault."""
        async def run():
            server = make_server(rows=1_000)
            try:
                status, body = await server.handle_request(
                    "POST", "/query",
                    json.dumps({"dataset": "micro",
                                "sql": f"select k from facts limit {limit}"}).encode())
                assert status == 400, body
                assert body["type"] == "SQLError" and "LIMIT" in body["error"]
                status, body = await server.handle_request(
                    "POST", "/query",
                    json.dumps({"dataset": "micro",
                                "sql": "select k from facts limit 3"}).encode())
                assert status == 200 and body["row_count"] == 3
            finally:
                server.close()
        asyncio.run(run())

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1.5"])
    def test_malformed_content_length_is_400_then_close(self, length):
        unhandled = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = make_server()
            listener = await server.start("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write((
                    f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {length}\r\n\r\n{{}}"
                ).encode())
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), 10)  # to EOF
                head, _, data = response.partition(b"\r\n\r\n")
                assert head.split()[1] == b"400"
                assert b"Connection: close" in head
                assert "Content-Length" in json.loads(data)["error"]
                writer.close()
                await writer.wait_closed()
                status, _ = await http(host, port, "GET", "/health")
                assert status == 200
            finally:
                listener.close()
                await listener.wait_closed()
                server.close()
        asyncio.run(run())
        assert unhandled == []

    def test_keep_alive_reuses_one_connection(self):
        async def run():
            server = make_server()
            listener = await server.start("127.0.0.1", 0)
            host, port = listener.sockets[0].getsockname()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for _ in range(3):
                    writer.write(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status = int((await reader.readline()).split()[1])
                    assert status == 200
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    await reader.readexactly(length)
                writer.close()
                await writer.wait_closed()
            finally:
                listener.close()
                await listener.wait_closed()
                server.close()
        asyncio.run(run())


class TestStdio:
    def test_json_lines_protocol(self):
        server = make_server()
        stdin = io.StringIO("\n".join([
            json.dumps({"op": "health"}),
            json.dumps({"op": "open", "dataset": "micro"}),
            json.dumps({"op": "query", "dataset": "micro",
                        "sql": "SELECT COUNT(*) AS n FROM facts"}),
            json.dumps({"op": "bogus"}),
            "not json",
            "[1]",
            "null",
            json.dumps({"op": "health"}),
            json.dumps({"op": "quit"}),
        ]) + "\n")
        stdout = io.StringIO()
        try:
            asyncio.run(server.serve_stdio(stdin=stdin, stdout=stdout))
        finally:
            server.close()
        responses = [json.loads(line)
                     for line in stdout.getvalue().strip().splitlines()]
        assert responses[0]["ok"] is True
        assert responses[1]["result"]["dataset"] == "micro"
        assert responses[2]["result"]["rows"] == [[50_000]]
        assert responses[3]["ok"] is False
        assert responses[3]["status"] == 400
        assert responses[4]["ok"] is False     # bad JSON line reported
        # valid JSON that is not an object: reported, and the loop serves on
        for response in responses[5:7]:
            assert response["ok"] is False
            assert "expected a JSON object" in response["error"]
        assert responses[7]["ok"] is True
        assert len(responses) == 8


class TestServedIdentity:
    def test_served_results_match_single_caller_engine(self):
        """The serving path returns byte-for-byte what a lone engine does."""
        from repro.relational import EngineConfig, VoodooEngine

        store = micro_store(20_000)
        catalog = Catalog()
        catalog.add("micro", store)
        served_engine = catalog.engine("micro")
        prepared = served_engine.prepare(SQL)
        served = prepared.execute(theta=0.4).table
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as lone:
            expected = lone.prepare(SQL).execute(theta=0.4).table
        for column in expected.columns:
            assert np.array_equal(served.arrays[column],
                                  expected.arrays[column])
        catalog.close()

    def test_served_tpch_matches_single_caller_engine(self):
        """All 14 TPC-H queries through a catalog's shared engine: same
        columns, dtypes and values as a fresh engine's."""
        from repro.relational import EngineConfig, VoodooEngine
        from repro.tpch import QUERIES, build, generate

        store = generate(0.005, seed=42)
        catalog = Catalog()
        catalog.add("tpch", store)
        try:
            with VoodooEngine(store, config=EngineConfig(tracing=False)) as lone:
                for number in sorted(QUERIES):
                    query = build(store, number)
                    served = catalog.engine("tpch").prepare(query).execute().table
                    expected = lone.execute(query).table
                    assert served.columns == expected.columns, number
                    for column in expected.columns:
                        assert served.arrays[column].dtype == expected.arrays[column].dtype
                        assert np.array_equal(served.arrays[column],
                                              expected.arrays[column]), (number, column)
        finally:
            catalog.close()


class TestSessionManager:
    def test_stats_track_open_close(self):
        manager = SessionManager()
        session = manager.open("micro")
        assert manager.get(session.id) is session
        manager.close(session.id)
        with pytest.raises(ServingError):
            manager.get(session.id)
        assert manager.stats() == {
            "active_sessions": 0, "sessions_opened": 1, "sessions_closed": 1,
        }
