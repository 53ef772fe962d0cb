"""The serving front end: an asyncio server speaking HTTP JSON (and,
optionally, JSON-lines over stdio).

One :class:`VoodooServer` owns a :class:`~repro.serving.catalog.Catalog`
of datasets, a :class:`~repro.serving.session.SessionManager`, and a
:class:`~repro.serving.scheduler.QueryScheduler`.  Both transports share
the same :meth:`VoodooServer.dispatch` operation table, so the HTTP
routes and the stdio protocol cannot drift apart:

====================  =========  =====================================
operation             HTTP       payload
====================  =========  =====================================
``health``            GET /health
``stats``             GET /stats
``catalog``           GET /catalog
``open``              POST /session          ``{"dataset"}``
``close``             POST /session/close    ``{"session"}``
``prepare``           POST /prepare          ``{"session", "sql"}``
``execute``           POST /execute          ``{"session", "statement",
                                             "params", "timeout"}``
``query``             POST /query            ``{"dataset"|"session",
                                             "sql", "params", "timeout"}``
====================  =========  =====================================

The server is deliberately stdlib-only (``asyncio`` streams plus a
minimal HTTP/1.1 reader with keep-alive) — the point of this layer is
the scheduling and cache-sharing architecture, not a web framework.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import numpy as np

from repro.errors import (
    AdmissionError,
    QueryTimeout,
    ServingError,
    VoodooError,
)
from repro.serving.catalog import Catalog
from repro.serving.scheduler import QueryScheduler, ServingConfig
from repro.serving.session import SessionManager

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


def _json_value(value):
    """A JSON-encodable mirror of a numpy scalar."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _json_column(array: np.ndarray) -> list:
    """One result column as Python values, in one pass: ``tolist()``
    converts a bool, integer or (at most double-width) float column
    exactly as :func:`_json_value` converts each of its cells; any other
    column (decoded strings are ``object``) still goes cell by cell."""
    if array.dtype.kind in "biuf" and array.dtype.itemsize <= 8:
        return array.tolist()
    return [_json_value(value) for value in array.tolist()]


def table_to_json(table, elapsed_ms: float) -> dict:
    """Serialize a :class:`~repro.relational.engine.ResultTable` as
    ``{"columns", "rows", "row_count", "elapsed_ms"}``, ``rows`` a list
    of row lists.

    One ``tolist()`` per column, zipped into rows: no per-cell NumPy
    scalar is built on the event-loop thread.  The dict and its
    ``json.dumps`` text are those of a per-cell :func:`_json_value`
    conversion.
    """
    columns = list(table.columns)
    if columns:
        rows = list(map(list, zip(*(_json_column(table.arrays[c]) for c in columns))))
    else:
        rows = [[] for _ in range(len(table))]
    return {
        "columns": columns,
        "rows": rows,
        "row_count": len(table),
        "elapsed_ms": round(elapsed_ms, 3),
    }


def _content_length(headers: dict) -> int | None:
    """The request's body length (0 when absent); ``None`` when the
    header is not a non-negative decimal integer."""
    text = headers.get("content-length") or "0"
    if not (text.isascii() and text.isdigit()):
        return None
    return int(text)


class VoodooServer:
    """Catalog + sessions + scheduler behind one dispatch table."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        serving: ServingConfig | None = None,
    ):
        self.catalog = catalog or Catalog()
        self.sessions = SessionManager()
        self.scheduler = QueryScheduler(serving)
        self.started = time.time()
        self.requests = 0

    # -- operations --------------------------------------------------------

    async def dispatch(self, op: str, payload: dict) -> dict:
        """Run one operation; raises the library's error types on failure
        (transport adapters map them to status codes)."""
        self.requests += 1
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ServingError(f"unknown operation {op!r}")
        return await handler(payload or {})

    async def _op_health(self, payload: dict) -> dict:
        return {"status": "ok", "uptime_s": round(time.time() - self.started, 3)}

    async def _op_stats(self, payload: dict) -> dict:
        from repro.native import snapshot

        return {
            "scheduler": self.scheduler.stats(),
            "sessions": self.sessions.stats(),
            "engines": self.catalog.cache_info(),
            # process-wide native-tier counters (kernels compiled, .so
            # cache hits, per-kernel fallbacks) — a warm serving window
            # must show kernels_compiled flat between polls
            "native": snapshot(),
            # per-dataset segment layout, encodings, honest footprint, and
            # cumulative bytes_scanned / bytes_decompressed counters
            "storage": self.catalog.storage_info(),
            "requests": self.requests,
        }

    async def _op_catalog(self, payload: dict) -> dict:
        return self.catalog.describe()

    async def _op_open(self, payload: dict) -> dict:
        dataset = self._field(payload, "dataset")
        self.catalog.store(dataset)  # validate before creating state
        session = self.sessions.open(dataset)
        return {"session": session.id, "dataset": dataset}

    async def _op_close(self, payload: dict) -> dict:
        self.sessions.close(self._field(payload, "session"))
        return {"closed": True}

    async def _op_prepare(self, payload: dict) -> dict:
        session = self.sessions.get(self._field(payload, "session"))
        sql = self._field(payload, "sql")
        engine = self.catalog.engine(session.dataset)
        prepared = engine.prepare(sql)
        statement = session.add_statement(prepared)
        return {"statement": statement, "params": list(prepared.params)}

    async def _op_execute(self, payload: dict) -> dict:
        session = self.sessions.get(self._field(payload, "session"))
        prepared = session.statement(self._field(payload, "statement"))
        return await self._run(
            prepared, self._params(payload), payload.get("timeout"), session
        )

    async def _op_query(self, payload: dict) -> dict:
        """One-shot SQL: still routed through ``engine.prepare``, so a
        repeated ad-hoc shape is as warm as an explicit statement."""
        if "session" in payload:
            session = self.sessions.get(payload["session"])
            dataset = session.dataset
        else:
            session = None
            dataset = self._field(payload, "dataset")
        engine = self.catalog.engine(dataset)
        prepared = engine.prepare(self._field(payload, "sql"))
        return await self._run(
            prepared, self._params(payload), payload.get("timeout"), session
        )

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _field(payload: dict, name: str):
        value = payload.get(name)
        if value is None:
            raise ServingError(f"request is missing required field {name!r}")
        return value

    @staticmethod
    def _params(payload: dict) -> dict:
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServingError('"params" must be an object of name -> value')
        return params

    async def _run(self, prepared, params, timeout, session) -> dict:
        # bind on the loop thread (a memo hit when warm, and it validates
        # the params before the request occupies a worker slot)
        bound = prepared.bind(**params)

        def work():
            start = time.perf_counter()
            table = prepared.run(bound).table
            return table, (time.perf_counter() - start) * 1000.0

        table, elapsed_ms = await self.scheduler.run(
            work, None if timeout is None else float(timeout)
        )
        if session is not None:
            session.queries_run += 1
        return table_to_json(table, elapsed_ms)

    # -- HTTP transport ----------------------------------------------------

    _ROUTES = {
        ("GET", "/health"): "health",
        ("GET", "/stats"): "stats",
        ("GET", "/catalog"): "catalog",
        ("POST", "/session"): "open",
        ("POST", "/session/close"): "close",
        ("POST", "/prepare"): "prepare",
        ("POST", "/execute"): "execute",
        ("POST", "/query"): "query",
    }

    @staticmethod
    def _status_for(error: Exception) -> int:
        if isinstance(error, AdmissionError):
            return 429
        if isinstance(error, QueryTimeout):
            return 504
        if isinstance(error, (ServingError, VoodooError)):
            return 400
        return 500

    async def handle_request(self, method: str, path: str, body: bytes):
        """(status, payload) for one HTTP request — shared by tests."""
        op = self._ROUTES.get((method, path))
        if op is None:
            known = path in {p for _, p in self._ROUTES}
            return (405 if known else 404), {
                "error": f"no route for {method} {path}"
            }
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError as error:
            return 400, {"error": f"invalid JSON body: {error}"}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object, "
                                  f"got {type(payload).__name__}"}
        try:
            return 200, await self.dispatch(op, payload)
        except Exception as error:  # mapped, never a dropped connection
            return self._status_for(error), {
                "error": str(error), "type": type(error).__name__,
            }

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, path, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = _content_length(headers)
                if length is None:
                    await self._respond(writer, 400, {
                        "error": "malformed Content-Length header "
                                 f"{headers['content-length']!r}",
                    }, keep_alive=False)
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    headers.get(
                        "connection",
                        "keep-alive" if version == "HTTP/1.1" else "close",
                    ).lower()
                    != "close"
                )
                status, payload = await self.handle_request(method, path, body)
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass  # loop teardown may cancel the close waiter

    @staticmethod
    async def _respond(writer, status: int, payload: dict, keep_alive: bool) -> None:
        data = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    async def start(self, host: str | None = None, port: int | None = None):
        """Start listening; returns the ``asyncio.Server`` (caller owns
        its lifetime — use ``server.close()`` / ``wait_closed()``)."""
        config = self.scheduler.config
        return await asyncio.start_server(
            self._handle_client,
            host if host is not None else config.host,
            port if port is not None else config.port,
        )

    async def serve_forever(
        self, host: str | None = None, port: int | None = None,
        ready=None,
    ) -> None:
        server = await self.start(host, port)
        address = server.sockets[0].getsockname()
        if ready is not None:
            ready(address)
        async with server:
            await server.serve_forever()

    # -- stdio transport ---------------------------------------------------

    async def serve_stdio(self, stdin=None, stdout=None) -> None:
        """JSON-lines over stdio: one request object per line
        (``{"op": ..., ...payload}``), one response object per line
        (``{"ok": bool, ...}``).  Ends on EOF or ``{"op": "quit"}``."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, stdin.readline)
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise TypeError(
                        f"expected a JSON object, got {type(request).__name__}")
                op = request.pop("op")
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                response = {"ok": False, "error": f"bad request line: {error}"}
            else:
                if op == "quit":
                    break
                try:
                    result = await self.dispatch(op, request)
                    response = {"ok": True, "result": result}
                except Exception as error:
                    response = {
                        "ok": False,
                        "error": str(error),
                        "type": type(error).__name__,
                        "status": self._status_for(error),
                    }
            stdout.write(json.dumps(response) + "\n")
            stdout.flush()

    def close(self) -> None:
        self.sessions.close_all()
        self.scheduler.close()
        self.catalog.close()
