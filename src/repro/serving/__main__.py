"""CLI entry: ``python -m repro.serving`` starts a serving process.

Datasets are loaded up front (``--micro N`` rows and/or ``--tpch
SCALE``), then the server listens until interrupted.  ``--stdio``
switches the transport to JSON-lines on stdin/stdout — same operations,
no sockets (useful under CI and as a subprocess protocol).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.relational import EngineConfig
from repro.serving.catalog import Catalog, micro_store
from repro.serving.scheduler import ServingConfig
from repro.serving.server import VoodooServer


def build_catalog(args: argparse.Namespace) -> Catalog:
    catalog = Catalog(config=EngineConfig(tracing=False))
    if args.micro:
        catalog.add("micro", micro_store(args.micro))
    if args.tpch:
        from repro.tpch import generate

        catalog.add("tpch", generate(scale_factor=args.tpch, seed=args.seed))
    if not catalog.names():
        raise SystemExit(
            "no datasets: pass --micro N and/or --tpch SCALE"
        )
    return catalog


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve Voodoo queries over HTTP JSON or stdio.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--workers", type=int, default=4,
                        help="request-execution pool width")
    parser.add_argument("--max-inflight", type=int, default=32,
                        help="admission bound on queued+running queries")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="default per-query deadline in seconds")
    parser.add_argument("--micro", type=int, default=0, metavar="ROWS",
                        help="load the micro-benchmark dataset with ROWS rows")
    parser.add_argument("--tpch", type=float, default=0.0, metavar="SCALE",
                        help="load TPC-H at this scale factor (e.g. 0.01)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--stdio", action="store_true",
                        help="serve JSON-lines over stdio instead of HTTP")
    args = parser.parse_args(argv)

    serving = ServingConfig(
        workers=args.workers,
        max_inflight=args.max_inflight,
        default_timeout=args.timeout,
        host=args.host,
        port=args.port,
    )
    server = VoodooServer(catalog=build_catalog(args), serving=serving)

    def announce(address):
        print(f"serving {server.catalog.names()} on "
              f"http://{address[0]}:{address[1]}", file=sys.stderr, flush=True)

    try:
        if args.stdio:
            asyncio.run(server.serve_stdio())
        else:
            asyncio.run(server.serve_forever(ready=announce))
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
