"""The query scheduler: concurrency, admission, deadlines.

Every served query funnels through one :class:`QueryScheduler`, which
multiplexes in-flight requests onto a worker pool leased from the
process-wide :data:`repro.parallel.REGISTRY` — the same registry the
partition-parallel backend leases chunk pools from, so query fan-out and
chunk fan-out draw from one accounted set of pools (under distinct
roles: a query never waits on chunks queued behind other queries).

Three policies, all bounded:

* **Admission** — at most ``max_inflight`` requests may be queued or
  running; the next one is refused *immediately* with
  :class:`~repro.errors.AdmissionError` (fast-fail, so an overloaded
  server sheds load instead of building an unbounded queue).
* **Deadlines** — each request runs under ``asyncio.wait_for``; on
  expiry the caller gets :class:`~repro.errors.QueryTimeout`.  The
  worker thread cannot be preempted mid-kernel, so it finishes its
  current query in the background and returns to the pool — the pool
  stays reusable, the client just stops waiting (``abandoned`` counts
  these orphaned completions).
* **Accounting** — submitted/completed/rejected/timeout/error counters
  back the ``/stats`` endpoint.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.errors import AdmissionError, QueryTimeout
from repro.parallel import REGISTRY, PoolLease


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for one serving process."""

    workers: int = 4            #: width of the request-execution pool
    max_inflight: int = 32      #: admission bound (queued + running)
    default_timeout: float = 30.0  #: seconds; per-request override allowed
    host: str = "127.0.0.1"
    port: int = 8765


class QueryScheduler:
    """Runs blocking engine calls on a shared pool with bounded in-flight."""

    def __init__(self, config: ServingConfig | None = None):
        self.config = config or ServingConfig()
        self._lease: PoolLease | None = REGISTRY.lease(self.config.workers, role="queries")
        self.inflight = 0
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.abandoned = 0

    async def run(self, fn, timeout: float | None = None):
        """Run ``fn()`` on the worker pool; admission-check first, then
        wait at most ``timeout`` (default: the config's) seconds."""
        if self._lease is None:
            raise AdmissionError("scheduler is closed")
        if self.inflight >= self.config.max_inflight:
            self.rejected += 1
            raise AdmissionError(
                f"server is at capacity ({self.config.max_inflight} "
                f"queries in flight); retry later"
            )
        self.inflight += 1
        self.submitted += 1
        deadline = self.config.default_timeout if timeout is None else timeout
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._lease.executor, fn)
        try:
            result = await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.CancelledError:
            if future.cancelled():
                # the pool was shut down under us (server teardown) —
                # surface a servable refusal, not a bare cancellation
                self.errors += 1
                raise AdmissionError("scheduler is shutting down") from None
            raise  # the *caller* was cancelled: propagate normally
        except asyncio.TimeoutError:
            self.timeouts += 1
            # the worker finishes in the background; swallow its outcome
            # so an orphaned failure doesn't surface as "never retrieved"
            future.add_done_callback(self._abandon)
            raise QueryTimeout(
                f"query exceeded its {deadline:g}s deadline and was "
                f"cancelled (the worker finishes in the background)"
            ) from None
        except Exception:
            self.errors += 1
            raise
        finally:
            self.inflight -= 1
        self.completed += 1
        return result

    def _abandon(self, future) -> None:
        self.abandoned += 1
        if not future.cancelled():
            future.exception()  # retrieve, so it is not logged as lost

    def stats(self) -> dict:
        return {
            "inflight": self.inflight,
            "max_inflight": self.config.max_inflight,
            "workers": self.config.workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "abandoned": self.abandoned,
            "pool_registry": REGISTRY.stats(),
        }

    def close(self) -> None:
        if self._lease is not None:
            self._lease.release()
            self._lease = None
