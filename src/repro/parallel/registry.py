"""The process-wide worker-pool registry.

Worker pools used to be owned per engine: every
:class:`~repro.parallel.executor.ParallelInterpreter` constructed its own
``concurrent.futures`` executor, so ten concurrent serving engines meant
ten thread pools fighting over the same cores.  This module moves
ownership to one process-wide registry: thread pools are keyed by their
role and width, shared by every leaseholder of that key, and shut down
when the last lease is released.

    lease = REGISTRY.lease(4)
    lease.executor.submit(fn, ...)
    lease.release()                  # refcounted; last release shuts down

The serving layer's :class:`~repro.serving.scheduler.QueryScheduler`
leases its request-execution pool from here too (``role="queries"``), so
query fan-out and chunk fan-out draw from the same accounted set of
pools — but never from the same pool: N queries holding every thread of
the pool their chunks queue on would wait forever.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, ThreadPoolExecutor

from repro.errors import ExecutionError


class PoolLease:
    """One refcounted claim on a registry pool (release exactly once)."""

    __slots__ = ("_registry", "key", "_executor", "_released")

    def __init__(self, registry: "PoolRegistry", key: tuple[str, int], executor: Executor):
        self._registry = registry
        self.key = key
        self._executor = executor
        self._released = False

    @property
    def executor(self) -> Executor:
        if self._released:
            raise ExecutionError(f"pool lease {self.key} was already released")
        return self._executor

    def release(self) -> None:
        """Give the pool back (idempotent); the registry shuts the
        executor down when no leases remain."""
        if self._released:
            return
        self._released = True
        self._registry._release(self.key)

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class PoolRegistry:
    """Refcounted ``(role, workers) -> ThreadPoolExecutor`` map (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[tuple[str, int], Executor] = {}
        self._refs: dict[tuple[str, int], int] = {}
        #: lifetime counters (observability: the /stats endpoint shows them)
        self.created = 0
        self.reused = 0
        self.released = 0

    def lease(self, workers: int, *, role: str = "chunks") -> PoolLease:
        """A lease on the shared *workers*-wide pool of *role*, creating
        the executor when this is the first claim.  A task that waits on
        work it submits (a query, on its chunks) leases under another
        role than that work."""
        if workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {workers}")
        key = (role, int(workers))
        with self._lock:
            executor = self._pools.get(key)
            if executor is None:
                executor = ThreadPoolExecutor(
                    max_workers=key[1], thread_name_prefix=f"voodoo-{role}"
                )
                self._pools[key] = executor
                self.created += 1
            else:
                self.reused += 1
            self._refs[key] = self._refs.get(key, 0) + 1
            return PoolLease(self, key, executor)

    def _release(self, key: tuple[str, int]) -> None:
        with self._lock:
            remaining = self._refs.get(key, 0) - 1
            self.released += 1
            executor = None
            if remaining <= 0:
                self._refs.pop(key, None)
                executor = self._pools.pop(key, None)
            else:
                self._refs[key] = remaining
        if executor is not None:
            # outside the lock: shutdown waits on running workers
            executor.shutdown(wait=True)

    def stats(self) -> dict:
        with self._lock:
            return {
                "live_pools": len(self._pools),
                "active_leases": sum(self._refs.values()),
                "pools_created": self.created,
                "leases_reused": self.reused,
                "leases_released": self.released,
                "pools": {
                    f"{role}:{workers}": self._refs.get((role, workers), 0)
                    for role, workers in sorted(self._pools)
                },
            }

    def shutdown(self) -> None:
        """Force-close every pool (test teardown; outstanding leases are
        invalidated — their executors are shut down under them)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
            self._refs.clear()
        for executor in pools:
            executor.shutdown(wait=True)


#: the process-wide registry every backend leases from
REGISTRY = PoolRegistry()
