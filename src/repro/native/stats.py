"""Process-wide native-tier counters.

One counter block for the whole process (the JIT cache and the kernel
registry are process-wide too), surfaced through
``engine.cache_info()`` and the serving layer's ``/stats`` so the
zero-steady-state-compile claim is checkable under load.
"""

from __future__ import annotations

import threading
from collections import Counter


class NativeStats:
    """Thread-safe counters for the native tier."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def count(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def fallback(self, reason: str) -> None:
        with self._lock:
            self.fallbacks[reason] += 1

    def snapshot(self) -> dict:
        """A JSON-ready copy of all counters."""
        with self._lock:
            return {
                "kernels_compiled": self.kernels_compiled,
                "so_cache_hits": self.so_cache_hits,
                "memory_hits": self.memory_hits,
                # always 0: no map chain runs in C; the key stays for its
                # last reader, perfbench/analytics.py
                "chain_calls": 0,
                "fold_calls": self.fold_calls,
                "fallbacks": sum(self.fallbacks.values()),
                "fallback_reasons": dict(self.fallbacks),
            }

    def reset(self) -> None:
        with self._lock:
            self.kernels_compiled = 0
            self.so_cache_hits = 0
            self.memory_hits = 0
            self.fold_calls = 0
            self.fallbacks: Counter[str] = Counter()


#: The process-wide counter block.
STATS = NativeStats()


def snapshot() -> dict:
    return STATS.snapshot()

