"""Trace-driven set-associative LRU cache simulator.

The analytical model in :mod:`repro.hardware.cache` is what benchmarks use
(it handles billion-element footprints in O(1)); this simulator replays
concrete address streams through a real set-associative LRU hierarchy and
is used by the test-suite to validate the analytical hit-rate
approximation, and by the ablation benchmarks for small traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import VoodooError
from repro.hardware.device import CacheLevel, DeviceProfile


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """One level: set-associative with true-LRU replacement."""

    def __init__(self, level: CacheLevel, associativity: int = 8):
        if level.size_bytes % (level.line_bytes * associativity):
            raise VoodooError(
                f"cache size {level.size_bytes} not divisible by "
                f"line*assoc ({level.line_bytes}*{associativity})"
            )
        self.level = level
        self.associativity = associativity
        self.n_sets = level.size_bytes // (level.line_bytes * associativity)
        self.line_bytes = level.line_bytes
        # per-set ordered list of resident tags; index 0 = LRU
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch *address*; returns True on hit. Misses install the line."""
        line = address // self.line_bytes
        set_idx = line % self.n_sets
        tag = line // self.n_sets
        resident = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in resident:
            resident.remove(tag)
            resident.append(tag)  # most recently used at the back
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        resident.append(tag)
        if len(resident) > self.associativity:
            resident.pop(0)
        return False


@dataclass
class HierarchyResult:
    per_level: dict[str, CacheStats] = field(default_factory=dict)
    total_cycles: float = 0.0
    accesses: int = 0

    @property
    def average_latency(self) -> float:
        return self.total_cycles / self.accesses if self.accesses else 0.0


class CacheHierarchySimulator:
    """Replays an address stream through all levels of a device's caches."""

    def __init__(self, device: DeviceProfile, associativity: int = 8):
        self.device = device
        self.levels = [SetAssociativeCache(lv, associativity) for lv in device.cache_levels]

    def run(self, addresses: np.ndarray) -> HierarchyResult:
        """Simulate the (byte-)address stream; returns per-level stats."""
        result = HierarchyResult()
        total_cycles = 0.0
        for address in np.asarray(addresses, dtype=np.int64):
            addr = int(address)
            satisfied = False
            for cache in self.levels:
                if cache.access(addr):
                    total_cycles += cache.level.latency_cycles
                    satisfied = True
                    break
            if not satisfied:
                total_cycles += self.device.memory_latency_cycles
        result.total_cycles = total_cycles
        result.accesses = len(addresses)
        result.per_level = {c.level.name: c.stats for c in self.levels}
        return result


def sequential_addresses(n: int, stride: int = 4, start: int = 0) -> np.ndarray:
    """A streaming address pattern (for tests)."""
    return start + np.arange(n, dtype=np.int64) * stride


def random_addresses(n: int, footprint: int, seed: int = 0, stride: int = 4) -> np.ndarray:
    """Uniform random addresses over *footprint* bytes (for tests)."""
    rng = np.random.default_rng(seed)
    slots = max(1, footprint // stride)
    return rng.integers(0, slots, n).astype(np.int64) * stride
