"""Device profiles for the hardware cost simulator.

Three profiles mirror the paper's evaluation hardware (section 5.1):

* ``cpu-1t``  — one core of the Intel Xeon E3-1270v5 (Skylake, 3.6 GHz)
* ``cpu-mt``  — the full chip (4 cores / 8 threads, AVX2)
* ``gpu``     — the GeForce GTX TITAN X (3072 lanes, 300 GB/s, no
  speculative execution, integer arithmetic traded for float throughput)

Constants are calibrated so the microbenchmark *shapes* of the paper
(Figures 1, 14, 15, 16) emerge from first principles; see
``tests/hardware/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import VoodooError


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy."""

    name: str
    size_bytes: int
    latency_cycles: float
    line_bytes: int = 64


@dataclass(frozen=True)
class DeviceProfile:
    """Everything the cost model needs to know about a target device."""

    name: str
    description: str
    #: execution resources
    cores: int
    threads: int                 # hardware threads (parallel work executors)
    simd_width: int              # elements per vector instruction (4-byte lanes)
    clock_hz: float
    #: per-operation costs, in cycles per (scalar) operation
    int_op_cycles: float
    float_op_cycles: float
    #: branching behaviour
    speculative: bool            # CPUs speculate; GPUs do not
    branch_miss_penalty: float   # cycles per mispredicted branch
    branch_divergence_penalty: float  # GPU: extra cycles per divergent branch
    #: memory system
    cache_levels: tuple[CacheLevel, ...]
    memory_latency_cycles: float
    memory_bandwidth: float      # bytes/second, shared across threads
    #: how many outstanding random accesses the device overlaps
    memory_parallelism: float
    #: fixed cost per kernel launch / global barrier
    kernel_launch_seconds: float
    #: slowdown of order-preserving sequential loops (warp serialization on
    #: GPUs; 1.0 on CPUs where a scalar loop wastes nothing but SIMD)
    warp_serial_factor: float = 1.0

    def last_level_cache(self) -> CacheLevel:
        return self.cache_levels[-1]


def _skylake_caches() -> tuple[CacheLevel, ...]:
    return (
        CacheLevel("L1", 32 * 1024, 4),
        CacheLevel("L2", 256 * 1024, 12),
        CacheLevel("L3", 8 * 1024 * 1024, 42),
    )


CPU_1T = DeviceProfile(
    name="cpu-1t",
    description="Intel Xeon E3-1270v5, single thread, scalar+AVX2",
    cores=1,
    threads=1,
    simd_width=8,
    clock_hz=3.6e9,
    int_op_cycles=1.0,
    float_op_cycles=1.0,
    speculative=True,
    branch_miss_penalty=24.0,
    branch_divergence_penalty=0.0,
    cache_levels=_skylake_caches(),
    memory_latency_cycles=220.0,
    memory_bandwidth=18e9,        # one thread cannot saturate the socket
    memory_parallelism=10.0,
    kernel_launch_seconds=2e-6,
)

CPU_MT = DeviceProfile(
    name="cpu-mt",
    description="Intel Xeon E3-1270v5, 4 cores / 8 threads, AVX2",
    cores=4,
    threads=8,
    simd_width=8,
    clock_hz=3.6e9,
    int_op_cycles=1.0,
    float_op_cycles=1.0,
    speculative=True,
    branch_miss_penalty=24.0,
    branch_divergence_penalty=0.0,
    cache_levels=_skylake_caches(),
    memory_latency_cycles=220.0,
    memory_bandwidth=34e9,
    memory_parallelism=40.0,
    kernel_launch_seconds=4e-6,
)

GPU = DeviceProfile(
    name="gpu",
    description="GeForce GTX TITAN X (Maxwell), 3072 lanes, 300 GB/s",
    cores=24,                     # SMs
    threads=3072,                 # resident scalar lanes
    simd_width=1,                 # lanes already counted individually
    clock_hz=1.1e9,
    int_op_cycles=4.0,            # paper: integer arithmetic sacrificed
    float_op_cycles=1.0,
    speculative=False,
    branch_miss_penalty=0.0,
    branch_divergence_penalty=8.0,
    cache_levels=(
        CacheLevel("L1", 48 * 1024, 30),
        CacheLevel("L2", 3 * 1024 * 1024, 180),
    ),
    memory_latency_cycles=450.0,
    memory_bandwidth=300e9,       # quoted in the paper's section 5.2
    memory_parallelism=3000.0,    # warp-level latency hiding
    kernel_launch_seconds=8e-6,
    warp_serial_factor=8.0,
)

_REGISTRY: dict[str, DeviceProfile] = {d.name: d for d in (CPU_1T, CPU_MT, GPU)}


def get_device(name: str) -> DeviceProfile:
    """Look up a built-in device profile by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise VoodooError(
            f"unknown device {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_devices() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
