"""Hardware substrate: device profiles, cache/branch models, cost model.

This package is the reproduction's substitute for the paper's physical
CPU/GPU testbed (README, "Execution backends"): executing kernels emit
:class:`~repro.hardware.trace.Trace` records of what the generated machine
code would do, and :class:`~repro.hardware.cost.CostModel` prices those
records on a :class:`~repro.hardware.device.DeviceProfile`.
"""

from repro.hardware.branch import TwoBitPredictor, mispredict_fraction, simulate_mispredict_fraction
from repro.hardware.cache import expected_random_latency, hit_probability
from repro.hardware.cachesim import CacheHierarchySimulator, SetAssociativeCache
from repro.hardware.cost import CostModel, CostReport
from repro.hardware.device import (
    CPU_1T,
    CPU_MT,
    GPU,
    CacheLevel,
    DeviceProfile,
    available_devices,
    get_device,
    register_device,
)
from repro.hardware.trace import KernelTrace, Trace, TraceEvent, TraceRecorder

__all__ = [
    "TwoBitPredictor",
    "mispredict_fraction",
    "simulate_mispredict_fraction",
    "expected_random_latency",
    "hit_probability",
    "CacheHierarchySimulator",
    "SetAssociativeCache",
    "CostModel",
    "CostReport",
    "CPU_1T",
    "CPU_MT",
    "GPU",
    "CacheLevel",
    "DeviceProfile",
    "available_devices",
    "get_device",
    "register_device",
    "KernelTrace",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
]
