"""Shared machinery for the comparison baselines.

The paper compares Voodoo against HyPeR [18] (pipelined, compiled,
CPU-targeted) and MonetDB/Ocelot [13] (operator-at-a-time bulk processing,
GPU-targeted).  This reproduction evaluates both with the NumPy reference
evaluator (:mod:`repro.testing.oracle`) over the same relational plans and
the same data, and prices them by the same cost model as the Voodoo
backend.  The engines differ in exactly the dimension the paper isolates —
the *materialization strategy* — which is the traffic each one's
``on_<operator>`` hooks charge for the counts the evaluator reports
(pipeline extent, live rows, row width).
"""

from __future__ import annotations

from repro.hardware.cost import CostModel, CostReport
from repro.hardware.device import DeviceProfile, get_device
from repro.hardware.trace import Trace, TraceEvent, TraceRecorder
from repro.relational import algebra as ra
from repro.storage import ColumnStore
from repro.testing.oracle import Oracle


class BaselineEngine:
    """Runs a query on the reference evaluator with this engine observing,
    and prices the trace its hooks recorded."""

    def __init__(self, store: ColumnStore, device: str | DeviceProfile = "cpu-mt"):
        self.store = store
        self.device = device if isinstance(device, DeviceProfile) else get_device(device)

    def execute(self, query: ra.Query) -> tuple[list[dict], Trace, CostReport]:
        self.recorder = TraceRecorder()
        self._kernels = 0
        self.recorder.begin_kernel(0, extent=0, intent=1)
        arrays = Oracle(self.store, observer=self).query(query)
        rows = [dict(zip(arrays, values)) for values in zip(*arrays.values())]
        trace = self.recorder.trace
        return rows, trace, CostModel(self.device).price(trace)

    def milliseconds(self, query: ra.Query) -> float:
        return self.execute(query)[2].milliseconds

    def new_kernel(self) -> None:
        """Start a new kernel (a launch/barrier in the cost model)."""
        self._kernels += 1
        self.recorder.begin_kernel(self._kernels, extent=0, intent=1)

    def emit(self, **kwargs) -> None:
        self.recorder.emit(TraceEvent(**kwargs))
