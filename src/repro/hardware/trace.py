"""Operation traces emitted by executing kernels.

The compiling backend's kernels record, per fragment, *what the generated
machine code would have done*: elements processed, arithmetic operations by
class, sequential and random memory traffic (with the footprint random
accesses land in), and data-dependent branches with their taken fraction.
The :mod:`repro.hardware.cost` model converts a trace into seconds for a
given :class:`~repro.hardware.device.DeviceProfile`.

This is the reproduction's substitute for running on real silicon: costs
are derived from actual data-dependent statistics measured during
execution, not from hard-coded curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator


@dataclass
class TraceEvent:
    """One accounted step of a kernel (usually one operator's work)."""

    label: str = ""
    fragment: int = 0
    #: number of data elements this step processed
    elements: int = 0
    #: arithmetic operations per class, totals (not per element)
    int_ops: int = 0
    float_ops: int = 0
    #: sequential (streaming) memory traffic in bytes
    bytes_read_seq: int = 0
    bytes_written_seq: int = 0
    #: random accesses: count and the byte footprint they spread over
    random_reads: int = 0
    random_read_footprint: int = 0
    random_writes: int = 0
    random_write_footprint: int = 0
    #: data-dependent branches and the fraction taken (for mispredict cost)
    branches: int = 0
    taken_fraction: float = 0.0
    #: parallelism available to this step
    extent: int = 1
    intent: int = 1
    #: True if this step runs once per kernel, not per element (barriers)
    barrier: bool = False
    #: False for scalar control-flow-heavy loops SIMD cannot vectorize
    simd: bool = True
    #: True for order-preserving cursor loops that serialize a GPU warp
    #: (the paper's "filled sequentially" position buffers, Figure 15c)
    warp_serial: bool = False
    #: footprint the sequential traffic cycles within; 0 = streams to DRAM.
    #: Chunked (X100-style) intermediates set this to the chunk size so the
    #: seam traffic is priced at cache, not DRAM, bandwidth.
    stream_footprint: int = 0

    def scaled(self, factor: float) -> "TraceEvent":
        """A copy with all volume counters scaled (for chunked execution)."""
        return replace(
            self,
            elements=int(self.elements * factor),
            int_ops=int(self.int_ops * factor),
            float_ops=int(self.float_ops * factor),
            bytes_read_seq=int(self.bytes_read_seq * factor),
            bytes_written_seq=int(self.bytes_written_seq * factor),
            random_reads=int(self.random_reads * factor),
            random_writes=int(self.random_writes * factor),
            branches=int(self.branches * factor),
        )


@dataclass
class KernelTrace:
    """All events of one launched kernel (one fragment execution)."""

    fragment: int
    extent: int
    intent: int
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> None:
        event.fragment = self.fragment
        self.events.append(event)


class Trace:
    """The full execution record of a compiled program run."""

    def __init__(self) -> None:
        self.kernels: list[KernelTrace] = []

    def kernel(self, fragment: int, extent: int, intent: int) -> KernelTrace:
        kt = KernelTrace(fragment=fragment, extent=extent, intent=intent)
        self.kernels.append(kt)
        return kt

    def __iter__(self) -> Iterator[KernelTrace]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    def events(self) -> Iterable[TraceEvent]:
        for kernel in self.kernels:
            yield from kernel.events

    # -- aggregate views (used by reports and tests) -------------------------

    def total_bytes(self) -> int:
        return sum(
            e.bytes_read_seq + e.bytes_written_seq + e.random_reads * 8 + e.random_writes * 8
            for e in self.events()
        )

    def total_branches(self) -> int:
        return sum(e.branches for e in self.events())

    def summary(self) -> dict[str, float]:
        events = list(self.events())
        return {
            "kernels": len(self.kernels),
            "events": len(events),
            "elements": sum(e.elements for e in events),
            "int_ops": sum(e.int_ops for e in events),
            "float_ops": sum(e.float_ops for e in events),
            "bytes_seq": sum(e.bytes_read_seq + e.bytes_written_seq for e in events),
            "random_accesses": sum(e.random_reads + e.random_writes for e in events),
            "branches": sum(e.branches for e in events),
        }


class TraceRecorder:
    """The trace under construction: the pricing pass
    (:class:`repro.compiler.pricing.Pricer`) opens a kernel per fragment
    and emits the events it prices into it.  Nothing that executes sees
    it — an untraced run never builds one."""

    def __init__(self) -> None:
        self.trace = Trace()
        self._current: KernelTrace | None = None

    def begin_kernel(self, fragment: int, extent: int, intent: int) -> None:
        self._current = self.trace.kernel(fragment, extent, intent)

    def emit(self, event: TraceEvent) -> None:
        if self._current is None:
            self._current = self.trace.kernel(0, event.extent, event.intent)
        self._current.add(event)
