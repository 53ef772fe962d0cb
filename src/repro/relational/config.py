"""Engine configuration: every :class:`VoodooEngine` knob in one object.

:class:`EngineConfig` is the one validated description every subsystem
that builds engines — the serving catalog, the conformance grid —
constructs them from:

    engine = VoodooEngine(store, config=EngineConfig(tracing=False))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compiler.options import CompilerOptions, ExecutionOptions
from repro.errors import ExecutionError
from repro.hardware.device import available_devices


@dataclass(frozen=True)
class EngineConfig:
    """A frozen, validated description of one engine configuration.

    An engine reads it once, when built; nothing per query overrides it.

    Attributes
    ----------
    options:
        Code-generation knobs (:class:`CompilerOptions`).
    grain:
        Control-vector grain intent; ``None`` picks the device default
        (GPUs want many more partitions in flight than CPUs).
    execution:
        Runtime knobs (:class:`ExecutionOptions`); ``workers > 1``
        selects the partition-parallel backend.
    tracing:
        Collect the priced operation trace.  ``None`` resolves to the
        historical default: on for sequential engines, off for parallel
        ones.
    native:
        Shorthand for ``options.native``, the native C execution tier
        (untraced sequential runs and parallel chunk workers alike
        sum floats with the compiled kernel).  ``None`` (default) leaves
        whatever ``options`` says.
    """

    options: CompilerOptions = field(default_factory=CompilerOptions)
    grain: int | None = None
    execution: ExecutionOptions | None = None
    native: bool | None = None
    tracing: bool | None = None

    @property
    def parallel(self) -> bool:
        return self.execution is not None and self.execution.workers > 1

    def validate(self) -> "EngineConfig":
        """Raise :class:`ExecutionError` on an unknown device or any
        conflicting knob pair."""
        if self.options.device not in available_devices():
            raise ExecutionError(f"unknown device {self.options.device!r}; "
                                 f"available: {list(available_devices())}")
        if self.grain is not None and self.grain < 1:
            raise ExecutionError(f"grain must be >= 1 or None, got {self.grain}")
        if self.tracing and self.parallel:
            raise ExecutionError(
                "tracing=True is incompatible with workers > 1: the "
                "partition-parallel backend executes real kernels and has "
                "no priced trace to collect.  Use a sequential engine for "
                "simulation, or tracing=False (the parallel default)."
            )
        return self

    def resolved(self) -> "EngineConfig":
        """Validate and fill the ``None`` defaults (grain per device,
        tracing per backend) — the config an engine actually runs."""
        self.validate()
        grain = self.grain
        if grain is None:
            # device-tuned control-vector grain: GPUs want many more
            # partitions in flight than CPUs (the paper's tunability knob)
            grain = 256 if self.options.device == "gpu" else 4096
        tracing = self.tracing
        if tracing is None:
            tracing = not self.parallel
        options = self.options
        if self.native is not None:
            options = options.with_(native=self.native)
        return replace(
            self, grain=grain, tracing=tracing, options=options,
        ).validate()

    def with_(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
