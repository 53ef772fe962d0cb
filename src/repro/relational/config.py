"""Engine configuration: every :class:`VoodooEngine` knob in one object.

:class:`EngineConfig` is the one validated description every subsystem
that builds engines — the serving catalog, the tuner's searches, the
conformance grid — constructs them from:

    engine = VoodooEngine(store, config=EngineConfig(tracing=False))
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compiler.options import CompilerOptions, ExecutionOptions
from repro.errors import ExecutionError

TUNING_MODES = ("off", "auto")


@dataclass(frozen=True)
class EngineConfig:
    """A frozen, validated description of one engine configuration.

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
        historical default: on for sequential untuned engines, off for
        parallel or auto-tuned ones.
    plan_cache:
        Memoize compiled plans per query structure.
    native:
        Shorthand for ``options.native``, the native C execution tier
        (untraced sequential runs and parallel chunk workers alike
        sum floats with the compiled kernel).  ``None`` (default) leaves
        whatever ``options`` says.  Incompatible with
        ``tuning="auto"`` — the tuner explores the native axis itself.
    tuning:
        ``"off"`` (static knobs) or ``"auto"`` (the adaptive tuner picks
        per query; ``execution`` must then be left unset).
    tuner:
        Optional pre-built :class:`~repro.tuner.AutoTuner` (shared across
        engines for a shared decision cache).  Excluded from equality.
    tuning_cache:
        :class:`~repro.tuner.TuningCache` or path for a persistent one,
        handed to a lazily built tuner.  Excluded from equality.
    """

    options: CompilerOptions = field(default_factory=CompilerOptions)
    grain: int | None = None
    execution: ExecutionOptions | None = None
    native: bool | None = None
    tracing: bool | None = None
    plan_cache: bool = True
    tuning: str = "off"
    tuner: object | None = field(default=None, compare=False)
    tuning_cache: object | None = field(default=None, compare=False)

    @property
    def parallel(self) -> bool:
        return self.execution is not None and self.execution.workers > 1

    def validate(self) -> "EngineConfig":
        """Raise :class:`ExecutionError` on any conflicting knob pair."""
        if self.tuning not in TUNING_MODES:
            raise ExecutionError(
                f'tuning must be "off" or "auto", got {self.tuning!r}'
            )
        if self.grain is not None and self.grain < 1:
            raise ExecutionError(f"grain must be >= 1 or None, got {self.grain}")
        if self.tracing and self.parallel:
            raise ExecutionError(
                "tracing=True is incompatible with workers > 1: the "
                "partition-parallel backend executes real kernels and has "
                "no priced trace to collect.  Use a sequential engine for "
                "simulation, or tracing=False (the parallel default)."
            )
        if self.tuning == "auto" and self.tracing:
            raise ExecutionError(
                "tuning=\"auto\" picks untraced serving configurations; "
                "use a tuning=\"off\" engine for simulation/tracing."
            )
        if self.tuning == "auto" and self.execution is not None:
            raise ExecutionError(
                "tuning=\"auto\" chooses ExecutionOptions itself; drop the "
                "execution=/parallelism= argument (or pin the knobs with "
                "tuning=\"off\")."
            )
        if self.tuning == "auto" and self.native is not None:
            raise ExecutionError(
                "tuning=\"auto\" explores the native tier itself; drop "
                "native= (or pin the knobs with tuning=\"off\")."
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
            tracing = not self.parallel and self.tuning == "off"
        options = self.options
        if self.native is not None:
            options = options.with_(native=self.native)
        return replace(
            self, grain=grain, tracing=tracing, options=options,
        ).validate()

    def with_(self, **changes) -> "EngineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
