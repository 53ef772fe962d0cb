"""The knob space: every configuration the auto-tuner may choose.

The paper's section 5.3 sweeps these by hand; this module enumerates
them.  A :class:`TunedConfig` bundles the code-generation knobs
(:class:`~repro.compiler.options.CompilerOptions`) with the runtime
knobs (:class:`~repro.compiler.options.ExecutionOptions`); by design
every config in the space is *bit-identical* to the reference backend —
tuning changes wall-clock, never results (the conformance grid's
``tuned`` entry fuzzes exactly this).

The tuner picks *untraced* configurations, so the space is defined over
what the untraced executor reads — the four fields that reach the node
runner — not over what the option classes declare.  ``selection``,
``slot_suppression`` and ``fuse`` shape the simulator only: a candidate
that differs from the default in nothing else executes the default's
code, and a wall-clock race between the two measures noise.

===================  ===============  ==================================
knob                 paper section    search range
===================  ===============  ==================================
``virtual_scatter``  3.1.3            on | off
``workers``          2.2 / 5.3        1, 2, 4, ``cpu_count``
``native``           4 (OpenCL)       C tier on | off (× sequential/parallel)
===================  ===============  ==================================

A ``workers > 1`` candidate cuts one chunk per worker and runs them on
the pool only at or above the planner's pool crossover; below it the
program runs whole, as the default does, and the tuner neither races
nor confirms it.

Also *not* here: the translator's control-vector ``grain``.
Re-translating at a different grain changes the association order of
float partial sums — a different (equally valid) result, which would
break the tuner's bit-identity contract.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from repro.compiler.options import CompilerOptions, ExecutionOptions


@dataclass(frozen=True)
class TunedConfig:
    """One point of the knob space (hashable: usable as a cache key)."""

    options: CompilerOptions
    execution: ExecutionOptions

    @property
    def workers(self) -> int:
        return self.execution.workers

    @property
    def native(self) -> bool:
        return self.options.native

    def describe(self) -> str:
        """Compact human-readable label (for reports and bench JSON)."""
        parts = [self.options.selection]
        parts.append("fused" if self.options.fuse else "op-at-a-time")
        if self.native:
            parts.append("native")
        if not self.options.virtual_scatter:
            parts.append("no-virtual-scatter")
        if not self.options.slot_suppression:
            parts.append("no-slot-suppression")
        if self.execution.workers > 1:
            parts.append(f"w{self.execution.workers}")
        return "+".join(parts)

    def to_json(self) -> dict:
        return {"options": asdict(self.options), "execution": asdict(self.execution)}

    @classmethod
    def from_json(cls, data: dict) -> "TunedConfig":
        return cls(
            options=CompilerOptions(**data["options"]),
            execution=ExecutionOptions(**data["execution"]),
        )


def default_config(device: str = "cpu-mt") -> TunedConfig:
    """The static configuration an untuned engine runs: the baseline
    every tuning decision is raced against."""
    return TunedConfig(CompilerOptions(device=device), ExecutionOptions())


#: worker-pool widths considered besides 1 (cpu_count is added per machine)
WORKER_SWEEP = (2, 4)


def knob_space(
    device: str = "cpu-mt",
    cpu_count: int | None = None,
) -> list[TunedConfig]:
    """The full candidate list for one machine.

    Ordered so that ties in measured time resolve toward the least
    surprising configuration: the static default comes first, and the
    tuner races the candidates in this order.
    """
    cpu_count = cpu_count or os.cpu_count() or 1
    seq = ExecutionOptions()
    candidates = [default_config(device)]
    # materialization ablation (section 3.1.3)
    candidates.append(
        TunedConfig(CompilerOptions(device=device, virtual_scatter=False), seq)
    )
    # multicore: one candidate per pool width
    widths = sorted({w for w in (*WORKER_SWEEP, cpu_count) if w > 1})
    base = CompilerOptions(device=device)
    for workers in widths:
        candidates.append(TunedConfig(base, ExecutionOptions(workers=workers)))
    # the native C tier: sequential, and composed with the widest pool
    native = CompilerOptions(device=device, native=True)
    candidates.append(TunedConfig(native, seq))
    if widths:
        candidates.append(TunedConfig(native, ExecutionOptions(workers=max(widths))))
    return candidates


def compact_space(device: str = "cpu-mt") -> list[TunedConfig]:
    """A reduced space for high-volume callers (the conformance fuzzer):
    one representative per knob family."""
    seq = ExecutionOptions()
    return [
        default_config(device),
        TunedConfig(CompilerOptions(device=device, virtual_scatter=False), seq),
        TunedConfig(CompilerOptions(device=device), ExecutionOptions(workers=2)),
        TunedConfig(CompilerOptions(device=device, native=True), seq),
    ]
