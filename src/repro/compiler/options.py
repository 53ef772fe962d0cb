"""Compiler options: the tuning flags of the physical optimizer.

These correspond to the optimization flags described in the paper's
section 4 ("the physical optimizer has a number of optimization flags
that enable hardware-specific optimizations") and are the knobs the
tunability experiments (section 5.3) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CompilationError

SELECTION_STRATEGIES = ("branching", "branch-free")


@dataclass(frozen=True)
class CompilerOptions:
    """Hardware-specific code generation choices.

    One field *executes*: ``native`` selects the runner's float sum.
    ``fuse`` and ``virtual_scatter`` *shape the plan*
    (:mod:`repro.compiler.fragments`): what the pricing pass charges and
    where a traced run lands scatters.  ``device``, ``selection`` and
    ``slot_suppression`` only *price*.  An untraced run reads none of
    these five — it keeps fold-only scatters virtual — and every run,
    traced or not, executes the same operators.

    Attributes
    ----------
    device:
        Target device profile name (``cpu-1t``, ``cpu-mt``, ``gpu``).
    selection:
        The FoldSelect the simulated device runs: ``branching``
        (if-statements, costs mispredictions) or ``branch-free`` (cursor
        arithmetic / predication [Ross 28], costs extra writes).
    virtual_scatter:
        Plan fold-only scatters virtual until materialization (section
        3.1.3): priced, and run by a traced run, that way.
    slot_suppression:
        The simulator's *price* for empty-slot suppression (3.1.2): with
        it a materialization is charged ``nbytes × present fraction``
        instead of ``nbytes``.  It selects no code: the node runner
        always suppresses — ε-padded values are stored compact
        (:class:`repro.compiler.rt_fast.Compact`) whatever this field
        says.
    fuse:
        Inline operators between pipeline breakers into one fragment; off
        = one simulated kernel per operator (Ocelot-style), for
        ablations — such a plan keeps no scatter virtual, and a traced
        run lands them accordingly.
    native:
        Execute untraced runs — sequential and partition-parallel alike —
        with the native CPU tier's kernel (:mod:`repro.native`): per-run
        float sums in C, compiled with the system compiler through an
        on-disk ``.so`` cache and called over the raw column buffers;
        every other operator runs as it does without it.  Bit-identical
        to the NumPy kernel; degrades to it when the machine has no
        compiler.
    """

    device: str = "cpu-mt"
    selection: str = "branching"
    virtual_scatter: bool = True
    slot_suppression: bool = True
    fuse: bool = True
    native: bool = False

    def __post_init__(self) -> None:
        if self.selection not in SELECTION_STRATEGIES:
            raise CompilationError(
                f"selection must be one of {SELECTION_STRATEGIES}, got {self.selection!r}"
            )

    def with_(self, **changes) -> "CompilerOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ExecutionOptions:
    """Runtime (not code-generation) choices: how many cores to use.

    ``workers`` is the multicore knob of the paper's tuning claim.  For the
    compiled/simulated path it overrides the device profile's hardware
    thread count, so trace events are priced with per-core compute spread
    over exactly *workers* lanes (``examples/simd_vs_multicore.py`` sweeps it);
    for untraced runs it is the
    :class:`~repro.parallel.ParallelInterpreter` pool width, delivering
    real wall-clock parallelism.

    A parallel run cuts one chunk per worker; it goes to the pool only
    at or above :data:`repro.parallel.planner.POOL_CROSSOVER`, and
    otherwise the program runs whole.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise CompilationError(f"workers must be >= 1, got {self.workers}")

    def with_(self, **changes) -> "ExecutionOptions":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
