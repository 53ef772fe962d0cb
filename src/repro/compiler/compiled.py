"""The compiled-program object and the top-level compile entry point.

    compiled = compile_program(program, options=CompilerOptions(device="gpu"))
    outputs, trace = compiled.run(storage)
    report = compiled.price(trace)          # simulated seconds on the device
    print(compiled.source)                  # pseudo-OpenCL rendering (lazy)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from repro.compiler.fragments import FragmentPlan
from repro.compiler.metadata import MetadataPass
from repro.compiler.opencl_emit import emit_opencl
from repro.compiler.options import CompilerOptions, ExecutionOptions
from repro.compiler.pricing import Pricer
from repro.compiler.runner import ProgramRunner, planned_nodes, run_program
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.hardware.cost import CostModel, CostReport
from repro.hardware.device import DeviceProfile, get_device
from repro.hardware.trace import Trace


def optimize(program: Program) -> Program:
    """*program* itself: there is no program-level pass to run.

    Every program the product compiles comes from a
    :class:`~repro.core.builder.Builder`, whose interner hash-conses each
    node when it is made (common-subexpression elimination by
    construction), so nothing is left to merge.  Kept, like
    ``compile_program``'s ``run_optimizer``, for callers that time an
    optimize stage of their own."""
    return program


@dataclass
class CompiledProgram:
    """An executable compilation artifact: the program, its
    control-vector metadata and the device it is priced on.

    An untraced run reads the program and the options alone.  The
    fragment plan (:attr:`plan`) is built from the compile's own
    metadata pass the first time a traced run, :meth:`kernel_count`,
    :attr:`source` or a caller reads it.
    """

    program: Program
    options: CompilerOptions
    metadata: MetadataPass
    device: DeviceProfile
    #: no run executes generated source (repro.compiler.runner); last
    #: reader: perfbench/replay.py, which falls back to ``source``
    fused_source = None

    @cached_property
    def plan(self) -> FragmentPlan:
        """Fragment assignment (extent/intent), built on first read."""
        return FragmentPlan(self.program, self.options, self.metadata)

    @cached_property
    def source(self) -> str:
        """The fragments as pseudo-OpenCL kernels — the one rendering of
        the plan, for inspection only.  Emitted on first access: an engine
        never pays for text it does not show."""
        return emit_opencl(self.plan)

    @property
    def native(self) -> bool:
        """Untraced executions run on the native C tier (:mod:`repro.native`)."""
        return self.options.native

    def kernel_count(self) -> int:
        return self.plan.kernel_count()

    def run(
        self,
        storage: Mapping[str, StructuredVector],
        collect_trace: bool = True,
        scale: float = 1.0,
        execution: ExecutionOptions | None = None,
    ) -> tuple[dict[str, StructuredVector], Trace]:
        """Execute over *storage*; returns (named outputs, operation trace).

        ``scale`` > 1 makes the recorded trace model a dataset that many
        times larger than the arrays actually executed (volumes and
        parallel extents scale; sequential fragments do not) — how the
        microbenchmarks reach the paper's one-billion-row sizes.
        ``execution`` carries the multicore knob: the pricer charges
        per-core footprints for ``execution.workers`` cores.

        Either way the program runs on the node runner
        (:mod:`repro.compiler.runner`); a traced run shows each node's
        values to a :class:`~repro.compiler.pricing.Pricer` on the way.
        With ``collect_trace=False`` there is nothing to simulate: the
        same outputs, an empty trace and no accounting, and fold-only
        scatters stay virtual whatever the plan prices.
        """
        if not collect_trace:
            outputs = run_program(self.program, storage, native=self.native)
            return outputs, Trace()
        # scatters stay virtual where the plan keeps them virtual (an
        # operator-at-a-time plan keeps none), so their facts are observed
        runner = ProgramRunner(
            self.program, storage, virtual_scatter=bool(self.plan.virtual_scatters)
        )
        pricer = Pricer(self.plan, self.device, scale,
                        execution.workers if execution else None)
        return runner.capture(pricer.run(runner)), pricer.trace

    def price(self, trace: Trace, execution: ExecutionOptions | None = None) -> CostReport:
        """Simulated cost of a recorded trace on this program's device.

        With ``execution``, the device is re-profiled to ``workers``
        hardware threads, so the same trace prices out the multicore
        scaling curve (compute and branch resolution spread over the
        cores; the shared memory bus does not speed up).
        """
        device = self.device
        if execution is not None:
            device = replace(device, threads=execution.workers)
        return CostModel(device).price(trace)

    def simulate(
        self,
        storage: Mapping[str, StructuredVector],
        scale: float = 1.0,
        execution: ExecutionOptions | None = None,
    ) -> tuple[dict[str, StructuredVector], CostReport]:
        """Run and price in one call (what the benchmarks use)."""
        outputs, trace = self.run(storage, scale=scale, execution=execution)
        return outputs, self.price(trace, execution=execution)


def compile_program(
    program: Program,
    options: CompilerOptions | None = None,
    run_optimizer: bool = True,
) -> CompiledProgram:
    """Compile a Voodoo program for a device (the OpenCL-backend analogue).

    Pipeline: control-vector metadata inference → planned nodes.  The
    program arrives hash-consed from its Builder, so ``run_optimizer`` is
    accepted and changes nothing (see :func:`optimize`).  Nothing is
    generated: every run dispatches the program node by node.  Fragment
    assignment (extent/intent, :attr:`CompiledProgram.plan`) happens on
    first read — an untraced run never reads it — and so does the
    pseudo-OpenCL rendering (:attr:`CompiledProgram.source`).
    """
    options = options or CompilerOptions()
    metadata = MetadataPass(program)
    # what a run reads off the program is built while the metadata pass
    # is at hand, so the first run does not repeat it: its constants and
    # control-vector metadata (that run adds the structural routes, which
    # depend on the storage schema)
    planned_nodes(program, metadata)
    return CompiledProgram(
        program=program,
        options=options,
        metadata=metadata,
        device=get_device(options.device),
    )
