"""The compiled-program object and the top-level compile entry point.

    compiled = compile_program(program, options=CompilerOptions(device="gpu"))
    outputs, trace = compiled.run(storage)
    report = compiled.price(trace)          # simulated seconds on the device
    print(compiled.source)                  # generated Python kernel code (lazy)
    print(compiled.opencl)                  # pseudo-OpenCL rendering
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping

from repro.compiler.codegen import compile_source, generate_source
from repro.compiler.fragments import FragmentPlan
from repro.compiler.metadata import MetadataPass
from repro.compiler.opencl_emit import emit_opencl
from repro.compiler.optimizer import optimize
from repro.compiler.options import CompilerOptions, ExecutionOptions
from repro.compiler.rt import Runtime
from repro.compiler.runner import run_program
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.hardware.cost import CostModel, CostReport
from repro.hardware.device import DeviceProfile, get_device
from repro.hardware.trace import Trace, TraceRecorder


@dataclass
class CompiledProgram:
    """An executable compilation artifact."""

    program: Program
    options: CompilerOptions
    plan: FragmentPlan
    device: DeviceProfile
    #: untraced runs have no generated source (repro.compiler.runner);
    #: last reader: perfbench/replay.py, which falls back to ``source``
    fused_source = None

    @cached_property
    def source(self) -> str:
        """Kernel source of the traced (simulated) runtime.  Generated on
        first access: an engine serving untraced runs never pays for
        code it does not run."""
        return generate_source(self.plan)

    @cached_property
    def entry(self) -> Callable:
        """Entry point of the traced runtime (``compile()`` of
        :attr:`source`, on the first traced run)."""
        return compile_source(self.source)

    @property
    def native(self) -> bool:
        """Untraced executions run on the native C tier (:mod:`repro.native`)."""
        return self.options.native

    @property
    def opencl(self) -> str:
        """Pseudo-OpenCL rendering of the fragments (lazy)."""
        return emit_opencl(self.plan)

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
        ``execution`` carries the multicore knob: the runtime charges
        per-core footprints for ``execution.workers`` cores.

        With ``collect_trace=False`` there is nothing to simulate, so
        the program runs on the node runner (:mod:`repro.compiler.runner`)
        — bit-identical outputs, an empty trace, and no accounting
        overhead.  ``options.fuse`` shapes the simulated kernels only.
        """
        if not collect_trace:
            outputs = run_program(
                self.program, storage, native=self.native,
                virtual_scatter=self.options.virtual_scatter,
            )
            return outputs, Trace()
        recorder = TraceRecorder()
        runtime = Runtime(
            storage=storage,
            device=self.device,
            recorder=recorder,
            selection=self.options.selection,
            slot_suppression=self.options.slot_suppression,
            virtual_scatter=self.options.virtual_scatter,
            scale=scale,
            workers=execution.workers if execution else None,
        )
        outputs = self.entry(runtime)
        return dict(outputs), recorder.trace

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

    Pipeline: optimizer (CSE) → control-vector metadata inference →
    fragment assignment (extent/intent).  Kernel source generation and
    ``compile()`` wait for the first traced run
    (:attr:`CompiledProgram.source`); untraced runs need neither.
    """
    if run_optimizer:
        program = optimize(program)
    options = options or CompilerOptions()
    metadata = MetadataPass(program)
    plan = FragmentPlan(program, options, metadata)
    compiled = CompiledProgram(
        program=program,
        options=options,
        plan=plan,
        device=get_device(options.device),
    )
    if compiled.native:
        # plan the chain index now, while the metadata pass is at hand,
        # so the first run does not repeat it
        from repro.native.runner import chain_index
        chain_index(program, metadata)
    return compiled
