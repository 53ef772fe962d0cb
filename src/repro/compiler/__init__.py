"""The compiling backend (the paper's OpenCL compiler, section 3.1).

Compiles Voodoo programs into fused kernels with declaratively controlled
parallelism: control-vector metadata → extent/intent fragments → generated
kernel source, with virtual scatters and empty-slot suppression.  Executed
kernels emit operation traces priced by :mod:`repro.hardware`; untraced
runs execute on the node runner (:mod:`repro.compiler.runner`).
"""

from repro.compiler.compiled import CompiledProgram, compile_program
from repro.compiler.fragments import FULL, Fragment, FragmentPlan
from repro.compiler.metadata import MetadataPass
from repro.compiler.opencl_emit import emit_opencl
from repro.compiler.optimizer import cse, optimize
from repro.compiler.options import CompilerOptions, ExecutionOptions
from repro.compiler.rt import Runtime, RtVal
from repro.compiler.rt_fast import FusedRuntime, FusedVal

__all__ = [
    "CompiledProgram",
    "compile_program",
    "FULL",
    "Fragment",
    "FragmentPlan",
    "MetadataPass",
    "emit_opencl",
    "cse",
    "optimize",
    "CompilerOptions",
    "ExecutionOptions",
    "Runtime",
    "RtVal",
    "FusedRuntime",
    "FusedVal",
]
