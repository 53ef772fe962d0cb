"""The compiling backend (the paper's OpenCL compiler, section 3.1).

Compiles Voodoo programs into fragments with declaratively controlled
parallelism: control-vector metadata → extent/intent kernels, seams,
virtual scatters (:mod:`repro.compiler.fragments`).  Every run executes
on the node runner (:mod:`repro.compiler.runner` over
:mod:`repro.compiler.rt_fast`, whose values are one ``{keypath: column}``
mapping of the column kinds in :mod:`repro.compiler.columns` — dense,
compact (empty-slot suppression), symbolic, storage-backed, deferred,
taken);
a traced run also shows each node's values to the pricing pass
(:mod:`repro.compiler.pricing`), which emits the operation trace
:mod:`repro.hardware` prices for the plan's device and strategies.
"""

from repro.compiler.compiled import CompiledProgram, compile_program
from repro.compiler.fragments import FULL, Fragment, FragmentPlan
from repro.compiler.metadata import MetadataPass
from repro.compiler.opencl_emit import emit_opencl
from repro.compiler.optimizer import cse, optimize
from repro.compiler.options import CompilerOptions, ExecutionOptions
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
    "FusedRuntime",
    "FusedVal",
]
