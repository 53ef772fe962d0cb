"""Voodoo core: data model, algebra, program representation.

Public surface:

* :class:`~repro.core.keypath.Keypath` / :func:`~repro.core.keypath.kp`
* :class:`~repro.core.schema.Schema`
* :class:`~repro.core.vector.StructuredVector`
* :class:`~repro.core.controlvector.RunInfo`
* operator nodes in :mod:`repro.core.ops`
* :class:`~repro.core.program.Program`
* :class:`~repro.core.builder.Builder`
* printers in :mod:`repro.core.printer`
"""

from repro.core.builder import Builder, V
from repro.core.controlvector import IDENTITY, RunInfo, constant_run
from repro.core.keypath import Keypath, kp
from repro.core.program import Interner, Program, topological_order
from repro.core.schema import Schema
from repro.core.typecheck import TypeChecker
from repro.core.vector import StructuredVector

__all__ = [
    "Builder",
    "V",
    "IDENTITY",
    "RunInfo",
    "constant_run",
    "Keypath",
    "kp",
    "Interner",
    "Program",
    "topological_order",
    "Schema",
    "TypeChecker",
    "StructuredVector",
]
