"""Reproduction of Voodoo — a vector algebra for portable database
performance on modern hardware (Pirk et al., VLDB 2016).

Top-level convenience re-exports; see README.md for the architecture,
the execution backends and the simulated cost model.
"""

from repro.compiler import CompiledProgram, CompilerOptions, compile_program
from repro.core import Builder, Keypath, Program, Schema, StructuredVector, kp
from repro.hardware import CostModel, available_devices, get_device
from repro.interpreter import Interpreter
from repro.relational import EngineConfig, Param, PreparedQuery, Query, VoodooEngine, parse_sql
from repro.storage import ColumnStore, Table

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram", "CompilerOptions", "compile_program",
    "Builder", "Keypath", "Program", "Schema", "StructuredVector", "kp",
    "CostModel", "available_devices", "get_device",
    "Interpreter", "Query", "VoodooEngine", "parse_sql",
    "EngineConfig", "Param", "PreparedQuery",
    "ColumnStore", "Table", "__version__",
]
