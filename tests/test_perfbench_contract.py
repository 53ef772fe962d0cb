"""What ``perfbench/`` calls of the engine still exists.

The benchmark harness is edited on its own schedule, so a change to the
engine must keep every name, parameter and counter key the harness reads.
These checks read ``perfbench/*.py`` (never edit or run them) and fail in
the tier-1 suite, where a deletion that breaks the benchmark shows first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.compiler import CompiledProgram, compile_program, optimize
from repro.core import Builder, Schema
from repro.relational import EngineConfig, VoodooEngine, parse_sql
from repro.storage import ColumnStore, Table

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PERFBENCH.glob("*.py"))}


def repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` of every ``from repro... import name``."""
    return [(file, node.module, alias.name)
            for file, tree in SOURCES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
            for alias in node.names]


def counter_keys(files: tuple[str, ...]) -> set[str]:
    """The keys the workloads' ``counters()`` read off a ``cache_info()``
    dict (bound to ``info`` or, per engine, ``i``)."""
    keys: set[str] = set()
    for file in files:
        for node in ast.walk(SOURCES[file]):
            if isinstance(node, ast.FunctionDef) and node.name == "counters":
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                            and sub.value.id in ("info", "i")
                            and isinstance(sub.slice, ast.Constant)
                            and isinstance(sub.slice.value, str)):
                        keys.add(sub.slice.value)
    return keys


def native_counts() -> tuple[str, ...]:
    for node in SOURCES["analytics.py"].body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_NATIVE_COUNTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/analytics.py defines no _NATIVE_COUNTS")


@pytest.fixture(scope="module")
def store():
    out = ColumnStore()
    out.add(Table.from_arrays("t", v=np.arange(16, dtype=np.int64)))
    return out


def test_the_harness_imports_something_of_ours():
    assert len(repro_imports()) >= 10


@pytest.mark.parametrize("file, module, name", repro_imports(),
                         ids=lambda value: str(value))
def test_every_imported_name_resolves(file, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")  # a submodule


def test_compile_program_takes_run_optimizer(store):
    b = Builder(store.schemas())
    program = b.build(out=b.load("t"))
    inspect.signature(compile_program).bind(program, None, run_optimizer=False)
    assert optimize(program) is program
    assert compile_program(program, None, run_optimizer=False).program is program


@pytest.mark.parametrize("name", ("fused_source", "native", "kernel_count"))
def test_compiled_program_answers_what_the_replay_reads(name):
    assert hasattr(CompiledProgram, name)


def test_a_compiled_program_answers_the_replay():
    b = Builder({"t": Schema({".v": "int64"})})
    compiled = compile_program(b.build(total=b.fold_sum(b.load("t"))))
    assert compiled.kernel_count() >= 1
    assert len(compiled.fused_source or compiled.source) > 0
    assert compiled.native is False


def test_parse_sql_takes_text_and_store(store):
    text = "SELECT sum(v) AS s FROM t"
    inspect.signature(parse_sql).bind(text, store)
    assert parse_sql(text, store) is not None


def test_cache_info_has_every_key_the_workloads_read(store):
    wanted = counter_keys(("adhoc.py", "analytics.py", "storage.py", "serving.py"))
    assert {"plan_hits", "plan_misses", "size"} <= wanted
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        assert wanted <= set(engine.cache_info())


@pytest.mark.parametrize("name", ("translate", "cache_key", "vectors", "options"))
def test_the_engine_answers_the_replay_stages(store, name):
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        assert hasattr(engine, name)


def test_native_snapshot_has_the_analytics_counts():
    assert set(native_counts()) <= set(native.snapshot())
