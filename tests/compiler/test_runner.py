"""One untraced executor, three ways to reach it, one answer.

``CompiledProgram.run(collect_trace=False)`` (the whole-program entry of
:mod:`repro.compiler.runner`) and ``ParallelInterpreter`` at a grain that
forces at least three chunks (the chunk entry, the merges and the SEQ
zone) must return exactly what the reference ``Interpreter`` returns —
values, dtypes and ε masks — on every TPC-H program and on 200 generated
ones, with the NumPy kernels and with the native ones.
"""

import numpy as np
import pytest

from repro.compiler import compile_program
from repro.interpreter import Interpreter
from repro.parallel import ParallelInterpreter
from repro.relational import EngineConfig, VoodooEngine
from repro.testing.qgen import generate_case
from repro.tpch import QUERIES, build, generate

KERNELS = pytest.mark.parametrize("native", (False, True), ids=("numpy", "native"))


def assert_bit_identical(expected: dict, got: dict, context) -> None:
    assert expected.keys() == got.keys(), context
    for name, want in expected.items():
        have = got[name]
        assert len(want) == len(have), (*context, name)
        assert set(want.paths) == set(have.paths), (*context, name)
        for path in want.paths:
            where = (*context, name, str(path))
            assert want.attr(path).dtype == have.attr(path).dtype, where
            present = want.present(path)
            assert np.array_equal(present, have.present(path)), (*where, "masks")
            # ε slots hold whatever the kernel left there (a fold's fill value)
            a, b = want.attr(path)[present], have.attr(path)[present]
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), (*where, "values")


def check_all_paths(program, vectors, native: bool, context) -> int:
    """Interpreter vs whole-program runner vs chunked runner; returns the
    number of chunks the parallel run was cut into (0: it ran whole)."""
    expected = Interpreter(vectors).run(program)
    compiled = compile_program(program, EngineConfig(native=native).resolved().options)
    assert compiled.native is native
    whole, trace = compiled.run(vectors, collect_trace=False)
    assert len(trace) == 0
    assert_bit_identical(expected, whole, (*context, "whole"))
    # the planner drives on the longest loaded vector: quarter *that*
    extent = max(len(vectors[node.name]) for node in program.loads())
    with ParallelInterpreter(
        vectors, workers=2, grain=max(1, extent // 4), native=native
    ) as runner:
        chunked = runner.run(compiled.program)
        plan = runner.last_plan
    assert_bit_identical(expected, chunked, (*context, "chunked"))
    return len(plan.chunks) if plan.parallel else 0


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.005, seed=7)


@KERNELS
@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_programs(tpch_store, number, native):
    query = build(tpch_store, number)  # may register LIKE membership vectors
    with VoodooEngine(tpch_store) as engine:
        program = engine.translate(query)
        chunks = check_all_paths(program, engine.vectors(), native, (f"Q{number}",))
    assert chunks >= 3, f"Q{number} ran in {chunks} chunks: the chunk entry went untested"


@KERNELS
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the data holds NaN and ±Inf
def test_generated_programs(native):
    chunked = 0
    for index in range(200):
        case = generate_case(13, index)
        with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
            program = engine.translate(case.query)
            chunks = check_all_paths(program, engine.vectors(), native, (13, index))
        chunked += chunks >= 3
    # the generator's stores are small and some plans do not split at
    # all; most must, or this test says nothing about the chunk entry
    assert chunked >= 100, f"only {chunked}/200 generated programs ran in >= 3 chunks"
