"""TPC-H through the fused fast path: bit-identical, end to end.

The acceptance bar for the fused backend (ISSUE 2): on every evaluated
TPC-H query the fused kernels produce exactly the vectors the
interpreter and the traced compiled backend produce — and at the engine
level, the untraced engine, the traced engine and the ``workers=N``
partition-parallel engine return the same result tables.
"""

import numpy as np
import pytest

from repro.compiler import ExecutionOptions, compile_program
from repro.interpreter import Interpreter
from repro.relational import EngineConfig, VoodooEngine
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_fused_bit_identical(store, engine, number):
    query = build(store, number)  # may register LIKE membership aux vectors
    program = engine.translate(query)
    compiled = compile_program(program, engine.options)
    expected = Interpreter(store.vectors()).run(program)
    traced, trace = compiled.run(store.vectors())
    fused, empty = compiled.run(store.vectors(), collect_trace=False)
    assert len(trace) > 0 and len(empty) == 0
    assert set(expected) == set(traced) == set(fused)
    for name, exp_vec in expected.items():
        for got in (traced[name], fused[name]):
            assert len(exp_vec) == len(got), (number, name)
            assert set(exp_vec.paths) == set(got.paths), (number, name)
            for path in exp_vec.paths:
                em, gm = exp_vec.present(path), got.present(path)
                assert (em == gm).all(), (number, name, str(path), "masks")
                ev, gv = exp_vec.attr(path)[em], got.attr(path)[em]
                assert ev.dtype == gv.dtype, (number, name, str(path))
                assert np.array_equal(ev, gv), (number, name, str(path))


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_engine_tables_agree_across_backends(store, engine, number):
    """Traced, fused-untraced and workers=2 engines: same result tables.
    The workers=2 engine cuts its chunks on the pool (crossover 0, a
    core per worker on any host) — at this size it would run whole."""
    reference = engine.execute(build(store, number)).table
    fused_engine = VoodooEngine(store, config=EngineConfig(tracing=False))
    parallel_engine = VoodooEngine(
        store, config=EngineConfig(execution=ExecutionOptions(workers=2))
    )
    backend = parallel_engine._parallel_backend
    backend._effective = 2
    with crossover(0), parallel_engine:
        for other_engine in (fused_engine, parallel_engine):
            table = other_engine.execute(build(store, number)).table
            assert table.columns == reference.columns, number
            for column in reference.columns:
                assert np.array_equal(
                    table.column(column), reference.column(column)
                ), (number, column)
        assert backend.last_plan.parallel and backend._lease is not None, number
