"""TPC-H through the partition-parallel backend: bit-identical, end to end.

The acceptance bar for the multicore backend: four workers produce
exactly the vectors the sequential interpreter produces on every
evaluated TPC-H query, and a ``workers=4`` relational engine
returns the same result tables.  The pool crossover is 0 throughout, and
every backend has a core per worker: each plan that splits is chunked on
the pool, on any host.
"""

import numpy as np
import pytest

from repro.interpreter import Interpreter
from repro.parallel import ParallelInterpreter
from repro.compiler import ExecutionOptions
from repro.relational import EngineConfig, VoodooEngine
from repro.relational.translate import Translator
from repro.testing import crossover
from repro.tpch import QUERIES, build, generate


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


@pytest.fixture(scope="module")
def store():
    return generate(0.005, seed=7)


@pytest.fixture(scope="module")
def engine(store):
    return VoodooEngine(store)


@pytest.fixture(scope="module")
def parallel_engine(store):
    engine = VoodooEngine(store, config=EngineConfig(execution=ExecutionOptions(workers=4)))
    engine._parallel_backend._effective = 4
    yield engine
    engine.close()


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_bit_identical(store, number):
    query = build(store, number)  # may register LIKE membership aux vectors
    program = Translator(store).translate_query(query)
    seq = Interpreter(store.vectors()).run(program)
    with ParallelInterpreter(store.vectors(), workers=4) as runner:
        runner._effective = 4
        par = runner.run(program)
    assert runner.last_plan is not None and runner.last_plan.parallel, (
        f"Q{number} did not parallelize: {runner.last_plan.reason}"
    )
    assert seq.keys() == par.keys()
    for name in seq:
        a, b = seq[name], par[name]
        assert len(a) == len(b)
        for p in a.paths:
            assert a.attr(p).dtype == b.attr(p).dtype, (number, name, p)
            assert np.array_equal(a.attr(p), b.attr(p)), (number, name, p, "values")
            assert np.array_equal(a.present(p), b.present(p)), (number, name, p, "masks")


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_engine_parallelism_flag(engine, parallel_engine, store, number):
    query = build(store, number)
    sequential = engine.query(query)
    parallel = parallel_engine.query(query)
    assert sequential.columns == parallel.columns
    assert sequential.to_dicts() == parallel.to_dicts()


def test_parallel_result_carries_its_plan_and_no_simulated_cost(parallel_engine, store):
    query = build(store, 6)
    result = parallel_engine.execute(query)
    assert result.compiled is parallel_engine.compile(query)
    assert result.milliseconds == 0.0


def test_engine_execution_options_pricing(store):
    """The workers knob reprices the same trace onto more cores."""
    from repro.compiler import ExecutionOptions

    engine = VoodooEngine(store)
    compiled = engine.compile(build(store, 6))
    _, trace = compiled.run(engine.vectors())
    one = compiled.price(trace, execution=ExecutionOptions(workers=1)).seconds
    four = compiled.price(trace, execution=ExecutionOptions(workers=4)).seconds
    assert four < one
