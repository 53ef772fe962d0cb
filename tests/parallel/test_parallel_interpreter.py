"""ParallelInterpreter vs sequential Interpreter: bit-identical, always.

Includes the property test required by the backend's contract: on
randomized programs (element-wise chains, chunked folds, selections,
gathers, global folds), four workers produce exactly the vectors one
worker does — values *and* ε masks.  Every test runs with the pool
crossover at 0 and a core per worker, so each plan that splits is
chunked on the pool however small it is, on any host.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.selection import make_store, selection_program
from repro.core import Builder, Schema, StructuredVector
from repro.interpreter import Interpreter
from repro.parallel import ParallelInterpreter
from repro.parallel.planner import SEQ
from repro.testing import crossover


@pytest.fixture(autouse=True)
def every_plan_pooled():
    with crossover(0):
        yield


def pooled(store, workers: int = 4) -> ParallelInterpreter:
    runner = ParallelInterpreter(store, workers=workers)
    runner._effective = workers  # a real pool, also on a 1-CPU host
    return runner


def assert_bit_identical(seq: dict, par: dict) -> None:
    assert seq.keys() == par.keys()
    for name in seq:
        a, b = seq[name], par[name]
        assert len(a) == len(b), (name, len(a), len(b))
        assert set(a.paths) == set(b.paths), name
        for p in a.paths:
            got, want = b.attr(p), a.attr(p)
            assert got.dtype == want.dtype, (name, p, got.dtype, want.dtype)
            assert np.array_equal(got, want), (name, p, "values differ")
            assert np.array_equal(b.present(p), a.present(p)), (name, p, "masks differ")


def run_both(store, program, workers=4):
    seq = Interpreter(store).run(program)
    parallel = pooled(store, workers)
    par = parallel.run(program)
    return seq, par, parallel


class TestPipelines:
    def test_selection_program(self):
        store = make_store(50_000, seed=3)
        program = selection_program(50_000, 0.4, "Branching")
        seq, par, engine = run_both(store, program)
        assert engine.last_plan.parallel
        assert_bit_identical(seq, par)

    def test_vectorized_variant(self):
        store = make_store(30_000, seed=4)
        program = selection_program(30_000, 0.2, "Vectorized (BF)")
        seq, par, _ = run_both(store, program)
        assert_bit_identical(seq, par)

    def test_grouped_aggregation(self):
        rng = np.random.default_rng(5)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.integers(0, 1000, 40_000).astype(np.int64)
            )
        }
        b = Builder({"facts": Schema({".val": "int64"})})
        facts = b.load("facts")
        pids = b.divide(b.range(facts), b.constant(1024), out=".partition")
        psum = b.fold_sum(b.zip(facts, pids), agg_kp=".val",
                          fold_kp=".partition", out=".psum")
        program = b.build(total=b.fold_sum(psum, agg_kp=".psum", out=".total"))
        seq, par, engine = run_both(store, program)
        assert engine.last_plan.parallel
        assert_bit_identical(seq, par)

    def test_scatter_partition_program_falls_back_correctly(self):
        """The SIMD-lane program (Partition + Scatter) keeps those ops
        sequential but still matches bit for bit."""
        rng = np.random.default_rng(6)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.integers(0, 100, 8_192).astype(np.int64)
            )
        }
        b = Builder({"facts": Schema({".val": "int64"})})
        facts = b.load("facts")
        lanes = b.modulo(b.range(facts), b.constant(8), out=".lane")
        positions = b.partition(lanes, b.range(8, out=".pv"), out=".pos")
        scattered = b.scatter(b.zip(facts, lanes), positions, pos_kp=".pos")
        psum = b.fold_sum(scattered, agg_kp=".val", fold_kp=".lane", out=".psum")
        program = b.build(total=b.fold_sum(psum, agg_kp=".psum", out=".total"))
        seq, par, _ = run_both(store, program)
        assert_bit_identical(seq, par)

    def test_gather_crossing_chunks_falls_back(self):
        """Positions that chase rows across chunks trigger the runtime
        fallback — results still identical."""
        n = 10_000
        rng = np.random.default_rng(7)
        store = {
            "facts": StructuredVector(
                n,
                {".val": rng.integers(0, 100, n).astype(np.int64),
                 ".ptr": rng.integers(0, n, n).astype(np.int64)},
            )
        }
        b = Builder({"facts": Schema({".val": "int64", ".ptr": "int64"})})
        facts = b.load("facts")
        shuffled = b.gather(facts.project(".val"), facts, pos_kp=".ptr")
        program = b.build(out=shuffled)
        seq, par, _ = run_both(store, program)
        assert_bit_identical(seq, par)

    def test_float_sum_exactness(self):
        """Global float sums re-run sequentially: same bits, not almost."""
        rng = np.random.default_rng(8)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.random(50_001).astype(np.float32)
            )
        }
        b = Builder({"facts": Schema({".val": "float32"})})
        program = b.build(
            total=b.fold_sum(b.load("facts"), agg_kp=".val", out=".total")
        )
        seq, par, _ = run_both(store, program)
        assert_bit_identical(seq, par)

    def test_multiply_scaled_control_runs(self):
        """Control = Divide then Multiply: the scaled metadata cannot
        describe the actual runs (regression: RunInfo.multiply derived a
        wrong run length and chunk alignment split runs mid-way)."""
        store = {
            "t": StructuredVector.single(".x", np.arange(1000, dtype=np.int64))
        }
        b = Builder({"t": Schema({".x": "int64"})})
        t = b.load("t")
        scaled = b.multiply(
            b.divide(b.range(t), b.constant(6), out=".p"), b.constant(3), out=".p2"
        )
        folded = b.fold_sum(b.zip(t, scaled), agg_kp=".x", fold_kp=".p2", out=".s")
        seq, par, _ = run_both(store, b.build(out=folded))
        assert_bit_identical(seq, par)

    def test_upsert_into_scalar_target_stays_sequential(self):
        """Upsert's output length follows its *target*: a length-1 global
        target must not be chunked (regression: was classified
        PARTITIONED and concat-merged into a wrong-length vector)."""
        rng = np.random.default_rng(14)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.integers(0, 9, 64).astype(np.int64)
            )
        }
        b = Builder({"facts": Schema({".val": "int64"})})
        facts = b.load("facts")
        bumped = b.add(facts, b.constant(1), out=".val")
        out = b.upsert(b.constant(7), ".u", bumped, value_kp=".val")
        seq, par, _ = run_both(store, b.build(out=out))
        assert_bit_identical(seq, par)

    def test_persist_survives_sequential_fallback(self):
        """Fallback runs must still land Persist results in storage
        (regression: the temporary Interpreter copied the dict)."""
        store = {"facts": StructuredVector.single(".val", np.zeros(0, dtype=np.int64))}
        b = Builder({"facts": Schema({".val": "int64"})})
        doubled = b.multiply(b.load("facts"), b.constant(2), out=".val")
        runner = pooled(store)
        runner.run(b.build(out=b.persist("doubled", doubled)))
        assert not runner.last_plan.parallel  # empty table: sequential fallback
        b2 = Builder({"doubled": Schema({".val": "int64"})})
        outputs = runner.run(b2.build(out=b2.load("doubled")))
        assert len(outputs["out"]) == 0  # persisted vector visible after fallback

    def test_persist_lands_in_storage(self):
        rng = np.random.default_rng(9)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.integers(0, 9, 20_000).astype(np.int64)
            )
        }
        b = Builder({"facts": Schema({".val": "int64"})})
        doubled = b.multiply(b.load("facts"), b.constant(2), out=".val")
        program = b.build(out=b.persist("doubled", doubled))
        parallel = pooled(store)
        outputs = parallel.run(program)
        assert parallel.last_plan.parallel
        expected = store["facts"].attr(".val") * 2
        assert np.array_equal(outputs["doubled"].attr(".val"), expected)
        assert np.array_equal(parallel._storage["doubled"].attr(".val"), expected)


class TestEdges:
    def test_workers_one_is_sequential(self):
        store = make_store(1_000, seed=1)
        program = selection_program(1_000, 0.5, "Branching")
        _, par, engine = run_both(store, program, workers=1)
        assert engine.last_plan is None
        assert_bit_identical(Interpreter(store).run(program), par)

    def test_more_workers_than_rows(self):
        rng = np.random.default_rng(2)
        store = {
            "facts": StructuredVector.single(
                ".val", rng.integers(0, 9, 5).astype(np.int64)
            )
        }
        b = Builder({"facts": Schema({".val": "int64"})})
        program = b.build(
            out=b.add(b.load("facts"), b.constant(1), out=".val")
        )
        seq, par, _ = run_both(store, program, workers=16)
        assert_bit_identical(seq, par)

    def test_empty_table(self):
        store = {"facts": StructuredVector(0, {".val": np.zeros(0, dtype=np.int64)})}
        b = Builder({"facts": Schema({".val": "int64"})})
        program = b.build(
            out=b.add(b.load("facts"), b.constant(1), out=".val")
        )
        seq, par, engine = run_both(store, program)
        assert not engine.last_plan.parallel
        assert_bit_identical(seq, par)

    def test_uneven_three_workers(self):
        store = make_store(100_000, seed=11)
        program = selection_program(100_000, 0.7, "Branching")
        seq, par, _ = run_both(store, program, workers=3)
        assert_bit_identical(seq, par)

    def test_pool_and_fastpath_parameters_are_gone(self):
        """One schedule (threads), one evaluator (the node runner)."""
        with pytest.raises(TypeError):
            ParallelInterpreter({}, workers=2, pool="thread")
        with pytest.raises(TypeError):
            ParallelInterpreter({}, workers=2, fastpath=True)

    def test_zero_workers_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ParallelInterpreter({}, workers=0)

    def test_plan_summary_reports_zones(self):
        store = make_store(50_000, seed=12)
        program = selection_program(50_000, 0.4, "Branching")
        engine = pooled(store)
        engine.run(program)
        summary = engine.last_plan.summary()
        assert sum(summary.values()) == len(program)
        assert summary.get(SEQ, 0) <= 2


def random_program(seed: int):
    """A randomized partitionable-ish pipeline over random data."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30_000))
    dtype = rng.choice(["int64", "float32", "float64", "int32"])
    if np.dtype(dtype).kind == "f":
        vals = (rng.random(n) * 100).astype(dtype)
    else:
        vals = rng.integers(0, 100, n).astype(dtype)
    # sprinkle an ε mask over a second attribute
    mask = rng.random(n) > 0.1
    store = {
        "facts": StructuredVector(
            n,
            {".a": vals, ".b": rng.integers(0, 50, n).astype(np.int64)},
            {".b": mask},
        )
    }
    b = Builder({"facts": store["facts"].schema})
    facts = b.load("facts")
    value = facts.project(".a", out=".v")
    for _ in range(int(rng.integers(0, 3))):
        op = rng.choice(["add", "multiply", "subtract"])
        const = b.constant(int(rng.integers(1, 10)))
        value = getattr(b, op)(value, const, out=".v")
    grain = int(rng.choice([64, 1000, 4096]))
    ctrl = b.divide(b.range(facts), b.constant(grain), out=".g")
    if rng.random() < 0.3:
        # scaled control: metadata cannot track this (fractional-step
        # multiply), so folds must degrade to SEQ and still match
        ctrl = b.multiply(ctrl, b.constant(int(rng.integers(2, 5))), out=".g")
    chained = b.zip(b.zip(value, facts.project(".b", out=".w")), ctrl)
    kind = rng.choice(["select", "sum", "count", "scan", "max"])
    if kind == "select":
        pred = b.greater(chained.project(".v"), b.constant(int(rng.integers(5, 80))),
                         out=".sel")
        out = b.fold_select(b.zip(chained, pred), sel_kp=".sel", fold_kp=".g",
                            out=".pos")
        if rng.random() < 0.5:
            out = b.gather(chained.project(".w", out=".payload"), out, pos_kp=".pos")
    elif kind == "sum":
        partial = b.fold_sum(chained, agg_kp=".v", fold_kp=".g", out=".p")
        out = b.fold_sum(partial, agg_kp=".p", out=".total")
    elif kind == "count":
        out = b.fold_count(chained, counted_kp=".w", fold_kp=".g", out=".c")
    elif kind == "scan":
        out = b.fold_scan(chained, s_kp=".v", fold_kp=".g", out=".s")
    else:
        out = b.fold_max(chained, agg_kp=".v", out=".top")
    return store, b.build(out=out)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_property_bit_identical(seed):
    store, program = random_program(seed)
    seq = Interpreter(store).run(program)
    par = pooled(store).run(program)
    assert_bit_identical(seq, par)
