"""A plan-cache miss compiles in one pass: invariants pinned by counting.

Nothing here measures time.  Each test counts how often a piece of the
front end runs during one ``engine.compile()`` (or checks an identity)
so that a re-introduced re-walk, re-inference or re-generation fails
regardless of the machine.
"""

from collections import Counter

import numpy as np
import pytest

from repro.compiler import compile_program, optimize
from repro.compiler.fragments import FragmentPlan
from repro.compiler.pricing import Pricer
from repro.core import Builder, Schema, StructuredVector
from repro.core import program as program_module
from repro.core.program import Program
from repro.core.typecheck import TypeChecker
from repro.hardware import TraceRecorder
from repro.relational import (
    AggSpec,
    Col,
    EngineConfig,
    GroupBy,
    Lit,
    Map,
    Query,
    Scan,
    VoodooEngine,
)
from repro.storage import ColumnStore, Table
from repro.testing.qgen import generate_case
from repro.tpch import QUERIES, build, generate


@pytest.fixture(scope="module")
def store():
    return generate(0.002, seed=3)


@pytest.fixture(scope="module")
def queries(store):
    # build before translating: LIKE queries register aux vectors
    return {number: build(store, number) for number in sorted(QUERIES)}


@pytest.fixture()
def engine(store):
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        yield engine


def map_chain_query(length: int) -> Query:
    """``sum(c_length)`` over ``c_i = c_{i-1} + i``: a program whose size
    grows with *length* and whose every step asks for a schema."""
    plan = Scan("t")
    previous = "v"
    for step in range(1, length + 1):
        plan = Map(plan, {f"c{step}": Col(previous) + Lit(step)})
        previous = f"c{step}"
    plan = GroupBy(plan, keys=[], aggs={"total": AggSpec("sum", Col(previous))})
    return Query(plan=plan, select=["total"])


@pytest.fixture(scope="module")
def chain_store():
    out = ColumnStore()
    out.add(Table.from_arrays("t", v=np.arange(64, dtype=np.int64)))
    return out


@pytest.fixture()
def inferred(monkeypatch):
    """Every node handed to ``TypeChecker._infer`` while the test runs
    (the list keeps the nodes alive, so their ids stay unique)."""
    nodes = []
    original = TypeChecker._infer

    def counting(self, node):
        nodes.append(node)
        return original(self, node)

    monkeypatch.setattr(TypeChecker, "_infer", counting)
    return nodes


class TestSchemaInference:
    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_infer_runs_at_most_once_per_node(self, engine, queries, number, inferred):
        compiled = engine.compile(queries[number])
        counts = Counter(map(id, inferred))
        assert max(counts.values()) == 1
        # not every node's schema is asked for, and the builder types a
        # few helper nodes that never reach the output
        assert 0 < len(counts) <= 2 * len(compiled.program)

    def test_building_node_by_node_infers_each_node_once(self, inferred):
        b = Builder({"t": Schema({".i": "int64"})})
        v = b.load("t")
        for _ in range(50):
            v = b.add(v, v, out=".i", left_kp=".i", right_kp=".i")
            assert v.schema[".i"].kind == "i"  # a schema lookup per step
        assert len(inferred) == 51 and len(set(map(id, inferred))) == 51


class TestOnePass:
    def visited_per_compile(self, store, query, monkeypatch) -> tuple[int, int]:
        """(nodes visited by ``topological_order``, program size) of one
        cold ``engine.compile``."""
        visited = []
        original = program_module.topological_order

        def counting(roots):
            order = original(roots)
            visited.append(len(order))
            return order

        with monkeypatch.context() as patch:
            patch.setattr(program_module, "topological_order", counting)
            with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
                compiled = engine.compile(query)
        return sum(visited), len(compiled.program)

    def test_order_walks_are_linear_in_program_size(self, chain_store, monkeypatch):
        short, short_size = self.visited_per_compile(chain_store, map_chain_query(16), monkeypatch)
        long, long_size = self.visited_per_compile(chain_store, map_chain_query(64), monkeypatch)
        assert long_size > 3 * short_size
        assert short <= 2 * short_size
        assert long <= 2 * long_size  # one walk per Program, not one per schema lookup

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_tpch_compiles_with_one_order_walk(self, store, queries, number, monkeypatch):
        visited, size = self.visited_per_compile(store, queries[number], monkeypatch)
        assert visited == size


def structural_twins(program: Program) -> list[str]:
    """Nodes of *program* that repeat an earlier node's structure: the
    same reference key (:meth:`~repro.core.ops.Op.structural_key`) over
    the same input objects."""
    seen: set[tuple] = set()
    twins = []
    for node in program.order:
        key = (node.structural_key(), tuple(map(id, node.inputs())))
        if key in seen:
            twins.append(node.opname)
        seen.add(key)
    return twins


class TestHashConsedPrograms:
    """The Builder's interner is the one hash-consing: what the engine
    translates has no structural twins for a later pass to merge."""

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_tpch_programs_have_no_structural_twins(self, engine, queries, number):
        assert structural_twins(engine.translate(queries[number])) == []

    def test_fuzzed_programs_have_no_structural_twins(self):
        for index in range(200):
            case = generate_case(12, index)
            with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
                program = engine.translate(case.query)
            assert structural_twins(program) == [], f"case (12, {index})"

    def test_handles_of_another_builder_give_a_correct_program(self):
        schemas = {"t": Schema({".val": "int64"})}
        mine, theirs = Builder(schemas), Builder(schemas)
        mixed = mine.add(mine.load("t"), theirs.load("t"))
        program = mine.build(result=mixed)
        # the two Loads are structural twins, each loaded once
        assert structural_twins(program) == ["Load"]
        values = np.arange(5, dtype=np.int64)
        storage = {"t": StructuredVector.from_arrays(val=values)}
        outputs, _ = compile_program(program).run(storage, collect_trace=False)
        assert np.array_equal(outputs["result"].attr(".val"), 2 * values)
        assert optimize(program) is program


class TestLazyTracedSource:
    """Simulation costs the runs that ask for it, and only while they run;
    the fragment plan is built when first read and the one text left
    (``source``) is rendered when read."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """How many pricers, trace recorders and fragment plans were
        constructed."""
        counts = Counter()
        for cls in (Pricer, TraceRecorder, FragmentPlan):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    def test_untraced_run_generates_no_source_at_all(self, store, engine, queries, built):
        """... and builds no pricer, no trace recorder and no fragment
        plan either."""
        compiled = compile_program(engine.translate(queries[6]), engine.options)
        compiled.run(engine.vectors(), collect_trace=False)
        engine.execute(queries[6])  # a plan-cache miss ...
        engine.execute(queries[6])  # ... and a warm hit
        assert not built
        assert compiled.fused_source is None
        for artifact in (compiled, engine.compile(queries[6])):
            assert "source" not in vars(artifact)
            assert "plan" not in vars(artifact)

    def test_traced_run_builds_one_pricer_and_leaves_nothing_behind(
        self, store, queries, built
    ):
        with VoodooEngine(store) as traced_engine:
            compiled = traced_engine.compile(queries[6])
            compiled.run(traced_engine.vectors(), collect_trace=False)
            artifact, memo = set(vars(compiled)), set(compiled.program.memo)
            assert built["FragmentPlan"] == 0
            for runs, added in ((1, {"plan"}), (2, set())):
                before = set(vars(compiled))
                _, trace = compiled.run(traced_engine.vectors())
                assert len(trace) > 0
                assert built == {"Pricer": runs, "TraceRecorder": runs, "FragmentPlan": 1}
                # the first traced run builds the plan, the second reuses it
                assert set(vars(compiled)) - before == added
            # per-program state is what the untraced runner memoizes, no more
            assert set(vars(compiled)) == artifact | {"plan"}
            assert set(compiled.program.memo) == memo

    def test_plan_is_built_from_the_compile_metadata(self, engine, queries, built):
        compiled = compile_program(engine.translate(queries[1]), engine.options)
        assert built["FragmentPlan"] == 0
        plan = compiled.plan
        assert plan.metadata is compiled.metadata and plan.program is compiled.program
        assert compiled.plan is plan and compiled.kernel_count() == plan.kernel_count()
        assert built["FragmentPlan"] == 1

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_source_is_rendered_on_first_read(self, engine, queries, number):
        compiled = compile_program(engine.translate(queries[number]), engine.options)
        assert "source" not in vars(compiled)
        text = compiled.source  # (every operator the front end emits renders)
        assert isinstance(text, str) and text.count("__kernel void") == compiled.kernel_count()
        assert vars(compiled)["source"] is text
