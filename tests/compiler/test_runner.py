"""One untraced executor, three ways to reach it, one answer.

``CompiledProgram.run(collect_trace=False)`` (the whole-program entry of
:mod:`repro.compiler.runner`) and ``ParallelInterpreter`` at a grain that
forces at least three chunks (the chunk entry, the merges and the SEQ
zone) must return exactly what the reference ``Interpreter`` returns —
values, dtypes and ε masks — on every TPC-H program and on 200 generated
ones, with the NumPy kernels and with the native ones.

The comparison is per node, not only per output: the runner stores
ε-padded values compact (present rows + slots), so every node's value is
padded back and checked against the interpreter's — masks on all slots,
values on the present ones (``Partition`` positions are integers:
exactly).  A compact kernel that puts a fold result one slot off is
caught at the node that did it, not three joins later.
"""

import threading

import numpy as np
import pytest

from repro.compiler import FusedRuntime, compile_program
from repro.compiler.rt_fast import Compact
from repro.compiler.runner import ChunkRunner, ProgramRunner
from repro.core import Builder, StructuredVector, ops
from repro.interpreter import Interpreter
from repro.native.runner import _INTERNAL  # what a C chain leaves for its inner steps
from repro.parallel import PARTITIONED, ParallelInterpreter, merge
from repro.relational import EngineConfig, VoodooEngine
from repro.testing.qgen import generate_case
from repro.tpch import QUERIES, build, generate

KERNELS = pytest.mark.parametrize("native", (False, True), ids=("numpy", "native"))


def assert_vectors_identical(want, have, where) -> None:
    assert len(want) == len(have), where
    assert set(want.paths) == set(have.paths), where
    for path in want.paths:
        here = (*where, str(path))
        assert want.attr(path).dtype == have.attr(path).dtype, here
        present = want.present(path)
        assert np.array_equal(present, have.present(path)), (*here, "masks")
        # ε slots hold whatever the kernel left there (a fold's fill value)
        a, b = want.attr(path)[present], have.attr(path)[present]
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), (*here, "values")


def assert_bit_identical(expected: dict, got: dict, context) -> None:
    assert expected.keys() == got.keys(), context
    for name, want in expected.items():
        assert_vectors_identical(want, got[name], (*context, name))


def interpret_nodes(program, vectors) -> dict:
    """The reference value of every node."""
    interpreter = Interpreter(vectors)
    values: dict = {}
    for node in program.order:
        values[id(node)] = interpreter._eval(node, values)
    return values


def check_nodes(program, reference: dict, got: dict, rt, context) -> None:
    """Every node's runner value, padded, against the interpreter's."""
    for index, node in enumerate(program.order):
        if got[id(node)] is _INTERNAL:
            continue  # nothing outside the chain reads this step
        have = rt.force(got[id(node)])
        assert_vectors_identical(
            reference[id(node)], have, (*context, f"v{index}", node.opname)
        )


def run_whole(program, vectors, native: bool, reference, context) -> dict:
    runner = ProgramRunner(program, vectors, native=native)
    values: dict = {}
    for node in program.order:
        values[id(node)] = runner.eval(node, values)
    check_nodes(program, reference, values, runner.rt, context)
    return runner.capture(values)


def run_chunked(program, vectors, native: bool, reference, context, monkeypatch):
    """A parallel run with every node evaluation and every merge spied
    on: partitioned nodes are compared after concatenating their chunks
    in chunk order, global folds after their merge, the rest as is."""
    evaluated: list = []
    merged: dict = {}
    lock = threading.Lock()
    plain_eval, plain_merge = ProgramRunner.eval, ParallelInterpreter._merge

    def spy_eval(self, node, values):
        result = plain_eval(self, node, values)
        with lock:
            evaluated.append((self, node, result))
        return result

    def spy_merge(zone, node, chunks):
        merged[id(node)] = result = plain_merge(zone, node, chunks)
        return result

    monkeypatch.setattr(ProgramRunner, "eval", spy_eval)
    monkeypatch.setattr(ParallelInterpreter, "_merge", staticmethod(spy_merge))
    # the planner drives on the longest loaded vector: quarter *that*
    extent = max(len(vectors[node.name]) for node in program.loads())
    with ParallelInterpreter(
        vectors, workers=2, grain=max(1, extent // 4), native=native
    ) as runner:
        outputs = runner.run(program)
        plan = runner.last_plan
    monkeypatch.undo()
    if not plan.parallel:
        return outputs, 0
    index = {id(node): i for i, node in enumerate(program.order)}
    whole: dict = dict(merged)
    chunks: dict = {}
    rt = FusedRuntime(vectors)
    for runner, node, result in evaluated:
        if isinstance(runner, ChunkRunner):
            chunks.setdefault(id(node), []).append((runner.lo, result))
        else:
            whole[id(node)] = result
    for nid, parts in chunks.items():
        if (plan.zones[index[nid]] == PARTITIONED and nid not in whole
                and all(value is not _INTERNAL for _, value in parts)):
            parts.sort(key=lambda part: part[0])
            whole[nid] = merge.concat_fused([value for _, value in parts])
    compared = [node for node in program.order if id(node) in whole
                and not isinstance(node, ops.Load) and whole[id(node)] is not _INTERNAL]
    assert compared, context
    for node in compared:
        assert_vectors_identical(
            reference[id(node)], rt.force(whole[id(node)]),
            (*context, f"v{index[id(node)]}", node.opname),
        )
    return outputs, len(plan.chunks)


def check_all_paths(program, vectors, native: bool, context, monkeypatch) -> int:
    """Interpreter vs whole-program runner vs chunked runner, node by
    node; returns the number of chunks the parallel run was cut into
    (0: it ran whole)."""
    expected = Interpreter(vectors).run(program)
    compiled = compile_program(program, EngineConfig(native=native).resolved().options)
    assert compiled.native is native
    whole, trace = compiled.run(vectors, collect_trace=False)
    assert len(trace) == 0
    assert_bit_identical(expected, whole, (*context, "whole"))
    reference = interpret_nodes(compiled.program, vectors)
    stepped = run_whole(compiled.program, vectors, native, reference, (*context, "whole"))
    assert_bit_identical(expected, stepped, (*context, "whole", "stepped"))
    chunked, chunks = run_chunked(
        compiled.program, vectors, native, reference, (*context, "chunked"), monkeypatch
    )
    assert_bit_identical(expected, chunked, (*context, "chunked"))
    return chunks


@pytest.fixture(scope="module")
def tpch_store():
    return generate(0.005, seed=7)


@KERNELS
@pytest.mark.parametrize("number", sorted(QUERIES))
def test_tpch_programs(tpch_store, number, native, monkeypatch):
    query = build(tpch_store, number)  # may register LIKE membership vectors
    with VoodooEngine(tpch_store) as engine:
        program = engine.translate(query)
        chunks = check_all_paths(
            program, engine.vectors(), native, (f"Q{number}",), monkeypatch
        )
    assert chunks >= 3, f"Q{number} ran in {chunks} chunks: the chunk entry went untested"


@KERNELS
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the data holds NaN and ±Inf
def test_generated_programs(native, monkeypatch):
    chunked = 0
    for index in range(200):
        case = generate_case(13, index)
        with VoodooEngine(case.store, config=EngineConfig(grain=case.grain)) as engine:
            program = engine.translate(case.query)
            chunks = check_all_paths(
                program, engine.vectors(), native, (13, index), monkeypatch
            )
        chunked += chunks >= 3
    # the generator's stores are small and some plans do not split at
    # all; most must, or this test says nothing about the chunk entry
    assert chunked >= 100, f"only {chunked}/200 generated programs ran in >= 3 chunks"


# -- the compact kernels at their edges -----------------------------------------


def edge_program(schema, grain: int, groups: int, longer: int = 0):
    """select -> gather -> map -> grained folds -> totals, a second
    selection over the (now ε-padded) rows, and a group-by over them:
    every compact kernel, fed by one selection.  ``longer``: also scatter
    a vector of that many rows — more than the positions cover — by the
    group-by's positions."""
    b = Builder({"t": schema})
    t = b.load("t")
    chunk = b.divide(b.range(t), b.constant(grain), out=".chunk")
    pred = b.greater(t.project(".v"), b.constant(0), out=".sel")
    positions = b.fold_select(
        b.zip(b.zip(t, pred), chunk), sel_kp=".sel", fold_kp=".chunk", out=".pos"
    )
    rows = b.gather(t, positions, pos_kp=".pos")
    scaled = b.multiply(rows, b.constant(0.5), out=".half", left_kp=".f")
    rows = b.zip(b.upsert(rows, ".half", scaled, ".half"), chunk)
    outputs = {"positions": positions, "rows": rows}
    for fn in ("sum", "max", "min"):
        for path in (".f", ".i", ".half"):
            partial = getattr(b, f"fold_{fn}")(rows, agg_kp=path, fold_kp=".chunk", out=".p")
            outputs[f"{fn}{path.replace('.', '_')}"] = partial
            outputs[f"total_{fn}{path.replace('.', '_')}"] = getattr(b, f"fold_{fn}")(
                partial, agg_kp=".p", out=".total")
    outputs["count"] = b.fold_count(rows, counted_kp=".f", fold_kp=".chunk", out=".c")
    outputs["scan"] = b.fold_scan(rows, s_kp=".i", fold_kp=".chunk", out=".s")
    # a second selection, over compact input
    again = b.fold_select(
        b.upsert(rows, ".sel2", b.less(rows, b.constant(3), out=".sel2", left_kp=".g"),
                 ".sel2"),
        sel_kp=".sel2", fold_kp=".chunk", out=".pos")
    outputs["again"] = b.gather(rows, again, pos_kp=".pos")
    # group by g - 1: the ε slots of the key hold -1, not 0
    key = b.subtract(rows, b.constant(1), out=".gid", left_kp=".g")
    keyed = b.upsert(rows, ".gid", key, ".gid")
    placed = b.partition(keyed.project(".gid"), b.range(groups, out=".pv"), out=".pos")
    scattered = b.scatter(keyed, placed, pos_kp=".pos")
    outputs["group_sum"] = b.fold_sum(scattered, agg_kp=".f", fold_kp=".gid", out=".s")
    outputs["group_max"] = b.fold_max(scattered, agg_kp=".half", fold_kp=".gid", out=".m")
    outputs["group_count"] = b.fold_count(scattered, counted_kp=".i", fold_kp=".gid",
                                          out=".c")
    if longer:
        # data.length > positions.length: the rows past the last position
        # land nowhere, the others where the (compact) positions say
        wide = b.zip(b.range(longer, out=".w"),
                     b.divide(b.range(longer), b.constant(3), out=".k"))
        landed = b.scatter(wide, placed, pos_kp=".pos")
        outputs["longer_sum"] = b.fold_sum(landed, agg_kp=".w", fold_kp=".k", out=".s")
        outputs["longer_count"] = b.fold_count(landed, counted_kp=".w", fold_kp=".k",
                                               out=".c")
        outputs["longer_landed"] = b.scatter(wide, placed, pos_kp=".pos", sizeref=wide)
    return b.build(**outputs)


def edge_store(v, f=None, i=None, g=None, v_mask=None):
    v = np.asarray(v, dtype=np.int64)
    n = len(v)
    rng = np.random.default_rng(n)
    f = rng.normal(size=n) if f is None else np.asarray(f, dtype=np.float64)
    i = rng.integers(-9, 9, n) if i is None else np.asarray(i, dtype=np.int64)
    g = rng.integers(0, 5, n) if g is None else np.asarray(g, dtype=np.int64)
    masks = {} if v_mask is None else {".v": np.asarray(v_mask, dtype=bool)}
    return {"t": StructuredVector(n, {".v": v, ".f": f, ".i": i, ".g": g}, masks)}


_INT_MIN = np.iinfo(np.int64).min
_SPECIALS = [-0.0, 0.0, np.nan, np.inf, -np.inf, -0.0, 1.5, -0.0]

EDGES = {
    "empty vector": (edge_store([]), 4),
    "all-ε": (edge_store([1] * 9, v_mask=[False] * 9), 4),
    "no hit": (edge_store([0] * 9), 4),
    "one hit": (edge_store([0, 0, 0, 0, 0, 1, 0, 0, 0]), 4),
    "every row kept": (edge_store([1] * 8), 4),
    "every row kept, ragged": (edge_store([1] * 9), 4),
    "ragged last run": (edge_store([1, 0, 1, 1, 0, 0, 1, 0, 1, 1]), 4),
    "a run with no present slot": (edge_store([1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1]), 3),
    "single run": (edge_store([1, 0, 1, 1, 0]), 64),
    "runs of one": (edge_store([1, 0, 1, 1, 0]), 1),
    "float specials": (edge_store([1] * 7 + [0], f=_SPECIALS), 3),
    "negative zeros only": (edge_store([1, 1, 0, 1], f=[-0.0] * 4), 2),
    "nan first": (edge_store([1, 1, 1, 1], f=[np.nan, 1.0, -1.0, np.inf]), 4),
    "int64 min wraps": (edge_store([1, 1, 1, 0, 1], i=[_INT_MIN, _INT_MIN, -1, 5, 7]), 2),
    "groups out of range": (edge_store([1, 1, 1, 1, 0, 1], g=[0, 9, -4, 2, 2, 1]), 3),
}


@KERNELS
@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, int64 wrap-around
def test_compact_kernels_at_the_edges(edge, native, monkeypatch):
    store, grain = EDGES[edge]
    for groups, longer in ((1, 0), (4, 0), (4, len(store["t"]) + 5)):
        program = edge_program(store["t"].schema, grain, groups, longer)
        check_all_paths(program, store, native, (edge, groups, longer), monkeypatch)


@KERNELS
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compact_kernels_on_random_vectors(native, monkeypatch):
    rng = np.random.default_rng(5)
    for case in range(60):
        n = int(rng.integers(1, 200))
        density = rng.choice([0.02, 0.3, 0.9, 1.0])
        f = rng.choice(np.array(_SPECIALS + [2.25, -7.0]), n)
        store = edge_store(
            rng.random(n) < density, f=f,
            v_mask=None if case % 3 else rng.random(n) < 0.8,
        )
        program = edge_program(store["t"].schema, int(rng.choice([1, 3, 16, 500])), 5,
                               longer=(n + 7) * (case % 2))
        check_all_paths(program, store, native, ("random", case), monkeypatch)


# -- where full-length materialisations happen -----------------------------------

#: Compact.pad() calls per TPC-H program that are NOT the output boundary,
#: with the reason each one is inherent.  Anything else that starts padding
#: fails here instead of becoming a latency mystery.
PADS_INSIDE = {
    # Q20 joins partsupp to an aggregate of lineitem and the join misses
    # for some rows: `ps_availqty > 0.5 * sum_qty` pairs a column present
    # on every selected row with one present on the matched rows only, so
    # the ε slots of the result would hold row-dependent values (2 pads);
    # and its 50-slot supplier membership table is probed by the dense
    # s_suppkey column, one pad of 50 slots.
    20: 3,
}


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_padding_happens_at_the_output_boundary(tpch_store, number, monkeypatch):
    query = build(tpch_store, number)
    with VoodooEngine(tpch_store) as engine:
        program = compile_program(
            engine.translate(query), EngineConfig().resolved().options
        ).program
        vectors = engine.vectors()
    padded: list = []
    plain = Compact.pad

    def spy(self):
        if self._padded is None:
            padded.append(self.slots.length)
        return plain(self)

    monkeypatch.setattr(Compact, "pad", spy)
    runner = ProgramRunner(program, vectors)
    values: dict = {}
    selected = False
    for node in program.order:
        values[id(node)] = runner.eval(node, values)
        if not selected:
            selected = isinstance(node, ops.FoldSelect)
            padded.clear()  # the pin starts at the first selection
    inside = len(padded)
    outputs = runner.capture(values)
    assert inside == PADS_INSIDE.get(number, 0), (number, padded)
    columns = sum(len(vector.paths) for vector in outputs.values())
    assert len(padded) - inside <= columns, (number, padded)
