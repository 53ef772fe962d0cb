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

import gc
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.compiler import CompilerOptions, FusedRuntime, compile_program, kernels
from repro.compiler.pricing import Pricer
from repro.compiler.columns import Dense, Lazy, Run
from repro.compiler.rt_fast import DENSE_RATIO, Compact
from repro.compiler.runner import ChunkRunner, ProgramRunner, run_program
from repro.core import Builder, StructuredVector, ops
from repro.interpreter import Interpreter, semantics
from repro.parallel import PARTITIONED, ParallelInterpreter, merge
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import ColumnStore, Table
from repro.storage.columnstore import Column as StoredColumn
from repro.storage.columnstore import resegment
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
        have = rt.force(got[id(node)])
        assert_vectors_identical(
            reference[id(node)], have, (*context, f"v{index}", node.opname)
        )


def run_whole(program, vectors, native: bool, reference, context,
              virtual_scatter: bool = True) -> dict:
    runner = ProgramRunner(program, vectors, virtual_scatter, native)
    values: dict = {}
    for node in program.order:
        values[id(node)] = runner.eval(node, values)
    check_nodes(program, reference, values, runner.rt, context)
    return runner.capture(values)


def run_chunked(program, vectors, native: bool, reference, context, monkeypatch,
                virtual_scatter: bool = True):
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
        outputs = runner.run(program, virtual_scatter=virtual_scatter)
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
        if plan.zones[index[nid]] == PARTITIONED and nid not in whole:
            parts.sort(key=lambda part: part[0])
            whole[nid] = merge.concat_fused([value for _, value in parts])
    compared = [node for node in program.order if id(node) in whole
                and not isinstance(node, ops.Load)]
    assert compared, context
    for node in compared:
        assert_vectors_identical(
            reference[id(node)], rt.force(whole[id(node)]),
            (*context, f"v{index[id(node)]}", node.opname),
        )
    return outputs, len(plan.chunks)


def check_all_paths(program, vectors, native: bool, context, monkeypatch,
                    virtual_scatter: bool = True) -> int:
    """Interpreter vs whole-program runner vs chunked runner, node by
    node; returns the number of chunks the parallel run was cut into
    (0: it ran whole)."""
    expected = Interpreter(vectors).run(program)
    options = replace(EngineConfig(native=native).resolved().options,
                      virtual_scatter=virtual_scatter)
    compiled = compile_program(program, options)
    assert compiled.native is native
    whole, trace = compiled.run(vectors, collect_trace=False)
    assert len(trace) == 0
    assert_bit_identical(expected, whole, (*context, "whole"))
    reference = interpret_nodes(compiled.program, vectors)
    stepped = run_whole(compiled.program, vectors, native, reference,
                        (*context, "whole"), virtual_scatter)
    assert_bit_identical(expected, stepped, (*context, "whole", "stepped"))
    chunked, chunks = run_chunked(
        compiled.program, vectors, native, reference, (*context, "chunked"),
        monkeypatch, virtual_scatter,
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


# -- a pricer attached --------------------------------------------------------------


def assert_same_bytes(want, have, where) -> None:
    assert len(want) == len(have) and want.paths == have.paths, where
    for path in want.paths:
        assert np.array_equal(want.present(path), have.present(path)), (*where, str(path))
        a, b = want.attr(path), have.attr(path)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (*where, str(path))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pricer_observes_without_changing_a_value(tpch_store):
    """A traced run is the same runner with a ``Pricer`` reading every
    node's values — sampling gather positions, extracting lazy columns,
    padding compact ones: every node value and every output stays
    bit-identical to the run nobody watched (ε slots included), under
    each plan shape the pricer prices."""
    programs = []
    for number in sorted(QUERIES):
        query = build(tpch_store, number)
        with VoodooEngine(tpch_store) as engine:
            programs.append((f"Q{number}", engine.translate(query), engine.vectors))
    for edge, (store, grain) in sorted(EDGES.items()):
        program = edge_program(store["t"].schema, grain, 4, len(store["t"]) + 5)
        programs.append((edge, program, lambda store=store: store))
    for name, program, vectors in programs:
        for options in (CompilerOptions(), CompilerOptions(fuse=False),
                        CompilerOptions(virtual_scatter=False, selection="branch-free")):
            compiled = compile_program(program, options)
            keep = bool(compiled.plan.virtual_scatters)
            reference = interpret_nodes(compiled.program, vectors())
            plain = ProgramRunner(compiled.program, vectors(), keep)
            unwatched: dict = {}
            for node in compiled.program.order:
                unwatched[id(node)] = plain.eval(node, unwatched)
            watched_runner = ProgramRunner(compiled.program, vectors(), keep)
            pricer = Pricer(compiled.plan, compiled.device)
            watched = pricer.run(watched_runner)
            assert len(pricer.trace) > 0
            context = (name, options)
            check_nodes(compiled.program, reference, watched, watched_runner.rt, context)
            for index, node in enumerate(compiled.program.order):
                assert_same_bytes(plain.rt.force(unwatched[id(node)]),
                                  watched_runner.rt.force(watched[id(node)]),
                                  (*context, f"v{index}", node.opname))
            outputs = watched_runner.capture(watched)
            assert_bit_identical(Interpreter(vectors()).run(program), outputs, context)
            for out_name, vector in plain.capture(unwatched).items():
                assert_same_bytes(vector, outputs[out_name], (*context, out_name))


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


# -- the shapes that pick the scatter regime --------------------------------------
#
# Hand-built programs: the SQL front end only ever partitions by keys inside
# a consecutive pivot range and folds by the very column it partitioned, so
# neither fuzzer reaches the shapes that must NOT take the direct path.


def regime_program(schema, rows: int, groups: int, *, select: bool = True, shift: int = 0,
                   pivot_start: int = 0, pivots=None, expose: bool = False,
                   longer: int = 0, narrow: bool = False):
    """Partition -> Scatter -> every fold, by the key and by another
    column; scatters by positions the table names itself (duplicates,
    strays, ε) into a tight and a wide table; optionally the positions
    as an output, a scatter of more rows than there are positions, and
    (``narrow``) an aggregate input present on fewer rows than the key."""
    b = Builder({"t": schema} if pivots is None else {"t": schema, "pv": pivots})
    t = b.load("t")
    kept = t
    if select:
        chunk = b.divide(b.range(t), b.constant(4), out=".chunk")
        pred = b.greater(t.project(".v"), b.constant(0), out=".sel")
        hits = b.fold_select(b.zip(b.zip(t, pred), chunk), sel_kp=".sel",
                             fold_kp=".chunk", out=".pos")
        kept = b.gather(t, hits, pos_kp=".pos")
        if narrow:
            fewer = b.fold_select(
                b.zip(b.zip(t, b.greater(t.project(".v"), b.constant(1), out=".sel")), chunk),
                sel_kp=".sel", fold_kp=".chunk", out=".pos")
            kept = b.upsert(kept, ".e", b.gather(t, fewer, pos_kp=".pos"), ".e")
    # the ε slots of a selected key hold `shift`
    key = b.add(kept, b.constant(shift), out=".gid", left_kp=".k")
    keyed = b.upsert(kept, ".gid", key, ".gid")
    piv = b.load("pv") if pivots is not None else b.range(groups, start=pivot_start,
                                                          out=".pv")
    placed = b.partition(keyed.project(".gid"), piv, out=".pos")
    outputs = {"placed": placed} if expose else {}

    def folds(tag, scattered, controls, paths):
        for control in controls:
            for fn in ("sum", "max", "min"):
                for path in paths:
                    outputs[f"{tag}{control}_{fn}{path}".replace(".", "_")] = getattr(
                        b, f"fold_{fn}")(scattered, agg_kp=path, fold_kp=control, out=".r")
            outputs[f"{tag}{control}_count".replace(".", "_")] = b.fold_count(
                scattered, counted_kp=paths[-1], fold_kp=control, out=".n")
            # no counted column: the runs of the landed vector count their ε slots
            outputs[f"{tag}{control}_slots".replace(".", "_")] = b.fold_count(
                scattered, fold_kp=control, out=".n")
        outputs[f"{tag}_whole"] = b.fold_sum(scattered, agg_kp=paths[0], out=".r")

    folds("by", b.scatter(keyed, placed, pos_kp=".pos"), (".gid", ".c"),
          (".f", ".i", ".e"))
    for name, size in (("tight", max(rows, 1)), ("wide", 40 * rows + 7)):
        table = b.range(size, out=".slot")
        outputs[f"landed_{name}"] = b.scatter(t, t, pos_kp=".p", sizeref=table)
        folds(name, b.scatter(b.zip(t.project(".f"), t.project(".k")), t, pos_kp=".p",
                              sizeref=table), (".k",), (".f",))
    if longer:
        wide = b.zip(b.range(longer, out=".w"),
                     b.divide(b.range(longer), b.constant(3), out=".q"))
        folds("longer", b.scatter(wide, placed, pos_kp=".pos"), (".q",), (".w",))
    return b.build(**outputs)


def regime_store(k, *, v=None, f=None, i=None, e_mask=None, p=None, key_dtype=np.int64):
    k = np.asarray(k, dtype=key_dtype)
    n = len(k)
    rng = np.random.default_rng(n)
    columns = {
        ".k": k,
        ".v": rng.integers(0, 2, n) if v is None else np.asarray(v, dtype=np.int64),
        ".f": rng.normal(size=n) if f is None else np.asarray(f, dtype=np.float64),
        ".i": rng.integers(-9, 9, n) if i is None else np.asarray(i, dtype=np.int64),
        ".e": rng.integers(-50, 50, n),
        ".c": rng.integers(0, 3, n),
        # duplicate, negative and too-large positions
        ".p": rng.integers(-2, n + 3, n) if p is None else np.asarray(p, dtype=np.int64),
    }
    masks = {} if e_mask is None else {".e": np.asarray(e_mask, dtype=bool)}
    return StructuredVector(n, columns, masks)


def _pivots(values):
    return StructuredVector(len(values), {".pv": np.asarray(values, dtype=np.int64)})


_KEYS = [0, 3, 1, 1, 2, 0, 3, 3, 1, 0, 2, 1]
_SELECT = [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]
#: group 1 holds 1e16, -1e16, 1, 1 in input order: 2.0 — and 0.0 in any sorted order
_CANCEL = [1e-3, 1.0, 1e16, -1e16, 3.0, 1e16, -0.0, 2.0, 1.0, -0.0, -3.0, 1.0]

#: name -> (table, groups, regime_program keywords)
REGIMES = {
    "keys in range": (regime_store(_KEYS, v=_SELECT, f=_CANCEL), 4, {}),
    "keys in range, every row": (regime_store(_KEYS, f=_CANCEL), 4, {"select": False}),
    "ε image in a middle bucket": (
        regime_store([-2, 3, 1, -1, 2, 0, 3, 3, 1, 0, -2, 1], v=_SELECT), 6, {"shift": 2}),
    "ε image past the last bucket": (
        regime_store([-7, -4, -6, -6, -5, -7, -4, -4, -6, -7, -5, -6], v=_SELECT), 6,
        {"shift": 9}),
    "keys below and above the range": (
        regime_store([-3, 0, 7, 2, 1, 5, -1, 3, 3, 6, 0, 2], v=_SELECT), 4, {}),
    "pivot range not from zero": (
        regime_store([2, 5, 3, 3, 4, 2, 5, 5, 3, 2, 4, 3], v=_SELECT), 4,
        {"pivot_start": 2}),
    "keys around a range not from zero": (regime_store(_KEYS, v=_SELECT), 2,
                                          {"pivot_start": 1}),
    "non-consecutive, unsorted pivots": (
        regime_store([4, 11, 0, 6, 3, 9, 10, 5, 2, 7, 3, 12], v=_SELECT), 4,
        {"pivots": [10, 0, 5, 3]}),
    "consecutive pivots, stored": (regime_store(_KEYS, v=_SELECT), 4,
                                   {"pivots": [0, 1, 2, 3]}),
    "float keys": (regime_store([0.0, 3.0, 1.5, 1.0, 2.0, 0.0, 3.0, 2.5, 1.0, 0.5, 2.0, 1.0],
                                v=_SELECT, key_dtype=np.float64), 4, {}),
    "bool keys": (regime_store([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1], key_dtype=bool), 2,
                  {"select": False}),
    "an all-ε group": (
        regime_store(_KEYS, e_mask=[key != 1 for key in _KEYS]), 4, {"select": False}),
    "an ε-only column": (regime_store(_KEYS, e_mask=[False] * 12), 4, {"select": False}),
    "ε values beside a selected key": (
        regime_store(_KEYS, v=[2, 0, 1, 2, 0, 1, 2, 0, 1, 1, 0, 2]), 4, {"narrow": True}),
    # (a gather that hits an ε row pads, so this key is dense with a mask)
    "ε values in the selected table": (
        regime_store(_KEYS, v=_SELECT, e_mask=[key != 1 for key in _KEYS]), 4, {}),
    "domain far above the rows": (regime_store(_KEYS, v=_SELECT), 5000, {}),
    "sparse keys, domain far above the rows": (
        regime_store([4000, 17, 4000, 2, 999, 17, 2, 4999, 0, 2, 999, 17], v=_SELECT), 5000,
        {}),
    "domain of one": (regime_store([0] * 12, v=_SELECT), 1, {}),
    "empty input": (regime_store([]), 4, {}),
    "nothing selected": (regime_store(_KEYS, v=[0] * 12), 4, {}),
    "one row": (regime_store([2]), 4, {"select": False}),
    "float specials": (
        regime_store(_KEYS, v=_SELECT, f=(_SPECIALS + [np.nan, -np.inf, 1.5, -0.0])), 4, {}),
    "negative zeros only": (regime_store(_KEYS, f=[-0.0] * 12), 4, {"select": False}),
    "int64 wraps": (
        regime_store(_KEYS, i=[_INT_MIN, 5, _INT_MIN, -1, 7, _INT_MIN, -_INT_MIN - 1,
                               -_INT_MIN - 1, 1, -2, 3, 4]), 4, {"select": False}),
    "positions exposed": (regime_store(_KEYS, v=_SELECT), 4, {"expose": True}),
    "data longer than the positions": (regime_store(_KEYS, v=_SELECT), 4, {"longer": 17}),
    "data longer than dense positions": (regime_store(_KEYS), 4,
                                         {"select": False, "longer": 17}),
    "every position a duplicate": (regime_store(_KEYS, v=_SELECT, p=[5] * 12), 4, {}),
    "every position a stray": (regime_store(_KEYS, v=_SELECT, p=[-1, 99] * 6), 4, {}),
}


def check_regime(name, native, virtual_scatter, monkeypatch):
    table, groups, keywords = REGIMES[name]
    keywords = dict(keywords)
    store = {"t": table}
    if "pivots" in keywords:
        store["pv"] = _pivots(keywords["pivots"])
        keywords["pivots"] = store["pv"].schema
    program = regime_program(table.schema, len(table), groups, **keywords)
    check_all_paths(program, store, native, (name, virtual_scatter), monkeypatch,
                    virtual_scatter)


@KERNELS
@pytest.mark.parametrize("virtual_scatter", (True, False), ids=("virtual", "landed"))
@pytest.mark.parametrize("name", sorted(REGIMES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, int64 wrap-around
def test_scatter_regimes(name, virtual_scatter, native, monkeypatch):
    check_regime(name, native, virtual_scatter, monkeypatch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_direct_folds_run_where_they_should(monkeypatch):
    """The regime is chosen by what the input shows: the grouped kernel
    serves the translator's shape and nothing else in REGIMES."""
    calls: list = []
    plain = kernels.fold_aggregate_groups

    def spy(fn, values, part, buckets):
        calls.append(buckets)
        return plain(fn, values, part, buckets)

    monkeypatch.setattr(kernels, "fold_aggregate_groups", spy)
    direct = set()
    for name in REGIMES:
        calls.clear()
        table, groups, keywords = REGIMES[name]
        if "pivots" in keywords:
            continue
        program = regime_program(table.schema, len(table), groups, **keywords)
        runner = ProgramRunner(program, {"t": table})
        values: dict = {}
        for node in program.order:
            values[id(node)] = runner.eval(node, values)
        if calls:
            direct.add(name)
            # {sum, max, min} x {f, i, e} by the key; the other control column
            # is the key only where no row is left to tell them apart
            assert len(calls) == (18 if name in ("empty input", "nothing selected") else 9), name
    assert direct == set(REGIMES) - {
        "keys below and above the range", "keys around a range not from zero",
        "non-consecutive, unsorted pivots", "consecutive pivots, stored", "float keys",
        "domain far above the rows", "sparse keys, domain far above the rows",
        # a compact key then ranks every slot, as a masked one does: no groups
        "positions exposed", "ε values in the selected table",
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_regime_mutations_are_caught(monkeypatch):
    """Two plausible wrong kernels, each of which the cases above must fail."""
    plain_slots, plain_fold = kernels.group_slots, kernels.fold_aggregate_groups

    def no_epsilon_offsets(part, counts, index, n, fill_part):
        return plain_slots(part, counts, None, len(part), fill_part)

    def sorted_accumulation(fn, values, part, buckets):
        order = np.argsort(values, kind="stable")
        return plain_fold(fn, values[order], part[order], buckets)

    for broken, name, mutant in (
        ("group_slots", "ε image in a middle bucket", no_epsilon_offsets),
        ("fold_aggregate_groups", "keys in range", sorted_accumulation),
    ):
        check_regime(name, False, True, monkeypatch)
        monkeypatch.setattr(kernels, broken, mutant)
        with pytest.raises(AssertionError):
            check_regime(name, False, True, monkeypatch)
        monkeypatch.undo()


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


# -- where the scatter path still sorts --------------------------------------------

#: ``semantics.stable_order`` calls made by the Partition, Scatter and fold
#: nodes of a TPC-H program, with the reason each one is inherent: a grouped
#: query whose key domain is more than DENSE_RATIO times its rows lands its
#: scatter by sorting the few rows (one sort ranks them, one orders their
#: destinations) instead of sweeping a domain-long scratch array.
SORTS_INSIDE = {
    7: 2,  # ~30 shipments between two nations in a 25 x 25 x 7 = 4 375-group domain
    # (at the benchmark's SF 0.02 Q11 joins it: 400 partsupp rows of one
    # nation over 4 000 part keys; here its ratio is inside DENSE_RATIO)
}


#: the three micros of the repository benchmark
MICROS = {
    "micro.select": "SELECT SUM(v2) AS total FROM facts WHERE v1 <= 0.1",
    "micro.project": "SELECT SUM(v1 * v2 + w) AS total FROM facts WHERE v1 <= 0.2",
    "micro.groupby": ("SELECT k, SUM(v1) AS s1, SUM(v2) AS s2, COUNT(*) AS cnt, MAX(w) AS top "
                      "FROM facts WHERE w <= 95 GROUP BY k ORDER BY k"),
}


def _micro(name: str):
    """A micro of the repository benchmark, at test size."""
    rng = np.random.default_rng(3)
    rows = 4_000
    store = ColumnStore()
    store.add(Table.from_arrays(
        "facts", k=rng.integers(0, 12, rows), v1=rng.random(rows), v2=rng.random(rows),
        w=rng.integers(0, 100, rows)))
    return store, MICROS[name]


@pytest.mark.parametrize("number", [*sorted(QUERIES), "micro.groupby"])
def test_grouped_folds_and_builds_do_not_sort(tpch_store, number, monkeypatch):
    """Beside the pad-count guard: grouped aggregates accumulate straight
    into their group's slot, semi- and hash-join builds resolve their
    writers per slot, and Partition ranks no row nobody reads — no
    ``stable_order`` and no ``np.argsort`` in a warm execute, except the
    documented sparse landings; and the group structure adds no
    collector pass to a warm execute."""
    store, query = _micro(number) if number in MICROS else (
        tpch_store, build(tpch_store, number))
    sorts: list = []
    inside = [0]
    plain_order, plain_argsort = semantics.stable_order, np.argsort

    def spy_order(ids, bound):
        sorts.append((len(ids), bound))
        inside[0] += 1
        try:
            return plain_order(ids, bound)
        finally:
            inside[0] -= 1

    def spy_argsort(*args, **kwargs):
        if not inside[0]:
            sorts.append("argsort")
        return plain_argsort(*args, **kwargs)

    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        prepared = engine.prepare(query)
        prepared.execute()
        gc.collect()
        passes = sum(generation["collections"] for generation in gc.get_stats())
        prepared.execute()
        passes = sum(generation["collections"] for generation in gc.get_stats()) - passes
        program = engine.compile(prepared.bind()).program
        vectors = engine.vectors()
    # (a value is one mapping of columns: the longest programs, Q8 and Q20,
    # hold ~455 containers alive, under one gen-0 threshold of 700)
    assert passes == 0, number
    monkeypatch.setattr(semantics, "stable_order", spy_order)
    monkeypatch.setattr(np, "argsort", spy_argsort)
    runner = ProgramRunner(program, vectors)
    values: dict = {}
    for node in program.order:
        before = len(sorts)
        values[id(node)] = runner.eval(node, values)
        if not isinstance(node, (ops.Partition, ops.Scatter, ops.FoldAggregate,
                                 ops.FoldCount)):
            assert len(sorts) == before, (number, node.opname, sorts[before:])
    assert len(sorts) == SORTS_INSIDE.get(number, 0), (number, sorts)
    for rows, bound in sorts:  # (an argsort outside stable_order fails to unpack)
        assert rows * DENSE_RATIO < bound, (number, sorts)


# -- how many rows a query moves ---------------------------------------------------

#: Rows read through ``take`` — of a storage handle, a control vector, a
#: dense or a compact column; an unread gather resolving is one of these —
#: by one warm ``execute()``.  A gather or a landing scatter leaves a
#: column where it is until something reads it, so this is what the query
#: uses (half, in Q7, of what taking every column of every source moved:
#: CHANGES.md, PR 22).  Anything that starts moving more fails here.
ROWS_TAKEN = {
    1: 0,
    4: 27_758,
    5: 71_162,
    6: 1_216,
    7: 150_250,  # five gathers of two columns, one read each
    8: 31_450,
    9: 38_950,
    10: 55_018,
    11: 8_720,
    12: 489,
    14: 1_695,
    15: 3_749,
    19: 89_940,
    20: 27_587,
    "micro.select": 444,
    "micro.project": 2_406,  # both gathered columns are aggregated
    # the scatter hands its rows on unread and each fold reads its own once
    "micro.groupby": 15_420,
}


@pytest.mark.parametrize("number", [*sorted(QUERIES), *MICROS])
def test_a_warm_execute_moves_only_the_rows_it_reads(tpch_store, number, monkeypatch):
    """Beside the pad and sort guards: the cells moved.  And results
    leave the runner as present rows — ``execute()`` pads nothing at the
    output boundary, while the vector ``run`` returns still reads, padded
    on demand, as the interpreter's."""
    store, query = _micro(number) if number in MICROS else (
        tpch_store, build(tpch_store, number))
    taken: list = []
    padded: list = []
    for kind in (Dense, Compact, Run, Lazy):
        monkeypatch.setattr(kind, "take", lambda self, index, found=None, plain=kind.take: (
            taken.append(len(index)), plain(self, index, found))[1])
    monkeypatch.setattr(Compact, "pad", lambda self, plain=Compact.pad: (
        padded.append(self.slots.length), plain(self))[1])
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        prepared = engine.prepare(query)
        prepared.execute()
        taken.clear(), padded.clear()
        prepared.execute()
        assert sum(taken) == ROWS_TAKEN[number], (number, sum(taken))
        inside = PADS_INSIDE.get(number, 0)
        assert len(padded) == inside, (number, padded)
        compiled, vectors = engine.compile(prepared.bind()), engine.vectors()
    result = compiled.run(vectors, collect_trace=False)[0]["result"]
    assert len(padded) == 2 * inside, "run() padded an output"
    reference = Interpreter(vectors).run(compiled.program)["result"]
    assert_vectors_identical(reference, result, (number,))


# -- what a warm run derives ---------------------------------------------------------

#: what the program alone determines, and a warm run therefore reads off
#: the plan (``program.memo["nodes"]``) instead of deriving: keypaths
#: (routes hold them), constants, structural routes, control-vector
#: metadata — and the broadcast NumPy does itself
DERIVATIONS = ("Keypath", "constant", "route", "zip_routes", "derive_runinfo", "broadcast_to")


def spy_on_derivations(monkeypatch) -> dict:
    """Counts of every derivation in :data:`DERIVATIONS` from here on."""
    from repro.compiler import runner as runner_module
    from repro.compiler import rt_fast
    from repro.core.keypath import Keypath

    seen = dict.fromkeys(DERIVATIONS, 0)

    def counting(name, plain):
        def spy(*args, **kwargs):
            seen[name] += 1
            return plain(*args, **kwargs)
        return spy

    monkeypatch.setattr(Keypath, "__init__", counting("Keypath", Keypath.__init__))
    monkeypatch.setattr(Keypath, "_trusted", classmethod(
        lambda cls, parts, plain=Keypath._trusted: counting("Keypath", plain)(parts)))
    monkeypatch.setattr(runner_module, "constant", counting("constant", rt_fast.constant))
    monkeypatch.setattr(runner_module, "route", counting("route", rt_fast.route))
    monkeypatch.setattr(runner_module, "zip_routes", counting("zip_routes", rt_fast.zip_routes))
    monkeypatch.setattr(rt_fast, "derive_runinfo",
                        counting("derive_runinfo", rt_fast.derive_runinfo))
    monkeypatch.setattr(np, "broadcast_to", counting("broadcast_to", np.broadcast_to))
    return seen


def planned_constants(program) -> list:
    """The arrays of the constants the plan of *program* carries."""
    planned = program.memo["nodes"]
    return [column.pad()[0]
            for node in program.order if isinstance(node, ops.Constant)
            for column in planned[id(node)].columns.values()]


@pytest.mark.parametrize("number", [*sorted(QUERIES), *MICROS])
def test_a_warm_run_derives_nothing(tpch_store, number, monkeypatch):
    """Beside the pad, sort and row guards: a plan that has run once
    carries its constants, routes and control-vector metadata, so a warm
    ``run`` constructs no keypath, builds no constant, renames by no
    prefix test, derives no ``RunInfo`` and leaves broadcasting to NumPy
    — and still returns the interpreter's vector.  The constants it
    carries are read-only and the same bytes run after run."""
    store, query = _micro(number) if number in MICROS else (
        tpch_store, build(tpch_store, number))
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        prepared = engine.prepare(query)
        prepared.execute()
        prepared.execute()
        compiled, vectors = engine.compile(prepared.bind()), engine.vectors()
        constants = planned_constants(compiled.program)
        before = [array.tobytes() for array in constants]
        seen = spy_on_derivations(monkeypatch)
        inside: dict = {}
        plain_run = type(compiled).run

        def run(self, *args, **kwargs):
            start = dict(seen)
            try:
                return plain_run(self, *args, **kwargs)
            finally:
                for name in seen:
                    inside[name] = inside.get(name, 0) + seen[name] - start[name]

        monkeypatch.setattr(type(compiled), "run", run)
        prepared.execute()
        assert inside and not any(inside.values()), (number, inside)
        result = compiled.run(vectors, collect_trace=False)[0]["result"]
        prepared.execute()
        assert not any(inside.values()), (number, inside)
        monkeypatch.undo()
    reference = Interpreter(vectors).run(compiled.program)["result"]
    assert_vectors_identical(reference, result, (number,))
    assert constants and planned_constants(compiled.program) == constants  # the same objects
    for array, image in zip(constants, before):
        assert array.tobytes() == image and not array.flags.writeable, number
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def _widened(store, vectors: dict) -> dict:
    """*vectors*, every table with one more column in front of its own."""
    out = dict(vectors)
    for table in store.tables():
        extra = StoredColumn("zz_unread", np.arange(len(table), dtype=np.int64))
        out[table.name] = Table(table.name, [extra, *table.columns.values()]).to_vector()
    return out


@pytest.mark.parametrize("number", [*sorted(QUERIES), *MICROS])
def test_a_plan_runs_over_other_storages(tpch_store, number, monkeypatch):
    """What the plan carries is keyed by what it was derived from: the
    same program object, warm, run over a storage with another schema
    derives its routes again (and once more going back), over the same
    schema on another segment grid and in chunks reuses them — and every
    run returns the interpreter's vectors."""
    store, query = _micro(number) if number in MICROS else (
        tpch_store, build(tpch_store, number))
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        prepared = engine.prepare(query)
        prepared.execute()
        program, vectors = engine.compile(prepared.bind()).program, engine.vectors()
    wide = _widened(store, vectors)
    segmented = {**vectors, **resegment(store, encoding="auto", segment_rows=997).vectors()}
    expected = Interpreter(vectors).run(program)
    seen = spy_on_derivations(monkeypatch)

    def routes_derived(run) -> int:
        start = seen["route"] + seen["zip_routes"]
        assert_bit_identical(expected, run(), (number,))
        return seen["route"] + seen["zip_routes"] - start

    assert routes_derived(lambda: run_program(program, vectors)) == 0
    # (the extra column reaches no output: the same vectors are expected)
    assert routes_derived(lambda: run_program(program, wide)) > 0
    assert routes_derived(lambda: run_program(program, wide)) == 0
    assert routes_derived(lambda: run_program(program, vectors)) > 0
    assert routes_derived(lambda: run_program(program, segmented)) == 0
    extent = max(len(vectors[node.name]) for node in program.loads())
    with ParallelInterpreter(vectors, workers=2, grain=max(1, extent // 4)) as chunked:
        assert routes_derived(lambda: chunked.run(program)) == 0
        assert chunked.last_plan.parallel, number
    assert seen["constant"] == 0, "a constant was built again"


def test_a_route_follows_the_schema_it_runs_over():
    """The case reuse would get wrong: a struct projection over a storage
    that grew an attribute under the projected prefix — a route kept from
    the narrower schema would drop it."""
    b = Builder({"t": StructuredVector(3, {".s.a": np.arange(3), ".k": np.arange(3)}).schema})
    t = b.load("t")
    program = b.build(out=b.zip(t.project(".s", out=".r"), t.project(".k")))
    narrow = {"t": StructuredVector(3, {".s.a": np.arange(3), ".k": np.arange(3) * 2})}
    wider = {"t": StructuredVector(
        3, {".s.a": np.arange(3), ".s.b": np.arange(3.0), ".k": np.arange(3) * 2})}
    for storage in (narrow, wider, narrow, wider):
        got = run_program(program, storage)
        assert_bit_identical(Interpreter(storage).run(program), got, (len(storage["t"].paths),))
    assert [str(path) for path in got["out"].paths] == [".r.a", ".r.b", ".k"]
