"""The runtime JIT: content-addressed .so caching and degradation.

The cache contract: a source the machine has seen compiles exactly
once, ever — later loads hit the in-memory registry within a process
and the on-disk ``.so`` across processes.  No compiler (or a broken
``$CC``) must never break a query: the native program falls back to the
fused NumPy kernels per call and stays bit-identical.
"""

import os

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, StructuredVector
from repro.interpreter import Interpreter
from repro.native import cache_dir, find_compiler, have_compiler, jit, snapshot
from repro.native.jit import NativeCompileError, load_library, source_key

needs_compiler = pytest.mark.skipif(
    not have_compiler(), reason="no C compiler on this host"
)


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """An empty disk cache and an empty in-memory registry."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(jit, "_loaded", {})
    return tmp_path


def test_cache_dir_honours_the_env_override(fresh_cache):
    assert cache_dir() == fresh_cache


@needs_compiler
def test_compile_once_then_memory_and_disk_hits(fresh_cache):
    src = "void probe_a(void) {}\n"
    key = source_key(src)
    before = snapshot()
    lib = load_library(src)
    mid = snapshot()
    assert mid["kernels_compiled"] == before["kernels_compiled"] + 1
    assert (fresh_cache / f"{key}.so").exists()
    assert (fresh_cache / f"{key}.c").exists()  # source kept for debugging

    # same process, same source: registry hit, same CDLL object
    assert load_library(src) is lib
    assert snapshot()["memory_hits"] == mid["memory_hits"] + 1

    # "new process": empty registry, warm disk — loads without compiling
    jit._loaded.clear()
    load_library(src)
    after = snapshot()
    assert after["so_cache_hits"] == mid["so_cache_hits"] + 1
    assert after["kernels_compiled"] == mid["kernels_compiled"]


@needs_compiler
def test_changed_source_is_a_different_key_and_a_fresh_compile(fresh_cache):
    a, b = "void probe_b(void) {}\n", "void probe_c(void) {}\n"
    assert source_key(a) != source_key(b)
    before = snapshot()
    load_library(a)
    load_library(b)
    after = snapshot()
    assert after["kernels_compiled"] == before["kernels_compiled"] + 2
    assert len(list(fresh_cache.glob("*.so"))) == 2


def test_bogus_cc_means_no_compiler(monkeypatch):
    monkeypatch.setenv("CC", "/definitely/not/a/compiler")
    assert find_compiler() is None and not have_compiler()
    with pytest.raises(NativeCompileError, match="no C compiler"):
        load_library("void probe_d(void) {}\n")


@pytest.mark.skipif(
    not os.access("/bin/false", os.X_OK), reason="needs /bin/false"
)
def test_failing_compiler_raises_with_its_exit_status(fresh_cache, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    assert find_compiler() == ["/bin/false"]
    with pytest.raises(NativeCompileError, match="failed"):
        load_library("void probe_e(void) {}\n")


def _pipeline():
    """A program exercising both a map chain and the fold kernels."""
    rng = np.random.default_rng(17)
    store = {"t": StructuredVector.from_arrays(
        v=rng.integers(-40, 40, 200).astype(np.int64)
    )}
    b = Builder({"t": store["t"].schema})
    t = b.load("t")
    lo = b.greater_equal(t.project(".v"), b.constant(-25), out=".lo")
    hi = b.less(t.project(".v"), b.constant(25), out=".hi")
    keep = b.logical_and(lo, hi, out=".sel")
    ctrl = b.divide(b.range(t), b.constant(16), out=".chunk")
    zipped = b.zip(b.zip(t, keep), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    payload = b.gather(t, positions, pos_kp=".pos")
    total = b.fold_sum(b.zip(payload, ctrl), agg_kp=".v", fold_kp=".chunk",
                       out=".s")
    return b.build(total=total, keep=keep), store


def test_no_compiler_degrades_to_bit_identical_results(tmp_path, monkeypatch):
    """The acceptance fallback: CC pointing nowhere, empty registry, no
    fold library — the native backend still answers, identically, and
    the reasons are counted."""
    import repro.native.exec as native_exec

    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setenv("CC", "/definitely/not/a/compiler")
    monkeypatch.setattr(jit, "_loaded", {})
    monkeypatch.setattr(native_exec, "_fold_lib", None)

    program, store = _pipeline()
    expected = Interpreter(store).run(program)
    before = snapshot()
    got, _ = compile_program(program, CompilerOptions(native=True)).run(
        store, collect_trace=False
    )
    after = snapshot()

    assert after["kernels_compiled"] == before["kernels_compiled"]
    assert after["fallbacks"] > before["fallbacks"]
    assert after["fallback_reasons"].get("no-compiler", 0) > \
        before["fallback_reasons"].get("no-compiler", 0)
    assert not list(tmp_path.iterdir())  # nothing ever reached the cache
    for name, exp_vec in expected.items():
        got_vec = got[name]
        for path in exp_vec.paths:
            em = exp_vec.present(path)
            assert (em == got_vec.present(path)).all(), (name, str(path))
            assert np.array_equal(exp_vec.attr(path)[em],
                                  got_vec.attr(path)[em]), (name, str(path))


@needs_compiler
def test_warm_program_compiles_nothing(fresh_cache):
    """Second and later runs of the same program: zero compiles, zero
    cache-dir churn — the steady-state serving contract at unit scale."""
    import repro.native.exec as native_exec

    program, store = _pipeline()
    compiled = compile_program(program, CompilerOptions(native=True))
    # fold library may be memoized from earlier tests against the real
    # cache; force it through this one so counters line up
    fold_lib_before = native_exec._fold_lib
    native_exec._fold_lib = None
    try:
        compiled.run(store, collect_trace=False)  # cold: compiles
        before = snapshot()
        sos = sorted(fresh_cache.glob("*.so"))
        for _ in range(3):
            compiled.run(store, collect_trace=False)
        after = snapshot()
        assert after["kernels_compiled"] == before["kernels_compiled"]
        assert after["so_cache_hits"] == before["so_cache_hits"]
        assert after["chain_calls"] >= before["chain_calls"] + 3
        assert sorted(fresh_cache.glob("*.so")) == sos
    finally:
        native_exec._fold_lib = fold_lib_before


@needs_compiler
def test_one_present_row_is_not_a_new_signature(fresh_cache):
    """A chain over compact inputs runs on the k present rows, and k is
    data: a selection with a single hit must reuse the kernel compiled
    for many, not compile a "scalar" one in the request path."""
    b = Builder({"t": StructuredVector.from_arrays(v=np.zeros(0, dtype=np.int64)).schema})
    t = b.load("t")
    keep = b.greater(t.project(".v"), b.constant(0), out=".sel")
    positions = b.fold_select(b.zip(t, keep), sel_kp=".sel", out=".pos")
    rows = b.gather(t, positions, pos_kp=".pos")
    doubled = b.multiply(rows, b.constant(2), out=".d", left_kp=".v")
    shifted = b.add(doubled, rows, out=".e", left_kp=".d", right_kp=".v")
    program = b.build(out=shifted, total=b.fold_sum(shifted, agg_kp=".e", out=".s"))
    compiled = compile_program(program, CompilerOptions(native=True))

    def run(values):
        store = {"t": StructuredVector.from_arrays(v=np.asarray(values, dtype=np.int64))}
        got, _ = compiled.run(store, collect_trace=False)
        want = Interpreter(store).run(program)
        for name, vector in want.items():
            for path in vector.paths:
                present = vector.present(path)
                assert np.array_equal(present, got[name].present(path))
                assert np.array_equal(vector.attr(path)[present],
                                      got[name].attr(path)[present])

    run([3, 0, 5, 0, 7, 9, 0, 2])  # cold: compiles the chain for k rows
    before = snapshot()
    assert before["chain_calls"] > 0
    run([0, 0, 0, 4, 0, 0, 0, 0])  # k == 1
    run([0] * 8)                   # k == 0
    after = snapshot()
    assert after["chain_calls"] >= before["chain_calls"] + 2
    assert after["kernels_compiled"] == before["kernels_compiled"]
    assert after["fallbacks"] == before["fallbacks"]
