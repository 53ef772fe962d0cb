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

from repro.compiler import CompilerOptions, compile_program, kernels
from repro.core import Builder, StructuredVector
from repro.interpreter import Interpreter
from repro.native import cache_dir, find_compiler, have_compiler, jit, snapshot
from repro.native import runner as native_runner
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


def test_the_library_is_the_float_sum_alone():
    """One fixed source: a kernel per float width, nothing per program."""
    source = native_runner.library_source()
    assert source.count("void ") == 2
    assert "void fsum_f4(const float* vals" in source
    assert "void fsum_f8(const double* vals" in source


def test_the_kernel_declines_what_it_does_not_serve():
    """Integer sums, min/max and an empty segment list go to NumPy: the
    kernel answers None before it is ever loaded."""
    starts = np.asarray([0, 2], dtype=np.int64)
    floats = np.arange(4, dtype=np.float64)
    assert native_runner.native_fold_segments("sum", np.arange(4), starts) is None
    assert native_runner.native_fold_segments("max", floats, starts) is None
    assert native_runner.native_fold_segments("min", floats, starts) is None
    assert native_runner.native_fold_segments(
        "sum", floats, np.zeros(0, dtype=np.int64)
    ) is None


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


# -- a bad file at the cache path ----------------------------------------------

GARBAGE = b"not an elf"


def library_path(cache):
    return cache / f"{source_key(native_runner.library_source())}.so"


def sum_twice(monkeypatch):
    """The float sum of a cold process, called twice: (result, the NumPy
    kernel's result, counters before, counters after)."""
    monkeypatch.setattr(native_runner, "_kernels", None)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(1_000) * 10.0 ** rng.integers(-8, 8, 1_000)
    starts = np.asarray([0, 10, 500, 999], dtype=np.int64)
    expected = kernels.fold_aggregate_segments("sum", values, starts)
    before = snapshot()
    got = native_runner.fold_aggregate_segments("sum", values, starts)
    again = native_runner.fold_aggregate_segments("sum", values, starts)
    assert again.tobytes() == got.tobytes()
    return got, expected, before, snapshot()


def counted(before, after, key):
    return after[key] - before[key]


def reason(before, after, name):
    return after["fallback_reasons"].get(name, 0) - before["fallback_reasons"].get(name, 0)


def assert_rebuilt(path, before, after):
    assert counted(before, after, "kernels_compiled") == 1
    assert counted(before, after, "fallbacks") == 0
    assert counted(before, after, "fold_calls") == 2
    payload = path.read_bytes()
    assert payload.startswith(b"\x7fELF") and b"fsum_f4" in payload and b"fsum_f8" in payload


def test_garbage_at_the_cache_path_is_rebuilt_in_place(fresh_cache, monkeypatch):
    path = library_path(fresh_cache)
    path.write_bytes(GARBAGE)
    got, expected, before, after = sum_twice(monkeypatch)
    assert got.tobytes() == expected.tobytes()
    if have_compiler():
        assert_rebuilt(path, before, after)
    else:
        assert counted(before, after, "fallbacks") == 1
        assert reason(before, after, "bad-cache") == 1


@needs_compiler
def test_a_foreign_library_at_the_cache_path_is_rebuilt_in_place(fresh_cache, monkeypatch):
    """A loadable ``.so`` without the kernel's symbols is not the kernel."""
    foreign = fresh_cache / "foreign.so"
    jit._compile("int other(void){return 1;}\n", foreign)
    path = library_path(fresh_cache)
    os.replace(foreign, path)
    got, expected, before, after = sum_twice(monkeypatch)
    assert got.tobytes() == expected.tobytes()
    assert_rebuilt(path, before, after)


@pytest.mark.skipif(
    not os.access("/bin/false", os.X_OK), reason="needs /bin/false"
)
def test_a_corrupt_cache_that_cannot_be_rebuilt_falls_back_once(fresh_cache, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    path = library_path(fresh_cache)
    path.write_bytes(GARBAGE)
    got, expected, before, after = sum_twice(monkeypatch)
    assert got.tobytes() == expected.tobytes()
    assert counted(before, after, "kernels_compiled") == 0
    assert counted(before, after, "fold_calls") == 0
    assert counted(before, after, "fallbacks") == 1
    assert reason(before, after, "bad-cache") == 1
    assert path.read_bytes() == GARBAGE  # the failed rebuild replaced nothing
    assert list(fresh_cache.glob("*.so")) == [path]


def _pipeline():
    """A program whose per-chunk float sums are the C kernel's work."""
    rng = np.random.default_rng(17)
    store = {"t": StructuredVector.from_arrays(
        v=rng.integers(-40, 40, 200).astype(np.float64)
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
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setenv("CC", "/definitely/not/a/compiler")
    monkeypatch.setattr(jit, "_loaded", {})
    monkeypatch.setattr(native_runner, "_kernels", None)

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
def test_warm_program_compiles_nothing(fresh_cache, monkeypatch):
    """Second and later runs of the same program: zero compiles, zero
    cache-dir churn — the steady-state serving contract at unit scale."""
    # the library may be loaded from earlier tests against the real cache;
    # force it through this one so counters line up
    monkeypatch.setattr(native_runner, "_kernels", None)
    program, store = _pipeline()
    compiled = compile_program(program, CompilerOptions(native=True))
    compiled.run(store, collect_trace=False)  # cold: compiles
    before = snapshot()
    sos = sorted(fresh_cache.glob("*.so"))
    assert len(sos) == 1  # one library, whatever the program
    for _ in range(3):
        compiled.run(store, collect_trace=False)
    after = snapshot()
    assert after["kernels_compiled"] == before["kernels_compiled"]
    assert after["so_cache_hits"] == before["so_cache_hits"]
    assert after["fold_calls"] >= before["fold_calls"] + 3
    assert sorted(fresh_cache.glob("*.so")) == sos


@needs_compiler
def test_data_never_compiles_a_kernel(fresh_cache, monkeypatch):
    """The library is one fixed source: a new program, a single present
    row or none at all finds the kernel already loaded."""
    monkeypatch.setattr(native_runner, "_kernels", None)
    b = Builder({"t": StructuredVector.from_arrays(v=np.zeros(0)).schema})
    t = b.load("t")
    keep = b.greater(t.project(".v"), b.constant(0.0, dtype="float64"), out=".sel")
    positions = b.fold_select(b.zip(t, keep), sel_kp=".sel", out=".pos")
    rows = b.gather(t, positions, pos_kp=".pos")
    doubled = b.multiply(rows, b.constant(2.0, dtype="float64"), out=".d", left_kp=".v")
    program = b.build(out=doubled, total=b.fold_sum(doubled, agg_kp=".d", out=".s"))
    compiled = compile_program(program, CompilerOptions(native=True))

    def run(values):
        store = {"t": StructuredVector.from_arrays(v=np.asarray(values, dtype=np.float64))}
        got, _ = compiled.run(store, collect_trace=False)
        want = Interpreter(store).run(program)
        for name, vector in want.items():
            for path in vector.paths:
                present = vector.present(path)
                assert np.array_equal(present, got[name].present(path))
                assert np.array_equal(vector.attr(path)[present],
                                      got[name].attr(path)[present])

    run([3, 0, 5, 0, 7, 9, 0, 2])  # cold: compiles the library
    before = snapshot()
    assert before["fold_calls"] > 0
    run([0, 0, 0, 4, 0, 0, 0, 0])  # one present row
    run([0] * 8)                   # none
    after = snapshot()
    assert after["fold_calls"] >= before["fold_calls"] + 1
    assert after["kernels_compiled"] == before["kernels_compiled"]
    assert after["fallbacks"] == before["fallbacks"]
