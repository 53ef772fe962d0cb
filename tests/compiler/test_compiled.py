"""The compiled-program artifact: plan, pseudo-OpenCL source, tracing, pricing."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_program
from repro.core import Builder, Schema, StructuredVector
from repro.errors import CompilationError

SCHEMAS = {"t": Schema({".g": "int64", ".v": "float64"})}


def make_store(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "t": StructuredVector(
            n,
            {".g": rng.integers(0, 4, n).astype(np.int64), ".v": rng.random(n)},
        )
    }


def fig3_program():
    b = Builder(SCHEMAS)
    t = b.load("t")
    pids = b.divide(b.range(t), b.constant(128), out=".part")
    psum = b.fold_sum(b.zip(t, pids), agg_kp=".v", fold_kp=".part", out=".psum")
    total = b.fold_sum(psum, agg_kp=".psum", out=".total")
    return b.build(total=total)


class TestArtifacts:
    def test_opencl_kernel_per_fragment(self):
        compiled = compile_program(fig3_program())
        text = compiled.source
        assert isinstance(text, str)
        assert text.count("__kernel void") == compiled.kernel_count()
        assert "sequential fragment" in text

    def test_source_shows_kernels_and_seams(self):
        compiled = compile_program(fig3_program())
        parallel, sequential = compiled.plan.fragments
        assert (parallel.intent, sequential.intent) == (128, 0)
        # the partial sums cross from one kernel to the other: a seam
        partial = compiled.program.outputs["total"].source
        assert compiled.plan.fragment_for(partial) is parallel
        assert compiled.plan.is_materialized(partial)
        assert "// fragment seam" in compiled.source

    def test_kernel_count(self):
        assert compile_program(fig3_program()).kernel_count() == 2


class TestExecution:
    def test_correct_result(self):
        store = make_store()
        outputs, trace = compile_program(fig3_program()).run(store)
        total = outputs["total"]
        got = total.attr(".total")[total.present(".total")][0]
        assert got == pytest.approx(store["t"].attr(".v").sum())

    def test_trace_collected(self):
        store = make_store()
        _, trace = compile_program(fig3_program()).run(store)
        assert len(trace) >= 2
        assert trace.summary()["elements"] > 0

    def test_trace_disabled(self):
        store = make_store()
        _, trace = compile_program(fig3_program()).run(store, collect_trace=False)
        assert len(trace) == 0

    def test_price_positive(self):
        store = make_store()
        compiled = compile_program(fig3_program())
        _, report = compiled.simulate(store)
        assert report.seconds > 0
        breakdown = report.breakdown()
        assert set(breakdown) == {"compute", "branch", "memory", "launch"}

    def test_scale_scales_volume_not_results(self):
        store = make_store(n=100_000)
        compiled = compile_program(fig3_program())
        out1, rep1 = compiled.simulate(store, scale=1.0)
        out2, rep2 = compiled.simulate(store, scale=1000.0)
        assert rep2.seconds > rep1.seconds * 5  # launches do not scale
        assert np.array_equal(out1["total"].attr(".total"),
                              out2["total"].attr(".total"))

    def test_gpu_device_selected(self):
        compiled = compile_program(fig3_program(), CompilerOptions(device="gpu"))
        assert compiled.device.name == "gpu"


class TestOptions:
    def test_bad_selection_rejected(self):
        with pytest.raises(CompilationError):
            CompilerOptions(selection="sideways")

    def test_with_replaces(self):
        opts = CompilerOptions().with_(device="gpu")
        assert opts.device == "gpu"
        assert CompilerOptions().device == "cpu-mt"
