"""Compilation details: the fragment plan, its pseudo-OpenCL rendering, error paths."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_program, emit_opencl, opencl_emit
from repro.compiler.fragments import FULL, FragmentPlan
from repro.core import Builder, Schema, StructuredVector, ops
from repro.core.keypath import Keypath

SCHEMAS = {"t": Schema({".g": "int64", ".v": "float64"})}


def store(n=512, seed=0):
    rng = np.random.default_rng(seed)
    return {"t": StructuredVector(
        n, {".g": rng.integers(0, 4, n).astype(np.int64), ".v": rng.random(n)}
    )}


def full_width_program():
    """Touches every operator class the code generator must emit."""
    b = Builder(SCHEMAS)
    t = b.load("t")
    pred = b.greater(t.project(".v"), b.constant(0.5), out=".sel")
    neg = b.logical_not(pred, out=".nsel")
    ctrl = b.divide(b.range(t), b.constant(64), out=".chunk")
    zipped = b.zip(b.zip(b.zip(t, pred), neg), ctrl)
    positions = b.fold_select(zipped, sel_kp=".sel", fold_kp=".chunk", out=".pos")
    gathered = b.gather(t, positions, pos_kp=".pos")
    upserted = b.upsert(gathered, ".w", b.cast(gathered, "int64", out=".w",
                                               source_kp=".v"), ".w")
    pivots = b.range(4, out=".pv")
    ppos = b.partition(b.project(upserted, ".g"), pivots, out=".pp")
    scattered = b.scatter(upserted, ppos, pos_kp=".pp")
    gsum = b.fold_sum(scattered, agg_kp=".w", fold_kp=".g", out=".s")
    gcnt = b.fold_count(scattered, counted_kp=".w", fold_kp=".g", out=".c")
    scan = b.fold_scan(zipped, s_kp=".v", fold_kp=".chunk", out=".scan")
    broken = b.break_(scan)
    crossed = b.cross(pivots, pivots)
    persisted = b.persist("saved", gsum)
    return b.build(s=persisted, c=gcnt, scan=broken, x=crossed)


class TestCodegen:
    def test_all_ops_emit_and_run(self):
        compiled = compile_program(full_width_program())
        outputs, trace = compiled.run(store())
        assert set(outputs) == {"s", "c", "scan", "x", "saved"}
        assert len(trace) >= 2

    def test_source_references_all_outputs(self):
        """Every output is materialized by the plan, and its seam write (or
        persist) is in the rendered kernels."""
        compiled = compile_program(full_width_program())
        assert set(compiled.program.outputs) == {"s", "c", "scan", "x"}
        names = {id(node): f"v{i}" for i, node in enumerate(compiled.program.order)}
        for node in compiled.program.outputs.values():
            assert compiled.plan.is_materialized(node)
            assert f"out_{names[id(node)]}[i]" in compiled.source
        assert 'persist("saved"' in compiled.source

    def test_virtual_nodes_not_seamed(self):
        compiled = compile_program(full_width_program())
        # Range/Constant nodes are metadata: in no kernel, never at a seam
        virtual = [node for node in compiled.program.order
                   if isinstance(node, (ops.Range, ops.Constant))]
        assert virtual
        for node in virtual:
            assert compiled.plan.fragment_for(node) is None
            assert not compiled.plan.is_materialized(node)

    def test_runs_on_every_device(self):
        program = full_width_program()
        reference = None
        for device in ("cpu-1t", "cpu-mt", "gpu"):
            outputs, _ = compile_program(
                program, CompilerOptions(device=device)
            ).run(store())
            values = outputs["s"].attr(".s")[outputs["s"].present(".s")].tolist()
            if reference is None:
                reference = values
            assert values == reference


class TestOpenCLEmission:
    def test_every_fragment_is_a_kernel(self):
        compiled = compile_program(full_width_program())
        text = compiled.source
        assert text.count("__kernel void") == compiled.kernel_count()

    def test_op_idioms_present(self):
        text = compile_program(full_width_program()).source
        assert "foldSelect" in text
        assert "get_global_id(0)" in text
        assert "// scatter" in text
        assert "persist(" in text

    def test_map_fragment_golden(self):
        """Operator spellings, a cast, a negation and the seam, pinned."""
        b = Builder({"t": StructuredVector.from_arrays(v=np.arange(8)).schema})
        t = b.load("t")
        lo = b.greater_equal(t.project(".v"), b.constant(2), out=".lo")
        hi = b.less(t.project(".v"), b.constant(6), out=".hi")
        both = b.logical_and(lo, hi, out=".sel")
        negated = b.negate(b.cast(both, "int64", out=".c"), out=".n")
        assert compile_program(b.build(n=negated)).source == (
            "// pseudo-OpenCL emitted by repro.compiler.opencl_emit\n"
            "\n"
            "__kernel void fragment_0(__global const void* t, const size_t n) {\n"
            "  size_t i = get_global_id(0);\n"
            "  auto v3 = v1.v >= 2.val;\n"
            "  auto v5 = v1.v < 6.val;\n"
            "  auto v6 = v3.lo && v5.hi;\n"
            "  auto v7 = (int64)v6.sel;\n"
            "  auto v8 = -v7.c;\n"
            "  out_v8[i] = v8;  // fragment seam\n"
            "}"
        )

    def test_golden_operator_tables(self):
        """The C spellings of every binary and unary operator, pinned."""
        assert opencl_emit._BINARY_C == {
            "Add": "+", "Subtract": "-", "Multiply": "*", "Divide": "/",
            "Modulo": "%", "BitShift": "<<", "LogicalAnd": "&&",
            "LogicalOr": "||", "Greater": ">", "GreaterEqual": ">=",
            "Less": "<", "LessEqual": "<=", "Equals": "==",
            "NotEquals": "!=",
        }
        assert opencl_emit._UNARY_C == {"LogicalNot": "!", "Negate": "-"}

    def test_keypath_mangling(self):
        assert opencl_emit._c_name(None) == "val"
        assert opencl_emit._c_name(Keypath.parse(".v")) == "v"
        assert opencl_emit._c_name(Keypath.parse(".a.b")) == "a_b"

    def test_full_intent_loop_header_is_one_sequential_work_item(self):
        lines, indent, needs_close = opencl_emit.loop_header(FULL)
        assert needs_close and indent == "    "
        assert lines[1] == "  if (get_global_id(0) != 0) return;"
        assert lines[2] == "  for (size_t i = 0; i < n; ++i) {"

    def test_partitioned_and_parallel_loop_headers(self):
        lines, indent, needs_close = opencl_emit.loop_header(64)
        assert needs_close and indent == "    "
        assert lines[1:] == [
            "  size_t run = get_global_id(0) * 64;",
            "  for (size_t i = run; i < run + 64; ++i) {",
        ]
        assert opencl_emit.loop_header(1) == (
            ["  size_t i = get_global_id(0);"], "  ", False
        )

    def test_emit_standalone(self):
        plan = FragmentPlan(full_width_program(), CompilerOptions())
        assert emit_opencl(plan).startswith("// pseudo-OpenCL")

    def test_virtual_scatter_annotated(self):
        b = Builder(SCHEMAS)
        t = b.load("t")
        pivots = b.range(4, out=".pv")
        pos = b.partition(b.project(t, ".g"), pivots, out=".pos")
        scattered = b.scatter(t, pos)
        gsum = b.fold_sum(scattered, agg_kp=".v", fold_kp=".g", out=".s")
        compiled = compile_program(b.build(s=gsum))
        assert "(virtual)" in compiled.source


class TestRuntimeEdgeCases:
    def test_missing_load_raises(self):
        from repro.errors import ExecutionError
        b = Builder(SCHEMAS)
        program = b.build(out=b.load("t"))
        with pytest.raises(ExecutionError):
            compile_program(program).run({})

    def test_empty_input_vector(self):
        empty = {"t": StructuredVector(
            0, {".g": np.zeros(0, dtype=np.int64), ".v": np.zeros(0)}
        )}
        b = Builder(SCHEMAS)
        t = b.load("t")
        total = b.fold_sum(t, agg_kp=".v", out=".s")
        outputs, _ = compile_program(b.build(s=total)).run(empty)
        assert len(outputs["s"]) == 0

    def test_single_row(self):
        one = {"t": StructuredVector(
            1, {".g": np.zeros(1, dtype=np.int64), ".v": np.ones(1)}
        )}
        b = Builder(SCHEMAS)
        t = b.load("t")
        total = b.fold_sum(t, agg_kp=".v", out=".s")
        outputs, _ = compile_program(b.build(s=total)).run(one)
        assert outputs["s"].attr(".s")[0] == 1.0

    def test_gather_footprint_measured(self):
        """The trace carries a measured footprint for random gathers."""
        rng = np.random.default_rng(1)
        data = {
            "big": StructuredVector.single(".x", rng.random(1 << 16)),
            "idx": StructuredVector.single(
                ".pos", rng.integers(0, 1 << 16, 4096).astype(np.int64)
            ),
        }
        b = Builder({k: v.schema for k, v in data.items()})
        g = b.gather(b.load("big"), b.load("idx"), pos_kp=".pos")
        total = b.fold_sum(g, agg_kp=".x", out=".s")
        _, trace = compile_program(b.build(s=total)).run(data)
        gathers = [e for e in trace.events() if e.label == "gather.rand"]
        assert gathers and gathers[0].random_read_footprint > 1 << 15

    def test_hot_line_detected(self):
        """All-zero positions (predicated lookups) are seen as hot."""
        data = {
            "big": StructuredVector.single(".x", np.random.default_rng(0).random(1 << 16)),
            "idx": StructuredVector.single(".pos", np.zeros(4096, dtype=np.int64)),
        }
        b = Builder({k: v.schema for k, v in data.items()})
        g = b.gather(b.load("big"), b.load("idx"), pos_kp=".pos")
        total = b.fold_sum(g, agg_kp=".x", out=".s")
        _, trace = compile_program(b.build(s=total)).run(data)
        rand = [e for e in trace.events() if e.label == "gather.rand"]
        # single hot line: either classified sequential or zero cold reads
        assert not rand or rand[0].random_reads == 0
