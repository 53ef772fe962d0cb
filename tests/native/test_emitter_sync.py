"""The two C-flavoured emitters lower through one shared module.

:mod:`repro.compiler.opencl_emit` (the inspection rendering) and
:mod:`repro.native.emit` (the executed native tier) both render the
fragment/chain structure via :mod:`repro.compiler.clower` — operator
spellings, the dtype→C-type map, literals and loop headers.  These
tests pin the shared tables to golden values and verify each emitter
really renders through them, so the two cannot drift apart.
"""

import numpy as np

from repro.compiler import clower, compile_program, opencl_emit
from repro.core import Builder, StructuredVector
from repro.native import emit as native_emit
from repro.native import plan_native_chains
from repro.native.exec import run_chain_python


def _predicate_program():
    """v >= 2 && v < 6 — a two-step native chain over one column."""
    b = Builder({"t": StructuredVector.from_arrays(v=np.arange(8)).schema})
    t = b.load("t")
    lo = b.greater_equal(t.project(".v"), b.constant(2), out=".lo")
    hi = b.less(t.project(".v"), b.constant(6), out=".hi")
    both = b.logical_and(lo, hi, out=".sel")
    return b.build(sel=both)


def _chain_c_source(program):
    (chain,) = plan_native_chains(program)
    dtypes = [np.dtype(np.int64)] * len(chain.inputs)
    probe = [(np.zeros(0, dtype=np.int64), None) for _ in chain.inputs]
    step_dtypes = [v.dtype for v, _ in run_chain_python(chain, probe)]
    return native_emit.chain_source(
        chain, dtypes, [False] * len(chain.inputs), step_dtypes
    )


class TestSharedLowering:
    def test_emitters_bind_the_same_clower_objects(self):
        """Both emitters import the tables — not copies of them."""
        assert opencl_emit._BINARY_C is clower.BINARY_C
        assert opencl_emit.loop_header is clower.loop_header
        assert opencl_emit.unary_prefix is clower.unary_prefix
        assert opencl_emit._c_name is clower.c_name
        assert native_emit.BINARY_C is clower.BINARY_C
        assert native_emit.C_LOOP is clower.C_LOOP
        assert native_emit.c_literal is clower.c_literal
        assert native_emit.ctype_of is clower.ctype_of

    def test_golden_operator_tables(self):
        """The single source of truth, pinned: editing clower is a
        conscious decision for *both* emitters."""
        assert clower.BINARY_C == {
            "Add": "+", "Subtract": "-", "Multiply": "*", "Divide": "/",
            "Modulo": "%", "BitShift": "<<", "LogicalAnd": "&&",
            "LogicalOr": "||", "Greater": ">", "GreaterEqual": ">=",
            "Less": "<", "LessEqual": "<=", "Equals": "==",
            "NotEquals": "!=",
        }
        assert clower.UNARY_C == {"LogicalNot": "!", "Negate": "-"}
        assert clower.C_TYPES == {
            "b1": "uint8_t",
            "i1": "int8_t", "i2": "int16_t", "i4": "int32_t",
            "i8": "int64_t",
            "u1": "uint8_t", "u2": "uint16_t", "u4": "uint32_t",
            "u8": "uint64_t",
            "f4": "float", "f8": "double",
        }
        assert clower.C_LOOP == "for (size_t i = 0; i < n; ++i) {"

    def test_golden_literals(self):
        """Bit-exact literal rendering both emitters rely on."""
        assert clower.c_literal(np.int64, 7) == "(int64_t)(7LL)"
        assert (
            clower.c_literal(np.int64, -(2**63))
            == "(int64_t)(-9223372036854775807LL - 1)"
        )
        assert clower.c_literal(np.uint32, 7) == "(uint32_t)(7ULL)"
        assert clower.c_literal(np.bool_, True) == "1"
        # floats round-trip through hex-float spelling, never repr
        assert (0.1).hex() in clower.c_literal(np.float64, 0.1)
        assert "NAN" in clower.c_literal(np.float64, float("nan"))
        assert "INFINITY" in clower.c_literal(np.float32, float("-inf"))

    def test_unary_prefix_covers_cast(self):
        assert clower.unary_prefix("Cast", "int64") == "(int64)"
        assert clower.unary_prefix("Negate") == clower.UNARY_C["Negate"]


class TestRenderedOutput:
    def test_native_chain_source_golden(self):
        """The full specialized kernel for the predicate chain, pinned."""
        assert _chain_c_source(_predicate_program()) == (
            "#include <stdint.h>\n"
            "#include <stddef.h>\n"
            "#include <math.h>\n"
            "\n"
            "// native chain kernel emitted by repro.native.emit\n"
            "void voodoo_chain(const int64_t* in0, const int64_t* in1, "
            "uint8_t* out1, size_t n) {\n"
            "  for (size_t i = 0; i < n; ++i) {\n"
            "    uint8_t v0 = ((int64_t)(in0[i]) < (int64_t)((int64_t)(6LL)));\n"
            "    uint8_t v1 = (((in1[i]) != 0) && ((v0) != 0));\n"
            "    out1[i] = v1;\n"
            "  }\n"
            "}\n"
        )

    def test_both_emitters_use_the_shared_spellings(self):
        """The same program renders the same operator spellings on both
        sides — resolved through clower.BINARY_C, not retyped."""
        program = _predicate_program()
        opencl = compile_program(program).source
        native = _chain_c_source(program)
        for fn in ("GreaterEqual", "Less", "LogicalAnd"):
            assert f" {clower.BINARY_C[fn]} " in opencl, fn
        for fn in ("Less", "LogicalAnd"):  # GreaterEqual is a chain input
            assert f" {clower.BINARY_C[fn]} " in native, fn
        assert clower.C_LOOP in native

    def test_full_intent_loop_header_embeds_the_shared_loop(self):
        lines, indent, needs_close = clower.loop_header(clower.FULL)
        assert needs_close and indent == "    "
        assert any(clower.C_LOOP in line for line in lines)

    def test_fold_library_types_come_from_the_shared_map(self):
        """Every fold kernel's value type is a clower.C_TYPES spelling."""
        source = native_emit.fold_library_source()
        for code in native_emit.FSUM_CODES:
            assert f"void fsum_{code}(const {clower.C_TYPES[code]}*" in source
        # the kernels that wrote ε padding went with it, and so did the
        # scalar loops NumPy's vectorized flatnonzero/reduceat beat
        for gone in ("fgath_", "fcnt", "fsel_", "fmax_", "fmin_", "fsumi_"):
            assert gone not in source
