"""Builder conveniences and program printers."""

import pytest

from repro.core import Builder, Schema
from repro.core.printer import summarize, to_ssa
from repro.errors import ProgramError

SCHEMAS = {"t": Schema({".v": "int64"}), "two": Schema({".a": "i8", ".b": "i8"})}


def figure3_program():
    """The paper's Figure 3 in builder form."""
    b = Builder(SCHEMAS)
    inp = b.load("t")
    ids = b.range(inp)
    pids = b.divide(ids, b.constant(1024), out=".partition")
    zipped = b.zip(inp, pids)
    psum = b.fold_sum(zipped, agg_kp=".v", fold_kp=".partition", out=".psum")
    total = b.fold_sum(psum, agg_kp=".psum", out=".total")
    return b.build(total=total)


class TestBuilderDefaults:
    def test_single_attr_keypath_inferred(self):
        b = Builder(SCHEMAS)
        t = b.load("t")
        out = b.add(t, t, out=".x")  # .v picked automatically on both sides
        assert ".x" in out.schema

    def test_ambiguous_keypath_rejected(self):
        b = Builder(SCHEMAS)
        two = b.load("two")
        with pytest.raises(ProgramError):
            b.add(two, two, out=".x")

    def test_literal_coercion(self):
        b = Builder(SCHEMAS)
        t = b.load("t")
        out = b.add(t, 5, out=".x")
        assert ".x" in out.schema

    def test_operator_sugar(self):
        b = Builder(SCHEMAS)
        t = b.load("t")
        v = t.project(".v")
        assert ".val" in (v + v).schema
        assert (v > v).schema[".val"].kind == "b"

    def test_constant_dtype_inference(self):
        b = Builder(SCHEMAS)
        assert b.constant(True).schema[".val"].kind == "b"
        assert b.constant(3).schema[".val"].kind == "i"
        assert b.constant(3.5).schema[".val"].kind == "f"

    def test_constant_bad_literal(self):
        with pytest.raises(ProgramError):
            Builder(SCHEMAS).constant("nope")

    def test_build_requires_outputs(self):
        with pytest.raises(ProgramError):
            Builder(SCHEMAS).build()


class TestPrinters:
    def test_ssa_structure(self):
        text = to_ssa(figure3_program())
        assert "Load(name=t)" in text
        assert "FoldAggregate" in text
        assert text.strip().endswith("return total=v5") or "return total=" in text

    def test_ssa_one_line_per_node(self):
        program = figure3_program()
        text = to_ssa(program)
        assert len(text.splitlines()) == len(program.order) + 1

    def test_summarize(self):
        text = summarize(figure3_program())
        assert "fold: 2" in text
        assert "pipeline breakers" in text
