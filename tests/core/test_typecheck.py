"""Static schema inference rules."""

import numpy as np
import pytest

from repro.core import Builder, Schema
from repro.core.typecheck import TypeChecker
from repro.errors import TypeCheckError

SCHEMAS = {
    "t": Schema({".i": "int32", ".f": "float32", ".b": "bool"}),
    "u": Schema({".x.a": "int64", ".x.b": "int64", ".y": "float64"}),
}


@pytest.fixture
def b():
    return Builder(SCHEMAS)


class TestScalars:
    def test_load_schema(self, b):
        assert b.load("t").schema == SCHEMAS["t"]

    def test_unknown_load(self, b):
        with pytest.raises(TypeCheckError):
            b.load("nope")  # a node is typed when it is made

    def test_comparison_gives_bool(self, b):
        t = b.load("t")
        out = b.greater(t.project(".i"), b.constant(0), out=".p")
        assert out.schema[".p"] == np.dtype(bool)

    def test_arithmetic_promotes(self, b):
        t = b.load("t")
        out = b.add(t.project(".i"), t.project(".f"), out=".s",
                    left_kp=".i", right_kp=".f")
        assert out.schema[".s"].kind == "f"

    def test_int_division_stays_integral(self, b):
        t = b.load("t")
        out = b.divide(t.project(".i"), b.constant(2), out=".q", left_kp=".i")
        assert out.schema[".q"].kind == "i"

    def test_fold_sum_widens(self, b):
        t = b.load("t")
        out = b.fold_sum(t, agg_kp=".i", out=".s")
        assert out.schema[".s"] == np.dtype(np.int64)

    def test_fold_sum_float_widens_to_f64(self, b):
        t = b.load("t")
        out = b.fold_sum(t, agg_kp=".f", out=".s")
        assert out.schema[".s"] == np.dtype(np.float64)

    def test_fold_max_keeps_dtype(self, b):
        t = b.load("t")
        out = b.fold_max(t, agg_kp=".f", out=".m")
        assert out.schema[".m"] == np.dtype("float32")

    def test_cast(self, b):
        t = b.load("t")
        out = b.cast(t.project(".i"), "float64", out=".c", source_kp=".i")
        assert out.schema[".c"] == np.dtype("float64")

    def test_is_present_gives_bool(self, b):
        t = b.load("t")
        out = b.is_present(t.project(".f"), out=".p", source_kp=".f")
        assert out.schema[".p"] == np.dtype(bool)


class TestStructural:
    def test_zip_merges(self, b):
        t, u = b.load("t"), b.load("u")
        z = b.zip(t, u)
        assert ".i" in z.schema and ".y" in z.schema

    def test_zip_collision_rejected(self, b):
        t = b.load("t")
        with pytest.raises(TypeCheckError):
            _ = b.zip(t, t).schema

    def test_zip_reroots_struct(self, b):
        u = b.load("u")
        z = b.zip(u, u, out1=".left", kp1=".x", out2=".right", kp2=".x")
        assert ".left.a" in z.schema and ".right.b" in z.schema

    def test_project_struct(self, b):
        u = b.load("u")
        p = b.project(u, ".x", out=".s")
        assert set(map(str, p.schema.paths())) == {".s.a", ".s.b"}

    def test_upsert_adds(self, b):
        t = b.load("t")
        added = b.upsert(t, ".n", b.constant(1.5))
        assert ".n" in added.schema and ".i" in added.schema

    def test_upsert_replaces_dtype(self, b):
        t = b.load("t")
        replaced = b.upsert(t, ".i", b.constant(1.5))
        assert replaced.schema[".i"] == np.dtype(np.float64)

    def test_gather_keeps_source_schema(self, b):
        t, u = b.load("t"), b.load("u")
        pos = b.range(t, out=".pos")
        g = b.gather(u, pos, pos_kp=".pos")
        assert g.schema == SCHEMAS["u"]

    def test_fold_select_positions(self, b):
        t = b.load("t")
        sel = b.fold_select(t, sel_kp=".b", out=".pos")
        assert sel.schema[".pos"] == np.dtype(np.int64)

    def test_struct_kp_in_binary_rejected(self, b):
        u = b.load("u")
        with pytest.raises(TypeCheckError):
            _ = b.add(u, u, out=".z", left_kp=".x", right_kp=".y").schema


class TestInferAll:
    def test_check_covers_program(self, b):
        t = b.load("t")
        total = b.fold_sum(t, agg_kp=".f", out=".s")
        program = b.build(total=total)
        schemas = TypeChecker(SCHEMAS).check(program)
        assert len(schemas) == len(program.order)

    def test_shared_dag_is_linear(self):
        """Type checking a heavily shared DAG must not blow up."""
        b = Builder(SCHEMAS)
        v = b.load("t")
        for i in range(200):
            v = b.add(v, v, out=".i", left_kp=".i", right_kp=".i")
        assert v.schema[".i"].kind in "iu"
