"""Schema construction, navigation and combination."""

import numpy as np
import pytest

from repro.core.keypath import kp
from repro.core.schema import Schema, check_dtype
from repro.errors import SchemaError


class TestConstruction:
    def test_basic(self):
        schema = Schema({".a": "int64", ".b": "float32"})
        assert schema[".a"] == np.dtype("int64")
        assert len(schema) == 2

    def test_nested_fields(self):
        schema = Schema({".s.x": "int32", ".s.y": "int32", ".v": "float64"})
        assert schema[".s.x"] == np.dtype("int32")

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Schema([(kp(".a"), "int64"), (kp(".a"), "int32")])

    def test_leaf_struct_conflict_rejected(self):
        with pytest.raises(SchemaError):
            Schema({".a": "int64", ".a.b": "int32"})

    def test_string_dtype_rejected(self):
        with pytest.raises(SchemaError):
            Schema({".a": "U10"})

    def test_object_dtype_rejected(self):
        with pytest.raises(SchemaError):
            check_dtype(np.dtype(object))

    def test_bool_allowed(self):
        assert Schema({".f": "bool"})[".f"] == np.dtype(bool)


class TestNavigation:
    @pytest.fixture
    def nested(self):
        return Schema({".in.val": "f8", ".in.id": "i8", ".out": "f4"})

    def test_subschema(self, nested):
        sub = nested.subschema(".in")
        assert set(map(str, sub.paths())) == {".val", ".id"}

    def test_subschema_of_leaf(self, nested):
        sub = nested.subschema(".out")
        assert list(map(str, sub.paths())) == [".out"]

    def test_subschema_missing(self, nested):
        with pytest.raises(SchemaError):
            nested.subschema(".nope")

    def test_resolve_leaf(self, nested):
        assert nested.resolve(".out") == (kp(".out"),)

    def test_resolve_struct(self, nested):
        assert set(nested.resolve(".in")) == {kp(".in.val"), kp(".in.id")}

    def test_resolve_missing(self, nested):
        with pytest.raises(SchemaError):
            nested.resolve(".gone")

    def test_contains(self, nested):
        assert ".out" in nested
        assert ".in" not in nested  # only leaves are members


class TestCombination:
    def test_project(self):
        schema = Schema({".a": "i8", ".b": "i4", ".c": "f8"})
        assert set(map(str, schema.project([".a", ".c"]).paths())) == {".a", ".c"}

    def test_merge(self):
        merged = Schema({".a": "i8"}).merge(Schema({".b": "f8"}))
        assert len(merged) == 2

    def test_merge_overrides(self):
        merged = Schema({".a": "i8"}).merge(Schema({".a": "f8"}))
        assert merged[".a"] == np.dtype("f8")

    def test_nest(self):
        nested = Schema({".a": "i8"}).nest(".row")
        assert list(map(str, nested.paths())) == [".row.a"]

    def test_nest_subschema_roundtrip(self):
        schema = Schema({".a": "i8", ".b": "f4"})
        assert schema.nest(".s").subschema(".s") == schema


class TestProperties:
    def test_equality_and_hash(self):
        a = Schema({".x": "i8"})
        b = Schema({".x": "int64"})
        assert a == b
        assert hash(a) == hash(b)
