"""Structured Vector behaviour: ε masks, zip/project/take, runinfo."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import StructuredVector
from repro.core.controlvector import RunInfo
from repro.errors import SchemaError, VoodooError


@pytest.fixture
def vec():
    return StructuredVector(
        4,
        {".a": np.array([1, 2, 3, 4], dtype=np.int64),
         ".b": np.array([1.0, 2.0, 3.0, 4.0])},
        {".b": np.array([True, False, True, True])},
    )


class TestConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            StructuredVector(3, {".a": np.zeros(4, dtype=np.int64)})

    def test_negative_length_rejected(self):
        with pytest.raises(VoodooError):
            StructuredVector(-1, {})

    def test_bad_mask_shape_rejected(self):
        with pytest.raises(SchemaError):
            StructuredVector(
                2, {".a": np.zeros(2, dtype=np.int64)},
                {".a": np.array([True])},
            )

    def test_all_true_mask_dropped(self, vec):
        assert vec.is_dense(".a")
        dense = StructuredVector(
            2, {".x": np.zeros(2, dtype=np.int64)}, {".x": np.ones(2, dtype=bool)}
        )
        assert dense.is_dense(".x")

    def test_from_arrays(self):
        v = StructuredVector.from_arrays(x=np.arange(3), y=np.zeros(3))
        assert set(map(str, v.paths)) == {".x", ".y"}

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(SchemaError):
            StructuredVector.from_arrays(x=np.arange(3), y=np.zeros(2))

class TestAccess:
    def test_attr_and_present(self, vec):
        assert vec.attr(".a").tolist() == [1, 2, 3, 4]
        assert vec.present(".b").tolist() == [True, False, True, True]

    def test_missing_attr(self, vec):
        with pytest.raises(SchemaError):
            vec.attr(".zz")

    def test_schema(self, vec):
        assert vec.schema[".a"] == np.dtype(np.int64)

class TestStructuralOps:
    def test_project_leaf(self, vec):
        p = vec.project(".a", ".x")
        assert list(map(str, p.paths)) == [".x"]
        assert p.attr(".x").tolist() == [1, 2, 3, 4]

    def test_project_preserves_mask(self, vec):
        p = vec.project(".b", ".y")
        assert p.present(".y").tolist() == [True, False, True, True]

    def test_with_attr_replaces(self, vec):
        v2 = vec.with_attr(".a", np.array([9, 9, 9, 9], dtype=np.int64))
        assert v2.attr(".a").tolist() == [9, 9, 9, 9]
        assert vec.attr(".a").tolist() == [1, 2, 3, 4]  # original untouched

    def test_zip_truncates_to_min(self, vec):
        other = StructuredVector.single(".c", np.arange(2))
        z = vec.zip(other)
        assert len(z) == 2

    def test_zip_duplicate_attr_rejected(self, vec):
        with pytest.raises(SchemaError):
            vec.zip(vec)

class TestRunInfo:
    def test_runinfo_attached(self):
        info = RunInfo(0, Fraction(1))
        v = StructuredVector(
            3, {".id": np.arange(3, dtype=np.int64)}, runinfo={".id": info}
        )
        assert v.runinfo_for(".id") == info
        assert v.runinfo_for(".id") is not None

    def test_runinfo_unknown_attr_rejected(self):
        with pytest.raises(SchemaError):
            StructuredVector(
                2, {".a": np.zeros(2, dtype=np.int64)},
                runinfo={".b": RunInfo(0, Fraction(1))},
            )
