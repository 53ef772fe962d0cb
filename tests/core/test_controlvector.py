"""Control-vector metadata: the paper's v[i] = (from + ⌊i·step⌋) mod cap."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.controlvector import IDENTITY, RunInfo, constant_run
from repro.errors import ControlVectorError


class TestAlgebra:
    def test_divide_divides_step(self):
        info = IDENTITY.divide(1024)
        assert info.step == Fraction(1, 1024)

    def test_modulo_sets_cap(self):
        info = IDENTITY.modulo(4)
        assert info.cap == 4

    def test_chained_divisions_exact(self):
        info = IDENTITY.divide(1024).divide(4)
        assert info.step == Fraction(1, 4096)

    def test_multiply(self):
        assert IDENTITY.multiply(3).step == Fraction(3)

    def test_multiply_fractional_step_rejected(self):
        # k*floor(i/d) != floor(i*k/d): no (start, step, cap) form keeps
        # the runs of a fractional-step vector after multiplication
        with pytest.raises(ControlVectorError):
            IDENTITY.divide(6).multiply(3)

    def test_add(self):
        assert IDENTITY.add(5).start == 5

    def test_divide_nonpositive_rejected(self):
        with pytest.raises(ControlVectorError):
            IDENTITY.divide(0)

    def test_modulo_nonpositive_rejected(self):
        with pytest.raises(ControlVectorError):
            IDENTITY.modulo(-1)

    def test_negative_step_rejected(self):
        with pytest.raises(ControlVectorError):
            RunInfo(0, Fraction(-1))


class TestMaterialization:
    def test_identity(self):
        assert IDENTITY.materialize(4).tolist() == [0, 1, 2, 3]

    def test_divided(self):
        info = IDENTITY.divide(2)
        assert info.materialize(5).tolist() == [0, 0, 1, 1, 2]

    def test_modulo(self):
        info = IDENTITY.modulo(3)
        assert info.materialize(5).tolist() == [0, 1, 2, 0, 1]

    def test_constant(self):
        assert constant_run(7).materialize(3).tolist() == [7, 7, 7]

    def test_value_matches_materialize(self):
        info = IDENTITY.divide(3).modulo(2)
        values = info.materialize(10)
        assert [info.value(i) for i in range(10)] == values.tolist()


class TestRunLengths:
    def test_identity_runs_of_one(self):
        assert IDENTITY.run_length(100) == 1

    def test_divided_runs(self):
        assert IDENTITY.divide(1024).run_length(100_000) == 1024

    def test_constant_single_run(self):
        assert constant_run(0).run_length(50) == 50

    def test_cap_one_single_run(self):
        assert IDENTITY.modulo(1).run_length(50) == 50

    def test_run_length_clamped_to_length(self):
        assert IDENTITY.divide(1000).run_length(10) == 10

    def test_zero_length(self):
        assert IDENTITY.run_length(0) == 0


@given(st.integers(1, 2048), st.integers(1, 512))
def test_divide_runs_match_materialized(divisor, length):
    """Static run length equals the runs of the materialized values."""
    info = IDENTITY.divide(divisor)
    values = info.materialize(length)
    boundaries = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
    expected_runs = -(-length // info.run_length(length))
    assert boundaries == expected_runs


@given(st.integers(2, 64), st.integers(2, 64), st.integers(1, 300))
def test_divide_then_modulo_consistent(divisor, cap, length):
    info = IDENTITY.divide(divisor).modulo(cap)
    direct = (np.arange(length) // divisor) % cap
    assert info.materialize(length).tolist() == direct.tolist()
