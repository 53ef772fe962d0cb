"""``apply_binary`` broadcasts a length-1 operand itself.

The node runner hands :func:`repro.interpreter.engine.apply_binary` a
full-length column and a length-1 constant as they are — no
``np.broadcast_to`` view in front — and relies on NumPy's own
broadcasting producing, in every kernel (the ``np.where`` zero guards of
``Divide`` and ``Modulo`` included), the values *and the dtype* the
explicitly broadcast operands give.  That is a property of the installed
NumPy's promotion rules, so it is pinned here for every function, every
dtype pair and every shape — and CI runs this file on the oldest NumPy
the package admits, which is where a difference would show.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.core.ops import BINARY_OPS
from repro.errors import ExecutionError
from repro.interpreter.engine import apply_binary

DTYPES = (np.bool_, np.int32, np.int64, np.uint8, np.float32, np.float64)
N = 7


def column(dtype, n: int, seed: int) -> np.ndarray:
    """*n* values of *dtype* with zeros among them (the divisor's guards)."""
    rng = np.random.default_rng(seed)
    if dtype is np.bool_:
        return rng.random(n) < 0.5
    values = rng.integers(0, 5, n) if dtype is np.uint8 else rng.integers(-4, 5, n)
    values[rng.random(n) < 0.3] = 0
    return (values * (1.5 if np.dtype(dtype).kind == "f" else 1)).astype(dtype)


def outcome(fn, a, b):
    """``(result, None)``, or ``(None, the error's type)`` — NumPy refuses
    some pairings (boolean subtract, a float shift count)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return apply_binary(fn, a, b), None
        except (TypeError, ValueError) as exc:
            return None, type(exc)


@pytest.mark.parametrize("fn", sorted(BINARY_OPS))
def test_own_broadcast_is_the_explicit_one(fn):
    for (left, right), (n, m) in itertools.product(
            itertools.product(DTYPES, DTYPES), ((N, 1), (1, N), (1, 1), (N, N))):
        for zero_scalar in (False, True):
            a, b = column(left, n, 1), column(right, m, 2)
            if m == 1:
                b[0] = 0 if zero_scalar else 3
            if n == 1:
                a[0] = 0 if zero_scalar else 2
            where = (fn, np.dtype(left).name, np.dtype(right).name, n, m, zero_scalar)
            length = max(n, m)
            want, refused = outcome(
                fn, np.broadcast_to(a, (length,)), np.broadcast_to(b, (length,)))
            have, error = outcome(fn, a, b)
            assert error is refused, where
            if refused is None:
                assert have.dtype == want.dtype and have.shape == want.shape, where
                assert np.array_equal(have, want, equal_nan=have.dtype.kind == "f"), where


def test_unknown_function_is_refused():
    with pytest.raises(ExecutionError, match="unknown binary function"):
        apply_binary("Power", np.ones(2), np.ones(2))
