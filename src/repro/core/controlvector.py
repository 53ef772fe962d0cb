"""Control-vector run metadata.

Section 3.1.1 of the paper ("Maintaining Run Metadata"): attributes
generated by ``Range`` obey

    v[i] = (from + floor(i * step)) mod cap

and the compiler tracks ``(from, step, cap)`` symbolically instead of
materializing the vector.  Dividing such an attribute by a constant ``x``
divides ``step`` by ``x``; taking it modulo ``x`` sets ``cap`` to ``x``.
From this metadata the backend derives the *run length* of the control
vector — the paper's declarative parallelism knob ($intent) — without
looking at data.

``step`` is kept as an exact :class:`~fractions.Fraction` so that chained
integer divisions (1 / 1024 / 4, …) never accumulate float error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from repro.errors import ControlVectorError


@dataclass(frozen=True)
class RunInfo:
    """Symbolic description of a generated (control) attribute.

    Attributes
    ----------
    start:
        The ``from`` offset of the generating range.
    step:
        Increment per position, an exact fraction.  ``step == 0`` describes
        a constant vector (a single run spanning everything).
    cap:
        Modulo cap; ``None`` means "no modulo applied".
    """

    start: int
    step: Fraction
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ControlVectorError("control vectors must be non-decreasing (step >= 0)")
        if self.cap is not None and self.cap <= 0:
            raise ControlVectorError(f"modulo cap must be positive, got {self.cap}")

    # -- the paper's metadata algebra --------------------------------------

    def divide(self, divisor: int) -> "RunInfo":
        """Integer-dividing the attribute by *divisor* divides ``step``."""
        if divisor <= 0:
            raise ControlVectorError(f"divisor must be positive, got {divisor}")
        # Integer division also divides the start offset; exact only when
        # start is a multiple, which holds for every Range(0, ...) control
        # vector the frontends build.  We keep exactness honest:
        if self.start % divisor:
            raise ControlVectorError(
                f"cannot track integer division of start={self.start} by {divisor}"
            )
        cap = None if self.cap is None else max(1, self.cap // divisor)
        return RunInfo(self.start // divisor, self.step / divisor, cap)

    def modulo(self, cap: int) -> "RunInfo":
        """Taking the attribute modulo *cap* sets the cap."""
        if cap <= 0:
            raise ControlVectorError(f"modulo cap must be positive, got {cap}")
        return RunInfo(self.start % cap, self.step, cap)

    def multiply(self, factor: int) -> "RunInfo":
        if factor <= 0:
            raise ControlVectorError(f"factor must be positive, got {factor}")
        if self.step.denominator != 1:
            # k*floor(i*s) is NOT floor(i*s*k) for fractional s: multiplying
            # a run-length-d vector must keep its runs, but scaling the step
            # would shorten them.  No (start, step, cap) form expresses
            # "runs of d with stride k", so refuse and let callers fall back
            # to concrete values.
            raise ControlVectorError(
                f"cannot track multiplication of fractional step {self.step}"
            )
        cap = None if self.cap is None else self.cap * factor
        return RunInfo(self.start * factor, self.step * factor, cap)

    def add(self, offset: int) -> "RunInfo":
        if self.cap is not None and offset % self.cap:
            raise ControlVectorError("cannot add a non-multiple of cap to a capped vector")
        return RunInfo(self.start + offset, self.step, self.cap)

    # -- evaluation -----------------------------------------------------------

    def value(self, i: int) -> int:
        v = self.start + math.floor(i * self.step)
        if self.cap is not None:
            v %= self.cap
        return v

    def take(self, idx: np.ndarray) -> np.ndarray:
        """The concrete int64 values at positions *idx*."""
        if self.step == 0:
            values = np.full(len(idx), self.start, dtype=np.int64)
        elif self.step.denominator == 1:
            values = self.start + idx * int(self.step)
        else:
            values = self.start + (idx * self.step.numerator) // self.step.denominator
        if self.cap is not None:
            values = values % self.cap
        return values

    def materialize(self, length: int, dtype=np.int64) -> np.ndarray:
        """Produce the concrete values; used by the interpreter and tests."""
        return self.take(np.arange(length, dtype=np.int64)).astype(dtype)

    # -- derived parallelism parameters ----------------------------------------

    @cached_property
    def period(self) -> int:
        """Positions per value-run, whatever the length (0: one run spans
        everything).  Kept on the metadata it derives from: a plan carries
        its ``RunInfo`` objects, so a warm run asks no ``Fraction``."""
        if self.step == 0 or self.cap == 1:
            return 0
        return 1 if self.step >= 1 else math.ceil(1 / self.step)

    def run_length(self, length: int) -> int:
        """Length of the value-runs this control vector induces.

        * ``step == 0``  → one run covering the whole vector (fully
          sequential: intent = n, extent = 1);
        * ``cap == 1``   → likewise one constant run;
        * ``step >= 1``  → adjacent values always differ: runs of length 1
          (fully parallel: intent = 1, extent = n);
        * ``0 < step < 1`` → runs of ``1/step`` positions share a value.
        """
        if length <= 0:
            return 0
        return min(length, self.period) if self.period else length

    def __str__(self) -> str:  # compact form used by the SSA printer
        cap = "" if self.cap is None else f" mod {self.cap}"
        return f"<{self.start} + i*{self.step}{cap}>"


def derive_runinfo(fn: str, info: RunInfo, other: int) -> RunInfo | None:
    """The metadata of ``fn(attribute, other)`` for the operators the
    algebra above tracks, None when it cannot be tracked."""
    try:
        if fn == "Divide":
            return info.divide(other)
        if fn == "Modulo":
            return info.modulo(other)
        if fn == "Multiply":
            return info.multiply(other)
        if fn == "Add":
            return info.add(other)
    except (ControlVectorError, ZeroDivisionError):
        return None
    return None


#: Run metadata for a plain ``Range(0, n, 1)`` identity vector.
IDENTITY = RunInfo(start=0, step=Fraction(1), cap=None)


_NO_STEP = Fraction(0)


def constant_run(value: int) -> RunInfo:
    """Metadata for a constant vector (single run, any length)."""
    return RunInfo(start=value, step=_NO_STEP, cap=None)
