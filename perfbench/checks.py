"""The correctness gate: every comparison runs outside the timed rounds
and each mismatch is one failed op."""

from __future__ import annotations

import numpy as np

from perfbench.data import KEY_CARD
from repro.tpch import REFERENCES

#: the tests' tolerance (tests/tpch/test_tpch.py)
TOLERANCE = 1e-6


def close(got, want, tol: float = TOLERANCE) -> bool:
    if isinstance(got, (float, np.floating)) and isinstance(want, (float, np.floating)):
        return abs(got - want) <= tol * max(1.0, abs(got), abs(want))
    return got == want


def rows_match(table, reference, keys=None) -> bool:
    """A result table against a reference (a float for scalar queries, or
    rows as dicts); *keys* restricts the comparison to those columns."""
    rows = table.to_dicts()
    if isinstance(reference, float):
        if not rows:
            # an aggregate over no qualifying rows: the engine returns an
            # empty table where the NumPy reference sums to 0.0 (q19 at a
            # small scale factor selects nothing for about one seed in ten)
            return reference == 0.0
        return len(rows) == 1 and close(float(next(iter(rows[0].values()))), reference)
    if len(rows) != len(reference):
        return False
    for got, want in zip(rows, reference):
        for key, value in want.items():
            if keys is not None and key not in keys:
                continue
            if key not in got or not close(got[key], value):
                return False
    return True


def tpch_matches(store, number: int, table, params=None, keys=None) -> bool:
    return rows_match(table, REFERENCES[number](store, **(params or {})), keys)


def describe(table) -> str:
    """The head of a result, for a failure message."""
    return f"{len(table)} rows, first {table.to_dicts()[:1]}"


def micro_matches(store, name: str, table) -> bool:
    """The micro ops against direct NumPy over the generated columns."""
    facts = store.table("facts")
    k, v1, v2, w = (facts.column(c).data for c in ("k", "v1", "v2", "w"))
    if name == "micro.select":
        return rows_match(table, float(v2[v1 <= 0.1].sum()))
    if name == "micro.project":
        return rows_match(table, float((v1 * v2 + w)[v1 <= 0.2].sum()))
    keep = w <= 95
    reference = []
    for key in range(KEY_CARD):
        m = keep & (k == key)
        if m.any():
            reference.append({"k": key, "s1": v1[m].sum(), "s2": v2[m].sum(),
                              "cnt": int(m.sum()), "top": w[m].max()})
    return rows_match(table, reference)


def tables_identical(left, right) -> bool:
    """Bit-identity: same columns, dtypes and bytes."""
    return left.columns == right.columns and all(
        left.arrays[c].dtype == right.arrays[c].dtype
        and left.arrays[c].shape == right.arrays[c].shape
        and np.array_equal(left.arrays[c], right.arrays[c])
        for c in left.columns
    )


class Gate:
    """Counts attempted and failed ops and remembers why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, count: int) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)
