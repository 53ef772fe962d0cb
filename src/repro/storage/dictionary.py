"""Order-preserving string dictionaries.

The paper loads MonetDB's storage format directly: "binary column-wise
using dictionary encoding for strings" (section 4).  This module provides
that encoding: a sorted, order-preserving dictionary so that comparison
predicates on strings translate to integer comparisons on codes, and
``LIKE`` predicates resolve to code sets at plan-build time.
"""

from __future__ import annotations

import fnmatch
from typing import Iterable, Sequence

import numpy as np

from repro.errors import StorageError


class StringDictionary:
    """Immutable, sorted dictionary mapping strings <-> int64 codes.

    Sorting makes the encoding *order preserving*: ``code(a) < code(b)``
    iff ``a < b``, so range predicates survive encoding.
    """

    __slots__ = ("_values", "_code_of")

    def __init__(self, values: Iterable[str]):
        unique = sorted(set(values))
        self._values: tuple[str, ...] = tuple(unique)
        self._code_of: dict[str, int] = {v: i for i, v in enumerate(unique)}

    @classmethod
    def from_column(cls, strings: Sequence[str]) -> tuple["StringDictionary", np.ndarray]:
        """Build a dictionary and encode *strings* in one pass."""
        dictionary = cls(strings)
        return dictionary, dictionary.encode(strings)

    # -- encoding ------------------------------------------------------------

    def encode(self, strings: Sequence[str]) -> np.ndarray:
        try:
            return np.array(list(map(self._code_of.__getitem__, strings)), dtype=np.int64)
        except KeyError as exc:
            raise StorageError(f"string {exc.args[0]!r} not in dictionary") from None

    def code(self, value: str) -> int:
        try:
            return self._code_of[value]
        except KeyError:
            raise StorageError(f"string {value!r} not in dictionary") from None

    def decode(self, codes: np.ndarray) -> list[str]:
        return [self._values[int(c)] for c in codes]

    def merged(
        self, strings: Sequence[str]
    ) -> tuple["StringDictionary", np.ndarray | None]:
        """``(merged dictionary, old-code → new-code remap or None)``.

        Merging keeps the order-preserving invariant: the result is the
        sorted union, so codes of *existing* values may shift — the
        remap array (indexed by old code) rewrites already-encoded
        segments.  ``None`` remap means every string was already present
        and existing codes are unchanged.
        """
        new = set(strings).difference(self._code_of)
        if not new:
            return self, None
        merged = StringDictionary(self._values + tuple(new))
        remap = np.array([merged._code_of[v] for v in self._values], dtype=np.int64)
        return merged, remap

    # -- predicate resolution (plan-build time) -----------------------------------

    def codes_like(self, pattern: str) -> np.ndarray:
        """Codes of values matching a SQL LIKE pattern (``%``/``_``)."""
        translated = pattern.replace("%", "*").replace("_", "?")
        matches = [
            i for i, v in enumerate(self._values) if fnmatch.fnmatchcase(v, translated)
        ]
        return np.array(matches, dtype=np.int64)

    def codes_in(self, values: Iterable[str]) -> np.ndarray:
        return np.array(sorted(self._code_of[v] for v in values if v in self._code_of),
                        dtype=np.int64)

    def membership_table(self, codes: np.ndarray) -> np.ndarray:
        """Dense bool table over the code domain (for Gather-based IN/LIKE)."""
        table = np.zeros(len(self._values), dtype=bool)
        table[codes] = True
        return table

    # -- dunder ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._code_of

    def values(self) -> tuple[str, ...]:
        return self._values

    def __repr__(self) -> str:
        preview = ", ".join(self._values[:3])
        return f"StringDictionary({len(self._values)} values: {preview}, ...)"
