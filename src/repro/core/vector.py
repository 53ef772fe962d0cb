"""Structured Vectors — the only data abstraction in Voodoo.

A Structured Vector (paper section 2.1) is an ordered collection of fixed
size items conforming to one schema, a thin abstraction over integer
addressable memory.  This implementation stores one NumPy array per leaf
keypath ("structure of arrays"), plus an optional per-attribute presence
mask implementing the paper's *empty* (ε) field value: slots not set by a
``Scatter`` or not selected by a ``FoldSelect`` are ε.

A presence mask of ``None`` means "every slot present" — the common case —
so fully-dense vectors pay no mask storage (mirroring the paper's
empty-slot suppression at the data-model level).

Attributes may also be **lazy**: instead of an array, a leaf keypath can
carry a column handle (anything with ``dtype``, ``__len__``,
``materialize()`` and ``slice(lo, hi)`` — in practice
:class:`repro.storage.segment.ColumnData`).  The vector knows its full
schema up front, but a lazy attribute's values are decoded only when
``attr()`` first touches them (then memoized).  ``project`` and ``zip``
compose lazily.  Lazy attributes are always dense — storage columns have
no ε slots.

The node runner's outputs are **pending** attributes (:meth:`over`): the
runner's own columns, whose present rows :meth:`rows` reads as stored.
Their ε-padded images — exactly the arrays an eager pad would have
stored — are built when something first reads one, never if nothing does.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.controlvector import RunInfo
from repro.core.keypath import Keypath, kp
from repro.core.schema import Schema, check_dtype
from repro.errors import SchemaError, VoodooError


class StructuredVector:
    """An immutable-by-convention structure-of-arrays vector with ε masks."""

    __slots__ = ("_length", "_arrays", "_masks", "_runinfo", "_lazy", "_paths",
                 "_pending")

    def __init__(
        self,
        length: int,
        columns: Mapping[Keypath | str, np.ndarray],
        present: Mapping[Keypath | str, np.ndarray | None] | None = None,
        runinfo: Mapping[Keypath | str, RunInfo] | None = None,
        lazy: Mapping[Keypath | str, object] | None = None,
    ):
        if length < 0:
            raise VoodooError(f"vector length must be >= 0, got {length}")
        self._length = int(length)
        self._arrays: dict[Keypath, np.ndarray] = {}
        self._masks: dict[Keypath, np.ndarray | None] = {}
        self._runinfo: dict[Keypath, RunInfo] = {}
        self._lazy: dict[Keypath, object] = {}
        self._pending: dict[Keypath, object] = {}

        present = present or {}
        normalized_present = {kp(p): m for p, m in present.items()}
        for path, array in columns.items():
            path = kp(path)
            array = np.asarray(array)
            check_dtype(array.dtype)
            if array.ndim != 1 or len(array) != self._length:
                raise SchemaError(
                    f"column {path}: expected 1-D array of length {self._length}, "
                    f"got shape {array.shape}"
                )
            self._arrays[path] = array
            mask = normalized_present.get(path)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self._length,):
                    raise SchemaError(f"presence mask for {path} has shape {mask.shape}")
                if mask.all():
                    mask = None  # dense: drop the mask
            self._masks[path] = mask
        for path, handle in (lazy or {}).items():
            path = kp(path)
            if path in self._arrays:
                raise SchemaError(f"attribute {path} is both lazy and materialized")
            check_dtype(np.dtype(handle.dtype))
            if len(handle) != self._length:
                raise SchemaError(
                    f"lazy column {path}: length {len(handle)} != vector "
                    f"length {self._length}"
                )
            self._lazy[path] = handle
        # the attribute order is fixed at construction — materializing a
        # lazy column later must not reorder paths/schema
        self._paths: tuple[Keypath, ...] = tuple(self._arrays) + tuple(self._lazy)
        if self._lazy:
            Schema._check_no_prefix_conflicts({p: None for p in self._paths})
        else:
            Schema._check_no_prefix_conflicts(self._arrays)

        for path, info in (runinfo or {}).items():
            path = kp(path)
            if path not in self._arrays:
                raise SchemaError(f"runinfo refers to missing attribute {path}")
            self._runinfo[path] = info

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_arrays(cls, **named_arrays: np.ndarray) -> "StructuredVector":
        """Build a dense vector from keyword arrays of equal length."""
        if not named_arrays:
            raise SchemaError("a Structured Vector needs at least one attribute")
        lengths = {len(a) for a in named_arrays.values()}
        if len(lengths) != 1:
            raise SchemaError(f"attribute lengths differ: {sorted(lengths)}")
        return cls(lengths.pop(), {Keypath([n]): np.asarray(a) for n, a in named_arrays.items()})

    @classmethod
    def single(cls, path: Keypath | str, array: np.ndarray) -> "StructuredVector":
        array = np.asarray(array)
        return cls(len(array), {kp(path): array})

    @classmethod
    def over(cls, length: int, columns: Mapping[Keypath, object]) -> "StructuredVector":
        """A vector over a runner's columns (anything with ``dtype``,
        ``len()``, ``present()``, ``rows()`` and ``pad()``), none padded yet."""
        vector = cls(length, {})
        for path, column in columns.items():
            check_dtype(column.dtype)
            if len(column) != length:
                raise SchemaError(f"column {path}: length {len(column)} != {length}")
        Schema._check_no_prefix_conflicts(columns)
        vector._pending = dict(columns)
        vector._paths = tuple(columns)
        return vector

    def _settled(self) -> "StructuredVector":
        """Self, whatever was pending padded (racing readers store the same
        arrays — a column memoizes its padded image — and ``_pending`` is
        emptied by one assignment, after them)."""
        pending = self._pending
        if pending:
            for path, column in pending.items():
                array, mask = column.pad()
                self._arrays[path] = array
                self._masks[path] = None if mask is None or mask.all() else mask
            self._pending = {}
        return self

    #: the padded arrays and masks: every reader of either settles first
    _columns = property(lambda self: self._settled()._arrays)
    _present = property(lambda self: self._settled()._masks)

    # -- basic accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def schema(self) -> Schema:
        # (read in the order an attribute moves: pending or lazy, then padded)
        held = {**self._pending, **self._lazy, **self._arrays}
        return Schema({path: np.dtype(held[path].dtype) for path in self._paths})

    @property
    def paths(self) -> tuple[Keypath, ...]:
        return self._paths

    def attr(self, path: Keypath | str) -> np.ndarray:
        """The raw value array for a leaf keypath (ε slots hold garbage).

        A lazy attribute materializes on first touch and is memoized.
        """
        path = kp(path)
        try:
            return self._columns[path]
        except KeyError:
            pass
        handle = self._lazy.get(path)
        if handle is None:
            raise SchemaError(f"no attribute {path} in vector with {list(self._paths)}")
        array = np.asarray(handle.materialize())
        # Concurrent chunk workers may race to materialize the same handle;
        # the result is deterministic, so last-write-wins is safe.
        self._columns[path] = array
        self._lazy.pop(path, None)
        return array

    def unshared(self) -> "StructuredVector":
        """A vector over the same arrays and handles that memoizes its
        own lazy materializations — a cached prototype handed to many
        queries must not accumulate what each of them decoded."""
        clone = object.__new__(StructuredVector)
        clone._length = self._length
        clone._pending = dict(self._pending)  # (first: a racing pad empties it last)
        clone._arrays = dict(self._arrays)
        clone._masks = dict(self._masks)
        clone._runinfo = dict(self._runinfo)
        clone._lazy = dict(self._lazy)
        clone._paths = self._paths
        return clone

    def lazy_handle(self, path: Keypath | str):
        """The not-yet-materialized handle for *path*, or ``None``."""
        return self._lazy.get(kp(path))

    def present(self, path: Keypath | str) -> np.ndarray:
        """Boolean presence mask for a leaf keypath (dense ⇒ all-True)."""
        path = kp(path)
        if path not in self._columns and path not in self._lazy:
            raise SchemaError(f"no attribute {path}")
        mask = self._present.get(path)
        if mask is None:
            return np.ones(self._length, dtype=bool)
        return mask

    def is_dense(self, path: Keypath | str) -> bool:
        path = kp(path)
        column = self._pending.get(path)
        if column is not None:  # answered without padding
            return column.present() == self._length
        return self._present.get(path) is None

    def rows(self, paths) -> list[np.ndarray]:
        """The values of *paths* on the rows where all of them are present
        (shared arrays, never written): as stored when the attributes are
        pending on one presence pattern, else masked out of the padded images."""
        paths = [kp(path) for path in paths]
        pending = self._pending
        held = [pending.get(path) for path in paths]
        if held and all(column is not None for column in held):
            values, patterns = zip(*(column.rows() for column in held))
            first = patterns[0]
            if all(slots is first or (slots is not None and first is not None
                                      and first.same_as(slots))
                   for slots in patterns):
                return list(values)
        mask = np.ones(self._length, dtype=bool)
        for path in paths:
            mask &= self.present(path)
        return [self.attr(path)[mask] for path in paths]

    def runinfo_for(self, path: Keypath | str) -> RunInfo | None:
        """Symbolic run metadata for a generated attribute, if tracked."""
        return self._runinfo.get(kp(path))

    def resolve(self, path: Keypath | str) -> tuple[Keypath, ...]:
        """Leaf keypaths designated by *path* (which may name a struct)."""
        path = kp(path)
        if path in self._paths:
            return (path,)
        leaves = tuple(p for p in self._paths if p.startswith(path))
        if not leaves:
            raise SchemaError(f"keypath {path} does not resolve; have {list(self._paths)}")
        return leaves

    # -- structural operations (used by backends) -----------------------------------

    def project(self, path: Keypath | str, out: Keypath | str | None = None) -> "StructuredVector":
        """Extract the substructure at *path*, re-rooted at *out* (Project)."""
        path = kp(path)
        leaves = self.resolve(path)
        out = kp(out) if out is not None else None
        columns: dict[Keypath, np.ndarray] = {}
        present: dict[Keypath, np.ndarray | None] = {}
        runinfo: dict[Keypath, RunInfo] = {}
        lazy: dict[Keypath, object] = {}
        for leaf in leaves:
            new = leaf if out is None else (
                out if leaf == path else leaf.rebase(path, out)
            )
            if leaf in self._lazy:
                lazy[new] = self._lazy[leaf]
                continue
            columns[new] = self._columns[leaf]
            present[new] = self._present.get(leaf)
            if leaf in self._runinfo:
                runinfo[new] = self._runinfo[leaf]
        return StructuredVector(self._length, columns, present, runinfo, lazy=lazy)

    def with_attr(
        self,
        path: Keypath | str,
        array: np.ndarray,
        mask: np.ndarray | None = None,
        runinfo: RunInfo | None = None,
    ) -> "StructuredVector":
        """Copy with attribute *path* replaced or inserted (Upsert)."""
        path = kp(path)
        columns = dict(self._columns)
        present = dict(self._present)
        infos = dict(self._runinfo)
        lazy = {p: h for p, h in self._lazy.items() if p != path}
        columns[path] = np.asarray(array)
        present[path] = mask
        if runinfo is not None:
            infos[path] = runinfo
        else:
            infos.pop(path, None)
        return StructuredVector(self._length, columns, present, infos, lazy=lazy)

    def zip(self, other: "StructuredVector") -> "StructuredVector":
        """Positional combination of two vectors (Zip); length = min."""
        n = min(self._length, len(other))
        columns: dict[Keypath, np.ndarray] = {}
        present: dict[Keypath, np.ndarray | None] = {}
        infos: dict[Keypath, RunInfo] = {}
        lazy: dict[Keypath, object] = {}
        for side in (self, other):
            for path in side._paths:
                if path in columns or path in lazy:
                    raise SchemaError(f"Zip would duplicate attribute {path}")
                handle = side._lazy.get(path)
                if handle is not None:
                    lazy[path] = handle if len(handle) == n else handle.slice(0, n)
                    continue
                array = side._columns[path]
                columns[path] = array[:n]
                mask = side._present.get(path)
                present[path] = None if mask is None else mask[:n]
                if path in side._runinfo:
                    infos[path] = side._runinfo[path]
        return StructuredVector(n, columns, present, infos, lazy=lazy)

    def __repr__(self) -> str:
        cols = ", ".join(f"{p}:{dt}" for p, dt in self.schema.items())
        return f"StructuredVector(len={self._length}, {{{cols}}})"
