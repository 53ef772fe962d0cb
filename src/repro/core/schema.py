"""Schemas for Structured Vectors.

A Structured Vector (paper section 2.1) is an ordered collection of fixed
size records that all conform to one schema.  Records may nest, but every
leaf is a scalar, so a schema flattens to an ordered mapping from leaf
:class:`~repro.core.keypath.Keypath` to a scalar dtype.

Only fixed-width scalar dtypes are allowed — exactly the restriction the
paper imposes so that vectors map onto flat, integer-addressable memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.keypath import Keypath, kp
from repro.errors import SchemaError

#: dtype kinds a Structured Vector leaf may carry (ints, uints, floats, bool).
ALLOWED_KINDS = frozenset("iufb")


def check_dtype(dtype: np.dtype) -> np.dtype:
    """Validate and normalise a leaf dtype (ints, uints, floats, bool)."""
    resolved = np.dtype(dtype)
    if resolved.kind not in ALLOWED_KINDS:
        raise SchemaError(
            f"dtype {resolved} not allowed in a Structured Vector; "
            "only fixed-width ints, floats and bools are supported"
        )
    return resolved


class Schema:
    """An ordered, immutable mapping of leaf keypaths to scalar dtypes."""

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[Keypath | str, np.dtype | str] | Iterable[tuple]):
        # dict first: the abstract Mapping check costs more than the rest
        items = fields.items() if isinstance(fields, (dict, Mapping)) else fields
        resolved: dict[Keypath, np.dtype] = {}
        for path, dtype in items:
            path = kp(path)
            if path in resolved:
                raise SchemaError(f"duplicate field {path}")
            resolved[path] = check_dtype(dtype)
        self._check_no_prefix_conflicts(resolved)
        self._fields = resolved

    @classmethod
    def of_fields(cls, fields: dict[Keypath, np.dtype]) -> "Schema":
        """A schema over fields taken from existing schemas: paths and
        dtypes are already normalised, so only their combination is
        checked (schema inference derives one schema per operator)."""
        cls._check_no_prefix_conflicts(fields)
        schema = object.__new__(cls)
        schema._fields = fields
        return schema

    @staticmethod
    def _check_no_prefix_conflicts(fields: Mapping[Keypath, np.dtype]) -> None:
        # A leaf cannot also be an interior struct node: ``.a`` conflicts
        # with ``.a.b`` because ``.a`` would be both scalar and struct.
        nested = [path.components for path in fields if len(path.components) > 1]
        if not nested:
            return
        leaves = {path.components for path in fields}
        for parts in nested:
            for cut in range(1, len(parts)):
                if parts[:cut] in leaves:
                    raise SchemaError(
                        f"field {Keypath(parts[:cut])} conflicts with "
                        f"nested field {Keypath(parts)}"
                    )

    # -- mapping interface ---------------------------------------------------

    def __contains__(self, path: Keypath | str) -> bool:
        return kp(path) in self._fields

    def __getitem__(self, path: Keypath | str) -> np.dtype:
        path = kp(path)
        try:
            return self._fields[path]
        except KeyError:
            raise SchemaError(f"no field {path} in schema {self}") from None

    def __iter__(self) -> Iterator[Keypath]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def leaf(self, path: Keypath | str) -> np.dtype | None:
        """The dtype of leaf *path*, or ``None`` when *path* is no leaf
        (a struct prefix, or absent)."""
        dtype = self._fields.get(path)
        if dtype is None and not isinstance(path, Keypath):
            return self._fields.get(kp(path))
        return dtype

    def items(self) -> Iterable[tuple[Keypath, np.dtype]]:
        return self._fields.items()

    def paths(self) -> tuple[Keypath, ...]:
        return tuple(self._fields)

    # -- struct navigation ----------------------------------------------------

    def subschema(self, prefix: Keypath | str) -> "Schema":
        """All fields under *prefix*, with the prefix stripped.

        If *prefix* names a leaf directly, the result is a single anonymous
        field re-rooted at the leaf name.
        """
        prefix = kp(prefix)
        if prefix in self._fields:
            return Schema.of_fields({Keypath([prefix.leaf]): self._fields[prefix]})
        nested = {
            path.strip_prefix(prefix): dtype
            for path, dtype in self._fields.items()
            if path.startswith(prefix) and len(path) > len(prefix)
        }
        if not nested:
            raise SchemaError(f"no field or struct {prefix} in schema {self}")
        return Schema.of_fields(nested)

    def resolve(self, path: Keypath | str) -> tuple[Keypath, ...]:
        """All leaf paths designated by *path* (itself, or its struct leaves)."""
        path = kp(path)
        if path in self._fields:
            return (path,)
        leaves = tuple(p for p in self._fields if p.startswith(path))
        if not leaves:
            raise SchemaError(f"keypath {path} does not resolve in schema {self}")
        return leaves

    # -- combination -----------------------------------------------------------

    def project(self, paths: Iterable[Keypath | str]) -> "Schema":
        return Schema.of_fields({p: self[p] for p in map(kp, paths)})

    def rename(self, old: Keypath | str, new: Keypath | str) -> "Schema":
        old, new = kp(old), kp(new)
        out: dict[Keypath, np.dtype] = {}
        for path, dtype in self._fields.items():
            if path == old or path.startswith(old):
                out[path.rebase(old, new)] = dtype
            else:
                out[path] = dtype
        if len(out) != len(self._fields):
            raise SchemaError(f"rename {old} -> {new} collides with existing fields")
        return Schema.of_fields(out)

    def merge(self, other: "Schema") -> "Schema":
        """Union of two schemas; *other* wins on equal paths."""
        combined = dict(self._fields)
        combined.update(other._fields)
        return Schema.of_fields(combined)

    def nest(self, prefix: Keypath | str) -> "Schema":
        """Push every field below *prefix* (inverse of :meth:`subschema`)."""
        prefix = kp(prefix)
        return Schema.of_fields(
            {prefix.concat(path): dtype for path, dtype in self._fields.items()}
        )

    # -- properties -------------------------------------------------------------

    @property
    def item_nbytes(self) -> int:
        """Fixed record width in bytes (the paper's 'fixed size data item')."""
        return sum(dtype.itemsize for dtype in self._fields.values())

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._fields == other._fields

    def __hash__(self) -> int:
        return hash(tuple(self._fields.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{path}: {dtype}" for path, dtype in self._fields.items())
        return f"Schema({{{inner}}})"
