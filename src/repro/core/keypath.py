"""Keypaths: dotted attribute paths into Structured Vectors.

The paper (section 2.1) navigates nested record structure with *keypaths*,
written with a leading dot: ``.value`` or ``.input.value``.  Because nested
structs flatten naturally onto dotted leaf names, a keypath here is an
immutable tuple of non-empty components with a canonical textual form.

Components are validated where they enter (``Keypath(...)``, ``parse``,
the new names of ``child``); a keypath built out of the components of
other keypaths (``concat``, ``rebase``, ``strip_prefix``) trusts them.
Keypaths are not interned — equal paths may be distinct objects — but the
ones a program and a storage schema hold are the same objects run after
run, so ``==`` answers identity first and a warm run constructs none
(the plan carries its routes: :mod:`repro.compiler.runner`).
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator

from repro.errors import KeypathError

_COMPONENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _validated(parts: tuple) -> tuple:
    for part in parts:
        if not _COMPONENT_RE.match(part):
            raise KeypathError(f"invalid keypath component: {part!r}")
    return parts


@total_ordering
class Keypath:
    """An immutable dotted path such as ``.lineitem.l_quantity``.

    Instances are hashable and ordered (lexicographically on components) so
    they can key schema dictionaries deterministically.
    """

    __slots__ = ("_components", "_hash")

    def __init__(self, components: Iterable[str]):
        parts = _validated(tuple(components))
        if not parts:
            raise KeypathError("a keypath needs at least one component")
        self._components = parts
        self._hash = hash(parts)  # keypaths key every schema and interner lookup

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(cls, parts: tuple[str, ...]) -> "Keypath":
        """A keypath over components taken from validated keypaths."""
        self = object.__new__(cls)
        self._components = parts
        self._hash = hash(parts)
        return self

    @classmethod
    def parse(cls, text: str) -> "Keypath":
        """Parse the textual form ``.a.b`` (the leading dot is optional)."""
        if not isinstance(text, str):
            raise KeypathError(f"cannot parse keypath from {type(text).__name__}")
        stripped = text[1:] if text.startswith(".") else text
        if not stripped:
            raise KeypathError(f"empty keypath: {text!r}")
        return cls(stripped.split("."))

    @classmethod
    def of(cls, value: "Keypath | str") -> "Keypath":
        """Coerce a string or keypath into a :class:`Keypath`."""
        if isinstance(value, Keypath):
            return value
        return cls.parse(value)

    # -- accessors ---------------------------------------------------------

    @property
    def components(self) -> tuple[str, ...]:
        return self._components

    @property
    def leaf(self) -> str:
        """The last component (the attribute's own name)."""
        return self._components[-1]

    @property
    def root(self) -> str:
        """The first component."""
        return self._components[0]

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[str]:
        return iter(self._components)

    # -- combination -------------------------------------------------------

    def child(self, *names: str) -> "Keypath":
        """Extend the path downward: ``Keypath.parse('.a').child('b')``."""
        return Keypath._trusted(self._components + _validated(names))

    def concat(self, other: "Keypath") -> "Keypath":
        return Keypath._trusted(self._components + other._components)

    def rebase(self, old_prefix: "Keypath", new_prefix: "Keypath") -> "Keypath":
        """Replace a leading *old_prefix* with *new_prefix*."""
        if not self.startswith(old_prefix):
            raise KeypathError(f"{self} does not start with {old_prefix}")
        return Keypath._trusted(new_prefix._components + self._components[len(old_prefix) :])

    def startswith(self, prefix: "Keypath") -> bool:
        return self._components[: len(prefix)] == prefix._components

    def strip_prefix(self, prefix: "Keypath") -> "Keypath":
        if not self.startswith(prefix) or len(self) == len(prefix):
            raise KeypathError(f"{self} has no proper prefix {prefix}")
        return Keypath._trusted(self._components[len(prefix) :])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Keypath) and self._components == other._components
        )

    def __lt__(self, other: "Keypath") -> bool:
        if not isinstance(other, Keypath):
            return NotImplemented
        return self._components < other._components

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: str hashes are salted per process, so
        # the stored hash must not travel to a pool worker
        return (Keypath, (self._components,))

    def __str__(self) -> str:
        return "." + ".".join(self._components)

    def __repr__(self) -> str:
        return f"Keypath({str(self)!r})"


def kp(text: "str | Keypath") -> Keypath:
    """Shorthand coercion used throughout the library; each distinct
    string is parsed once (keypaths are immutable, so one object serves
    every caller)."""
    if isinstance(text, Keypath):
        return text
    return _parsed(text) if type(text) is str else Keypath.parse(text)


@lru_cache(maxsize=4096)
def _parsed(text: str) -> Keypath:
    return Keypath.parse(text)
