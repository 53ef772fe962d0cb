"""Voodoo operator nodes (the algebra of Table 2).

Every operator is a frozen dataclass whose fields are either scalar
parameters (keypaths, constants) or *input nodes*.  A Voodoo program is a
DAG of such nodes; structural equality + hashing enable hash-consing (the
paper's common-subexpression sharing) in :class:`repro.core.program.Program`.

Operator categories (paper section 2.3):

* **Maintenance** — ``Load``, ``Persist``: move vectors between the
  persistent store and the program.
* **Data-parallel** — arithmetic/logical/comparison ops, ``Zip``,
  ``Project``, ``Upsert``, ``Gather``, ``Scatter``, ``Materialize``,
  ``Break``, ``Partition``: the output slot at position *i* depends only on
  input slots at position *i* (Scatter writes are position-directed but
  conflict-free by construction).
* **Fold** — ``FoldSelect``, ``FoldSum``/``Max``/``Min``, ``FoldScan``,
  ``FoldCount``: controlled folds whose partitions are the value-runs of a
  control attribute.
* **Shape** — ``Range``, ``Constant``, ``Cross``: create vectors from sizes
  only; their outputs carry symbolic :class:`~repro.core.controlvector.RunInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

import numpy as np

from repro.core.keypath import Keypath
from repro.errors import ProgramError

# --------------------------------------------------------------------------- base

#: field kinds of :meth:`Op.layout`
INPUT, KEYPATH, VALUE = 0, 1, 2
#: annotation (as written: this module defers annotations) -> field kind
_FIELD_KINDS = {"Op": INPUT, "Op | None": INPUT, "Keypath": KEYPATH, "Keypath | None": KEYPATH}
#: operator class -> its layout (see :meth:`Op.layout`)
_LAYOUTS: dict[type, tuple[tuple[str, int], ...]] = {}


@dataclass(frozen=True, eq=False)
class Op:
    """Base class for all operator nodes."""

    #: operator category, overridden per subclass: "maintenance",
    #: "data-parallel", "fold" or "shape" (paper section 2.3).
    category: ClassVar[str] = "abstract"
    #: True for operators that force materialization between fragments.
    pipeline_breaker: ClassVar[bool] = False

    @property
    def opname(self) -> str:
        return type(self).__name__

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Declared field names in declaration order, reflected once per class."""
        return tuple(name for name, _ in cls.layout())

    @classmethod
    def layout(cls) -> tuple[tuple[str, int], ...]:
        """``(name, kind)`` of every declared field in declaration order,
        classified once per class from its annotation: :data:`INPUT` (an
        ``Op`` or ``Op | None`` field), :data:`KEYPATH` (a keypath that
        keys as itself) or :data:`VALUE` (any other parameter)."""
        layout = _LAYOUTS.get(cls)
        if layout is None:
            layout = _LAYOUTS[cls] = tuple(
                (f.name, _FIELD_KINDS.get(f.type, VALUE)) for f in fields(cls)
            )
        return layout

    def __post_init__(self) -> None:
        """Check the node, then split its fields into its structural key
        and its inputs in one pass led by the class's :meth:`layout` —
        once: nodes are frozen, so neither ever changes."""
        self._check()
        state = self.__dict__  # read and written directly: this runs per node made
        key: list[object] = [type(self).__name__]
        found: list[Op] = []
        for name, kind in _LAYOUTS.get(type(self)) or self.layout():
            value = state[name]
            if kind == INPUT:
                if value is None:
                    key.append(None)
                else:
                    found.append(value)
            elif kind == KEYPATH or value is None or isinstance(value, (Keypath, str)):
                key.append(value)
            else:
                key.append(repr(value))
        state["_key"] = tuple(key)
        state["_inputs"] = tuple(found)

    def _check(self) -> None:
        """Reject invalid parameters (raise); nothing to check by default."""

    def inputs(self) -> tuple["Op", ...]:
        """Input nodes, in declaration order."""
        return self._inputs

    def params(self) -> dict[str, object]:
        """Non-node parameters (an absent optional input as ``None``), for
        printing and diagnostics."""
        out: dict[str, object] = {}
        for name, kind in self.layout():
            value = getattr(self, name)
            if kind != INPUT or value is None:
                out[name] = value
        return out

    def structural_key(self) -> tuple:
        """Operator type plus parameters, in field order: with the
        identities of the (canonical) inputs it decides whether two nodes
        are the same subexpression (:class:`~repro.core.program.Interner`).
        Keypaths, names and None key as themselves (hashable, equal only
        to their own kind); numbers key by repr, which keeps 1 / 1.0 /
        True and 0.0 / -0.0 apart.  Computed when the node was made."""
        return self._key

    def walk(self) -> Iterator["Op"]:
        """Pre-order traversal visiting every reachable node exactly once."""
        seen: set[int] = set()
        stack: list[Op] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.inputs()))


# ----------------------------------------------------------------------- maintenance


@dataclass(frozen=True, eq=False)
class Load(Op):
    """Load a persistent vector by name from the storage context."""

    name: str
    category: ClassVar[str] = "maintenance"


@dataclass(frozen=True, eq=False)
class Persist(Op):
    """Persist *source* under *name* (a program output)."""

    name: str
    source: Op
    category: ClassVar[str] = "maintenance"
    pipeline_breaker: ClassVar[bool] = True


# --------------------------------------------------------------------- data-parallel

#: binary operators and their NumPy implementations / result dtype policy.
BINARY_OPS: dict[str, str] = {
    "Add": "add",
    "Subtract": "subtract",
    "Multiply": "multiply",
    "Divide": "divide",          # integer inputs -> floor division (paper's Divide)
    "Modulo": "mod",
    "BitShift": "left_shift",
    "LogicalAnd": "logical_and",
    "LogicalOr": "logical_or",
    "Greater": "greater",
    "GreaterEqual": "greater_equal",
    "Less": "less",
    "LessEqual": "less_equal",
    "Equals": "equal",
    "NotEquals": "not_equal",
}

COMPARISON_OPS = frozenset(
    {"Greater", "GreaterEqual", "Less", "LessEqual", "Equals", "NotEquals"}
)
LOGICAL_OPS = frozenset({"LogicalAnd", "LogicalOr"})


@dataclass(frozen=True, eq=False)
class Binary(Op):
    """Element-wise binary operation ``out = fn(left.kp1, right.kp2)``.

    ``fn`` is one of :data:`BINARY_OPS`.  Size-1 inputs broadcast (that is
    how ``Constant`` scalars combine with full vectors).  Output length is
    the smaller input length otherwise.
    """

    fn: str
    out: Keypath
    left: Op
    left_kp: Keypath
    right: Op
    right_kp: Keypath
    category: ClassVar[str] = "data-parallel"

    def _check(self) -> None:
        if self.fn not in BINARY_OPS:
            raise ProgramError(f"unknown binary operator {self.fn!r}")


@dataclass(frozen=True, eq=False)
class Unary(Op):
    """Element-wise unary op (``LogicalNot``, ``Negate``, ``Cast``,
    ``IsPresent`` — which reifies ε-ness as a dense boolean)."""

    fn: str
    out: Keypath
    source: Op
    source_kp: Keypath
    dtype: str | None = None  # only for Cast
    category: ClassVar[str] = "data-parallel"

    VALID: ClassVar[frozenset] = frozenset({"LogicalNot", "Negate", "Cast", "IsPresent"})

    def _check(self) -> None:
        if self.fn not in self.VALID:
            raise ProgramError(f"unknown unary operator {self.fn!r}")
        if self.fn == "Cast" and self.dtype is None:
            raise ProgramError("Cast requires a target dtype")


@dataclass(frozen=True, eq=False)
class Zip(Op):
    """Positional combination: ``.out1`` := left.kp1, ``.out2`` := right.kp2.

    Either keypath may designate a struct, in which case the whole
    substructure is re-rooted under the output name.  A ``None`` keypath
    (with a ``None`` output) carries *all* attributes of that side through
    unchanged — the paper's ``Zip(input, partitionIDs)`` idiom.
    """

    out1: Keypath | None
    left: Op
    kp1: Keypath | None
    out2: Keypath | None
    right: Op
    kp2: Keypath | None
    category: ClassVar[str] = "data-parallel"

    def _check(self) -> None:
        if (self.out1 is None) != (self.kp1 is None) or (self.out2 is None) != (self.kp2 is None):
            raise ProgramError("Zip: out and kp must be both set or both omitted per side")


@dataclass(frozen=True, eq=False)
class Project(Op):
    """Extract substructure ``source.kp`` re-rooted as ``.out``."""

    out: Keypath
    source: Op
    kp: Keypath
    category: ClassVar[str] = "data-parallel"


@dataclass(frozen=True, eq=False)
class Upsert(Op):
    """Copy *target* and replace-or-insert ``.out`` with ``value.kp``."""

    target: Op
    out: Keypath
    value: Op
    kp: Keypath
    category: ClassVar[str] = "data-parallel"


@dataclass(frozen=True, eq=False)
class Gather(Op):
    """Resolve integer positions into *source*: ``out[i] = source[pos[i]]``.

    Output size is the size of *positions*; out-of-bounds positions (and ε
    positions) produce ε output slots.  This is Voodoo's only pointer-like
    primitive (paper section 2.1).
    """

    source: Op
    positions: Op
    pos_kp: Keypath
    category: ClassVar[str] = "data-parallel"


@dataclass(frozen=True, eq=False)
class Scatter(Op):
    """Write ``data`` slots to positions ``positions.pos_kp`` of a new vector.

    The output size is the length of *sizeref* (Table 2's V2).  Writes are
    in-order within a value-run of ``run_kp`` (no cross-run ordering).  The
    compiling backend keeps scatters *virtual* — a position annotation —
    until a pipeline breaker forces materialization (paper section 3.1.3).
    """

    data: Op
    positions: Op
    pos_kp: Keypath
    sizeref: Op | None = None       # defaults to *positions*
    run_kp: Keypath | None = None   # ordering-run control attribute on *positions*
    category: ClassVar[str] = "data-parallel"


@dataclass(frozen=True, eq=False)
class Materialize(Op):
    """Force materialization of *source*, chunked by runs of ``control_kp``.

    With a control attribute this is X100-style vectorized processing: the
    producer/consumer loop is split into cache-sized chunks (paper Table 2,
    and the "Vectorized" variant of Figure 15).
    """

    source: Op
    control: Op | None = None
    control_kp: Keypath | None = None
    category: ClassVar[str] = "data-parallel"
    pipeline_breaker: ClassVar[bool] = True


@dataclass(frozen=True, eq=False)
class Break(Op):
    """Pure tuning hint: split *source* into segments per runs of ``kp``.

    Semantically the identity; operationally a pipeline breaker that forces
    the preceding computation to be materialized (paper Table 2, Figure 8).
    """

    source: Op
    control: Op | None = None
    kp: Keypath | None = None
    category: ClassVar[str] = "data-parallel"
    pipeline_breaker: ClassVar[bool] = True


@dataclass(frozen=True, eq=False)
class Partition(Op):
    """Generate a scatter-position vector grouping ``source.kp`` by pivots.

    Each value is assigned to the partition of the greatest pivot that is
    <= the value (pivots ascending).  Output positions place partitions
    contiguously and are stable within a partition.  Output size is the
    size of *source* (Table 2 note).
    """

    out: Keypath
    source: Op
    kp: Keypath
    pivots: Op
    pivot_kp: Keypath
    category: ClassVar[str] = "data-parallel"


# ------------------------------------------------------------------------------ fold


@dataclass(frozen=True, eq=False)
class FoldOp(Op):
    """Base for controlled folds.

    ``fold_kp`` names the control attribute on *source* whose value-runs
    delimit partitions; ``None`` means one run spanning the whole vector.
    Results are written at run starts; other slots are ε (paper Figure 7).
    """

    source: Op
    fold_kp: Keypath | None
    category: ClassVar[str] = "fold"


@dataclass(frozen=True, eq=False)
class FoldSelect(FoldOp):
    """Positions of slots with non-zero ``sel_kp``, compacted per run."""

    out: Keypath = None  # type: ignore[assignment]
    sel_kp: Keypath = None  # type: ignore[assignment]

    def _check(self) -> None:
        if self.out is None or self.sel_kp is None:
            raise ProgramError("FoldSelect requires out and sel_kp")


@dataclass(frozen=True, eq=False)
class FoldAggregate(FoldOp):
    """Sum/Max/Min of ``agg_kp`` per run, result at run start."""

    fn: str = None  # type: ignore[assignment]  # "sum" | "max" | "min"
    out: Keypath = None  # type: ignore[assignment]
    agg_kp: Keypath = None  # type: ignore[assignment]

    VALID: ClassVar[frozenset] = frozenset({"sum", "max", "min"})

    def _check(self) -> None:
        if self.fn not in self.VALID:
            raise ProgramError(f"unknown fold aggregate {self.fn!r}")
        if self.out is None or self.agg_kp is None:
            raise ProgramError("FoldAggregate requires out and agg_kp")


@dataclass(frozen=True, eq=False)
class FoldScan(FoldOp):
    """Per-run exclusive prefix sum of ``s_kp`` (dense output, no ε)."""

    out: Keypath = None  # type: ignore[assignment]
    s_kp: Keypath = None  # type: ignore[assignment]
    inclusive: bool = True

    def _check(self) -> None:
        if self.out is None or self.s_kp is None:
            raise ProgramError("FoldScan requires out and s_kp")


@dataclass(frozen=True, eq=False)
class FoldCount(FoldOp):
    """Count of present slots per run — the paper's macro over FoldSum."""

    out: Keypath = None  # type: ignore[assignment]
    counted_kp: Keypath | None = None

    def _check(self) -> None:
        if self.out is None:
            raise ProgramError("FoldCount requires out")


# ----------------------------------------------------------------------------- shape


@dataclass(frozen=True, eq=False)
class Range(Op):
    """``out[i] = start + floor(i*step)`` with the size of *sizeref*.

    The fundamental control-vector generator; carries symbolic
    :class:`~repro.core.controlvector.RunInfo` so the compiler never
    materializes it (paper sections 2.3 and 3.1.1).
    """

    out: Keypath
    start: int
    sizeref: Op | None  # None -> explicit integer size
    size: int | None
    step: int
    category: ClassVar[str] = "shape"

    def _check(self) -> None:
        if (self.sizeref is None) == (self.size is None):
            raise ProgramError("Range needs exactly one of sizeref / size")
        if self.size is not None and self.size < 0:
            raise ProgramError(f"Range size must be >= 0, got {self.size}")


@dataclass(frozen=True, eq=False)
class Constant(Op):
    """A size-1 vector holding one scalar; broadcasts in binary ops."""

    out: Keypath
    value: float | int | bool
    dtype: str
    category: ClassVar[str] = "shape"

    def _check(self) -> None:
        np.dtype(self.dtype)  # raises on nonsense early


@dataclass(frozen=True, eq=False)
class Cross(Op):
    """Cross product of the *positions* of two vectors.

    Output length ``|left| * |right|`` with ``.kp1``/``.kp2`` holding the
    position pairs in row-major order.
    """

    kp1: Keypath
    left: Op
    kp2: Keypath
    right: Op
    category: ClassVar[str] = "shape"
    pipeline_breaker: ClassVar[bool] = True


#: Operators whose result slot i depends on input slot i only — eligible for
#: fusion into a data-parallel fragment without changing extent.
ELEMENTWISE_OPS = (Binary, Unary, Zip, Project, Upsert)
