"""The interpreter backend (paper section 3.2).

A classic bulk-processor and the library's reference implementation: every
operator fully materializes its output :class:`StructuredVector`, making
all intermediates inspectable.  It is deliberately simple — correctness
and debuggability over speed — and defines the semantics the compiling
backend must match.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from repro.core import ops
from repro.core.controlvector import RunInfo
from repro.core.keypath import Keypath
from repro.core.program import Program
from repro.core.vector import StructuredVector
from repro.errors import ExecutionError
from repro.interpreter import semantics


class Interpreter:
    """Evaluates a :class:`Program` over a named-vector storage context."""

    #: per-class operator dispatch table, built once on first use
    #: (``{op class: unbound _eval_* method}``) — string-based getattr
    #: dispatch per node was a measurable cost on programs with many
    #: small nodes
    _dispatch: dict[type, object] | None = None

    def __init__(self, storage: Mapping[str, StructuredVector] | None = None):
        self._storage = dict(storage or {})

    @classmethod
    def _dispatch_table(cls) -> dict[type, object]:
        if cls.__dict__.get("_dispatch") is None:
            table = {}
            for op_class in _walk_op_classes(ops.Op):
                method = getattr(cls, f"_eval_{op_class.__name__.lower()}", None)
                if method is not None:
                    table[op_class] = method
            cls._dispatch = table
        return cls._dispatch

    def store(self, name: str, vector: StructuredVector) -> None:
        self._storage[name] = vector

    def run(self, program: Program) -> dict[str, StructuredVector]:
        """Execute and return the named outputs (Persist ops also captured)."""
        values: dict[int, StructuredVector] = {}
        persisted: dict[str, StructuredVector] = {}
        for node in program:
            result = values[id(node)] = self._eval(node, values)
            if isinstance(node, ops.Persist):
                persisted[node.name] = result
                self._storage[node.name] = result
        outputs = {name: values[id(node)] for name, node in program.outputs.items()}
        outputs.update(persisted)
        return outputs

    # -- dispatch ------------------------------------------------------------

    def _eval(self, node: ops.Op, values: dict[int, StructuredVector]) -> StructuredVector:
        method = self._dispatch_table().get(type(node))
        if method is None:
            raise ExecutionError(f"interpreter does not implement {node.opname}")
        return method(self, node, values)

    @staticmethod
    def _get(values: dict[int, StructuredVector], node: ops.Op) -> StructuredVector:
        return values[id(node)]

    # -- maintenance ------------------------------------------------------------

    def _eval_load(self, node: ops.Load, values) -> StructuredVector:
        try:
            return self._storage[node.name]
        except KeyError:
            raise ExecutionError(f"Load: no vector named {node.name!r} in storage") from None

    def _eval_persist(self, node: ops.Persist, values) -> StructuredVector:
        return self._get(values, node.source)

    # -- shape --------------------------------------------------------------------

    def _eval_range(self, node: ops.Range, values) -> StructuredVector:
        length = node.size if node.size is not None else len(self._get(values, node.sizeref))
        info = RunInfo(start=node.start, step=Fraction(node.step))
        data = info.materialize(length)
        return StructuredVector(length, {node.out: data}, runinfo={node.out: info})

    def _eval_constant(self, node: ops.Constant, values) -> StructuredVector:
        array = np.array([node.value], dtype=np.dtype(node.dtype))
        return StructuredVector(1, {node.out: array})

    def _eval_cross(self, node: ops.Cross, values) -> StructuredVector:
        n_left = len(self._get(values, node.left))
        n_right = len(self._get(values, node.right))
        left_pos = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
        right_pos = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        return StructuredVector(n_left * n_right, {node.kp1: left_pos, node.kp2: right_pos})

    # -- element-wise ----------------------------------------------------------------

    @staticmethod
    def _broadcast(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Size-1 vectors broadcast; otherwise truncate to the shorter input."""
        if len(a) == 1 and len(b) != 1:
            return np.broadcast_to(a, (len(b),)), b, len(b)
        if len(b) == 1 and len(a) != 1:
            return a, np.broadcast_to(b, (len(a),)), len(a)
        n = min(len(a), len(b))
        return a[:n], b[:n], n

    def _eval_binary(self, node: ops.Binary, values) -> StructuredVector:
        left_v = self._get(values, node.left)
        right_v = self._get(values, node.right)
        a = left_v.attr(node.left_kp)
        b = right_v.attr(node.right_kp)
        ma = None if left_v.is_dense(node.left_kp) else left_v.present(node.left_kp)
        mb = None if right_v.is_dense(node.right_kp) else right_v.present(node.right_kp)
        a, b, n = self._broadcast(a, b)
        if ma is not None:
            ma = np.broadcast_to(ma, (n,)) if len(ma) == 1 else ma[:n]
        if mb is not None:
            mb = np.broadcast_to(mb, (n,)) if len(mb) == 1 else mb[:n]

        result = apply_binary(node.fn, a, b)
        if ma is None and mb is None:
            mask = None
        elif ma is None:
            mask = mb.copy()
        elif mb is None:
            mask = ma.copy()
        else:
            mask = ma & mb
        info = self._derive_runinfo(node, left_v, right_v)
        return StructuredVector(
            n, {node.out: result}, {node.out: mask}, {node.out: info} if info else None
        )

    def _derive_runinfo(self, node: ops.Binary, left_v, right_v) -> RunInfo | None:
        """Propagate control-vector metadata through Divide/Modulo/Add/Multiply."""
        info = left_v.runinfo_for(node.left_kp)
        if info is None:
            return None
        other = self._get_scalar(right_v, node.right_kp)
        if other is None:
            return None
        try:
            if node.fn == "Divide":
                return info.divide(int(other))
            if node.fn == "Modulo":
                return info.modulo(int(other))
            if node.fn == "Multiply":
                return info.multiply(int(other))
            if node.fn == "Add":
                return info.add(int(other))
        except Exception:
            return None
        return None

    @staticmethod
    def _get_scalar(vector: StructuredVector, path: Keypath):
        if len(vector) == 1 and vector.is_dense(path):
            return vector.attr(path)[0]
        return None

    def _eval_unary(self, node: ops.Unary, values) -> StructuredVector:
        src = self._get(values, node.source)
        a = src.attr(node.source_kp)
        mask = None if src.is_dense(node.source_kp) else src.present(node.source_kp)
        result, mask = apply_unary(node.fn, a, mask, node.dtype)
        return StructuredVector(len(a), {node.out: result}, {node.out: mask})

    def _eval_zip(self, node: ops.Zip, values) -> StructuredVector:
        left = self._get(values, node.left)
        right = self._get(values, node.right)
        if node.kp1 is not None:
            left = left.project(node.kp1, node.out1)
        if node.kp2 is not None:
            right = right.project(node.kp2, node.out2)
        return left.zip(right)

    def _eval_project(self, node: ops.Project, values) -> StructuredVector:
        return self._get(values, node.source).project(node.kp, node.out)

    def _eval_upsert(self, node: ops.Upsert, values) -> StructuredVector:
        target = self._get(values, node.target)
        value = self._get(values, node.value)
        array = value.attr(node.kp)
        mask = None if value.is_dense(node.kp) else value.present(node.kp)
        n = len(target)
        if len(array) == 1 and n != 1:
            array = np.broadcast_to(array, (n,)).copy()
            mask = None if mask is None else np.broadcast_to(mask, (n,)).copy()
        elif len(array) < n:
            raise ExecutionError(
                f"Upsert: value length {len(array)} shorter than target {n}"
            )
        return target.with_attr(node.out, array[:n], None if mask is None else mask[:n])

    def _eval_gather(self, node: ops.Gather, values) -> StructuredVector:
        source = self._get(values, node.source)
        positions = self._get(values, node.positions)
        pos = positions.attr(node.pos_kp)
        pos_mask = None if positions.is_dense(node.pos_kp) else positions.present(node.pos_kp)
        cols = {p: source.attr(p) for p in source.paths}
        masks = {
            p: (None if source.is_dense(p) else source.present(p)) for p in source.paths
        }
        out_cols, out_masks = semantics.gather(pos, pos_mask, len(source), cols, masks)
        return StructuredVector(len(pos), out_cols, out_masks)

    def _eval_scatter(self, node: ops.Scatter, values) -> StructuredVector:
        data = self._get(values, node.data)
        positions = self._get(values, node.positions)
        sizeref = positions if node.sizeref is None else self._get(values, node.sizeref)
        pos = positions.attr(node.pos_kp)
        pos_mask = None if positions.is_dense(node.pos_kp) else positions.present(node.pos_kp)
        cols = {p: data.attr(p) for p in data.paths}
        masks = {p: (None if data.is_dense(p) else data.present(p)) for p in data.paths}
        out_cols, out_masks = semantics.scatter(pos, pos_mask, len(sizeref), cols, masks)
        return StructuredVector(len(sizeref), out_cols, out_masks)

    def _eval_materialize(self, node: ops.Materialize, values) -> StructuredVector:
        return self._get(values, node.source)

    def _eval_break(self, node: ops.Break, values) -> StructuredVector:
        return self._get(values, node.source)

    def _eval_partition(self, node: ops.Partition, values) -> StructuredVector:
        source = self._get(values, node.source)
        pivots = self._get(values, node.pivots)
        vals = source.attr(node.kp)
        mask = None if source.is_dense(node.kp) else source.present(node.kp)
        positions, out_present = semantics.partition_positions(
            vals, mask, pivots.attr(node.pivot_kp)
        )
        present = None if out_present.all() else out_present
        return StructuredVector(len(vals), {node.out: positions}, {node.out: present})

    # -- folds -----------------------------------------------------------------------

    def _control_of(
        self, vector: StructuredVector, fold_kp: Keypath | None
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        if fold_kp is None:
            return None, None
        mask = None if vector.is_dense(fold_kp) else vector.present(fold_kp)
        return vector.attr(fold_kp), mask

    def _eval_foldselect(self, node: ops.FoldSelect, values) -> StructuredVector:
        source = self._get(values, node.source)
        control, cmask = self._control_of(source, node.fold_kp)
        sel = source.attr(node.sel_kp)
        sel_mask = None if source.is_dense(node.sel_kp) else source.present(node.sel_kp)
        out, present = semantics.fold_select(control, sel, sel_mask, cmask)
        return StructuredVector(len(out), {node.out: out}, {node.out: present})

    def _eval_foldaggregate(self, node: ops.FoldAggregate, values) -> StructuredVector:
        source = self._get(values, node.source)
        control, cmask = self._control_of(source, node.fold_kp)
        vals = source.attr(node.agg_kp)
        mask = None if source.is_dense(node.agg_kp) else source.present(node.agg_kp)
        out, present = semantics.fold_aggregate(node.fn, control, vals, mask, cmask)
        return StructuredVector(len(out), {node.out: out}, {node.out: present})

    def _eval_foldscan(self, node: ops.FoldScan, values) -> StructuredVector:
        source = self._get(values, node.source)
        control, cmask = self._control_of(source, node.fold_kp)
        vals = source.attr(node.s_kp)
        mask = None if source.is_dense(node.s_kp) else source.present(node.s_kp)
        out, present = semantics.fold_scan(control, vals, mask, node.inclusive, cmask)
        return StructuredVector(len(out), {node.out: out}, {node.out: present})

    def _eval_foldcount(self, node: ops.FoldCount, values) -> StructuredVector:
        source = self._get(values, node.source)
        control, cmask = self._control_of(source, node.fold_kp)
        counted_kp = node.counted_kp
        if counted_kp is None and len(source.paths) == 1:
            counted_kp = source.paths[0]
        counted_mask = None
        if counted_kp is not None and not source.is_dense(counted_kp):
            counted_mask = source.present(counted_kp)
        out, present = semantics.fold_count(control, len(source), counted_mask, cmask)
        return StructuredVector(len(out), {node.out: out}, {node.out: present})


def apply_unary(
    fn: str, a: np.ndarray, mask: np.ndarray | None, dtype: str | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Shared element-wise implementation of the unary operators.

    Returns ``(result, mask)``; the mask is passed through unchanged
    (shared, not copied) except for ``IsPresent``, which reifies ε-ness
    as a dense boolean (used for semi-joins).  All three backends call
    this so the operator semantics live in exactly one place.
    """
    if fn == "LogicalNot":
        return ~_truth(a), mask
    if fn == "Negate":
        return (-a.astype(np.int64) if a.dtype.kind == "u" else -a), mask
    if fn == "IsPresent":
        return (np.ones(len(a), dtype=bool) if mask is None else mask.copy()), None
    return a.astype(np.dtype(dtype)), mask  # Cast


def _truth(a: np.ndarray) -> np.ndarray:
    """``a != 0`` — which a boolean array (every comparison result) is
    already, so the logical operators skip that pass and its temporary."""
    return a if a.dtype.kind == "b" else a != 0


def _walk_op_classes(base: type):
    """All concrete operator classes reachable from *base*."""
    yield base
    for sub in base.__subclasses__():
        yield from _walk_op_classes(sub)


def _divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    zero = b == 0
    has_zero = bool(zero.any())
    if a.dtype.kind in "iub" and b.dtype.kind in "iub":
        with np.errstate(divide="ignore"):
            return a // np.where(zero, 1, b) if has_zero else a // b
    with np.errstate(divide="ignore", invalid="ignore"):
        if not has_zero:
            return a / b
        return np.where(zero, 0.0, a / np.where(zero, 1, b))


#: the element-wise kernel of every :data:`repro.core.ops.BINARY_OPS` name;
#: each broadcasts a length-1 operand itself, zero guards included
_BINARY = {
    "Add": np.add,
    "Subtract": np.subtract,
    "Multiply": np.multiply,
    "Divide": _divide,
    "Modulo": lambda a, b: a % np.where(b == 0, 1, b),
    "BitShift": lambda a, b: np.left_shift(a.astype(np.int64), b.astype(np.int64)),
    "LogicalAnd": lambda a, b: _truth(a) & _truth(b),
    "LogicalOr": lambda a, b: _truth(a) | _truth(b),
    "Greater": np.greater,
    "GreaterEqual": np.greater_equal,
    "Less": np.less,
    "LessEqual": np.less_equal,
    "Equals": np.equal,
    "NotEquals": np.not_equal,
}


def apply_binary(fn: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shared element-wise implementation of :data:`repro.core.ops.BINARY_OPS`."""
    kernel = _BINARY.get(fn)
    if kernel is None:
        raise ExecutionError(f"unknown binary function {fn!r}")
    return kernel(a, b)
