"""Static schema inference for Voodoo programs.

Voodoo is statically typed: every node's output schema is determined by its
inputs' schemas and its parameters.  Backends rely on this pass both to
validate programs before execution and to allocate outputs (the paper's
"outputs of statically known size", section 3.1.2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.core import ops
from repro.core.keypath import Keypath
from repro.core.program import Program
from repro.core.schema import Schema
from repro.errors import TypeCheckError

POSITION_DTYPE = np.dtype(np.int64)
_BOOL = np.dtype(bool)
_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)


@lru_cache(maxsize=4096)
def single(path: Keypath, dtype) -> Schema:
    """The one-field schema ``{path: dtype}``, validated once and shared
    by every node (of every program) that produces it — most operators
    produce one attribute, under a handful of names."""
    return Schema({path: dtype})


def promote(a: np.dtype, b: np.dtype) -> np.dtype:
    """Binary arithmetic result dtype (NumPy promotion, bools count as ints)."""
    if a.kind == "b":
        a = np.dtype(np.int64)
    if b.kind == "b":
        b = np.dtype(np.int64)
    return np.promote_types(a, b)


class TypeChecker:
    """Infers and caches the output :class:`Schema` of every node."""

    def __init__(self, load_schemas: Mapping[str, Schema]):
        self._load_schemas = dict(load_schemas)
        self._cache: dict[int, Schema] = {}

    def check(self, program: Program) -> dict[int, Schema]:
        """Schema for every node in the program, keyed by ``id(node)``."""
        for node in program:
            self._cache[id(node)] = self._infer(node)
        return dict(self._cache)

    def schema_of(self, node: ops.Op) -> Schema:
        cache = self._cache
        schema = cache.get(id(node))
        if schema is not None:
            return schema
        for child in node._inputs:
            if id(child) not in cache:
                break
        else:  # a node made by a builder: its inputs were typed when made
            schema = cache[id(node)] = self._infer(node)
            return schema
        # inputs-first walk over the *untyped* ancestors only: typed
        # nodes end the walk, so a program typed while it is built
        # infers every node once and never re-walks what it has seen
        stack = [node]
        while stack:
            top = stack[-1]
            untyped = [c for c in top.inputs() if id(c) not in cache]
            if untyped:
                stack.extend(untyped)
                continue
            stack.pop()
            if id(top) not in cache:
                cache[id(top)] = self._infer(top)
        return cache[id(node)]

    # -- per-operator rules -------------------------------------------------

    def _scalar(self, schema: Schema, path: Keypath, who: str) -> np.dtype:
        dtype = schema.leaf(path)
        if dtype is None:  # not a leaf: say whether it names a struct or nothing
            schema.resolve(path)
            raise TypeCheckError(f"{who}: keypath {path} must name a scalar leaf")
        return dtype

    def _infer(self, node: ops.Op) -> Schema:
        rule = _RULES.get(type(node))
        if rule is None:
            raise TypeCheckError(f"no type rule for operator {node.opname}")
        try:
            return rule(self, node)
        except TypeCheckError:
            raise
        except Exception as exc:  # keep the node context in the error
            raise TypeCheckError(f"{node.opname}: {exc}") from exc

    def _infer_load(self, node: ops.Load) -> Schema:
        try:
            return self._load_schemas[node.name]
        except KeyError:
            raise TypeCheckError(f"Load: unknown vector {node.name!r}") from None

    def _infer_persist(self, node: ops.Persist) -> Schema:
        return self._cache[id(node.source)]

    def _infer_binary(self, node: ops.Binary) -> Schema:
        left = self._scalar(self._cache[id(node.left)], node.left_kp, node.opname)
        right = self._scalar(self._cache[id(node.right)], node.right_kp, node.opname)
        if node.fn in ops.COMPARISON_OPS or node.fn in ops.LOGICAL_OPS:
            dtype = _BOOL
        else:  # (an integer Divide stays integral: promotion keeps it so)
            dtype = promote(left, right)
        return single(node.out, dtype)

    def _infer_unary(self, node: ops.Unary) -> Schema:
        src = self._scalar(self._cache[id(node.source)], node.source_kp, node.fn)
        if node.fn in ("LogicalNot", "IsPresent"):
            dtype = _BOOL
        elif node.fn == "Cast":
            dtype = node.dtype
        else:  # Negate
            dtype = src if src.kind != "u" else _INT64
        return single(node.out, dtype)

    def _rerooted(self, schema: Schema, path: Keypath, out: Keypath) -> Schema:
        dtype = schema.leaf(path)
        if dtype is not None:  # scalar leaf
            return single(out, dtype)
        return schema.subschema(path).nest(out)

    def _infer_zip(self, node: ops.Zip) -> Schema:
        left = (
            self._cache[id(node.left)]
            if node.kp1 is None
            else self._rerooted(self._cache[id(node.left)], node.kp1, node.out1)
        )
        right = (
            self._cache[id(node.right)]
            if node.kp2 is None
            else self._rerooted(self._cache[id(node.right)], node.kp2, node.out2)
        )
        merged = left.merge(right)
        if len(merged) < len(left) + len(right):
            overlap = [path for path in right.paths() if path in left]
            raise TypeCheckError(f"Zip output attributes collide: {sorted(map(str, overlap))}")
        return merged

    def _infer_project(self, node: ops.Project) -> Schema:
        return self._rerooted(self._cache[id(node.source)], node.kp, node.out)

    def _infer_upsert(self, node: ops.Upsert) -> Schema:
        base = self._cache[id(node.target)]
        dtype = self._scalar(self._cache[id(node.value)], node.kp, "Upsert")
        fields = {p: d for p, d in base.items() if p != node.out}
        fields[node.out] = dtype
        return Schema.of_fields(fields)

    def _infer_gather(self, node: ops.Gather) -> Schema:
        self._scalar(self._cache[id(node.positions)], node.pos_kp, "Gather")
        return self._cache[id(node.source)]

    def _infer_scatter(self, node: ops.Scatter) -> Schema:
        self._scalar(self._cache[id(node.positions)], node.pos_kp, "Scatter")
        return self._cache[id(node.data)]

    def _infer_materialize(self, node: ops.Materialize) -> Schema:
        if node.control is not None and node.control_kp is not None:
            self._scalar(self._cache[id(node.control)], node.control_kp, "Materialize")
        return self._cache[id(node.source)]

    def _infer_break(self, node: ops.Break) -> Schema:
        return self._cache[id(node.source)]

    def _infer_partition(self, node: ops.Partition) -> Schema:
        self._scalar(self._cache[id(node.source)], node.kp, "Partition")
        self._scalar(self._cache[id(node.pivots)], node.pivot_kp, "Partition")
        return single(node.out, POSITION_DTYPE)

    def _infer_foldselect(self, node: ops.FoldSelect) -> Schema:
        self._fold_control(node)
        self._scalar(self._cache[id(node.source)], node.sel_kp, "FoldSelect")
        return single(node.out, POSITION_DTYPE)

    def _infer_foldaggregate(self, node: ops.FoldAggregate) -> Schema:
        self._fold_control(node)
        dtype = self._scalar(self._cache[id(node.source)], node.agg_kp, f"Fold{node.fn}")
        if node.fn == "sum":
            # Sums widen to avoid overflow, like every real engine.
            dtype = _FLOAT64 if dtype.kind == "f" else _INT64
        return single(node.out, dtype)

    def _infer_foldscan(self, node: ops.FoldScan) -> Schema:
        self._fold_control(node)
        dtype = self._scalar(self._cache[id(node.source)], node.s_kp, "FoldScan")
        return single(node.out, _FLOAT64 if dtype.kind == "f" else _INT64)

    def _infer_foldcount(self, node: ops.FoldCount) -> Schema:
        self._fold_control(node)
        if node.counted_kp is not None:
            self._scalar(self._cache[id(node.source)], node.counted_kp, "FoldCount")
        return single(node.out, POSITION_DTYPE)

    def _fold_control(self, node: ops.FoldOp) -> None:
        if node.fold_kp is not None:
            self._scalar(self._cache[id(node.source)], node.fold_kp, node.opname)

    def _infer_range(self, node: ops.Range) -> Schema:
        return single(node.out, POSITION_DTYPE)

    def _infer_constant(self, node: ops.Constant) -> Schema:
        return single(node.out, node.dtype)

    def _infer_cross(self, node: ops.Cross) -> Schema:
        return Schema({node.kp1: POSITION_DTYPE, node.kp2: POSITION_DTYPE})


#: operator class -> its type rule (looked up per node, by exact class)
_RULES = {
    ops.Load: TypeChecker._infer_load,
    ops.Persist: TypeChecker._infer_persist,
    ops.Binary: TypeChecker._infer_binary,
    ops.Unary: TypeChecker._infer_unary,
    ops.Zip: TypeChecker._infer_zip,
    ops.Project: TypeChecker._infer_project,
    ops.Upsert: TypeChecker._infer_upsert,
    ops.Gather: TypeChecker._infer_gather,
    ops.Scatter: TypeChecker._infer_scatter,
    ops.Materialize: TypeChecker._infer_materialize,
    ops.Break: TypeChecker._infer_break,
    ops.Partition: TypeChecker._infer_partition,
    ops.FoldSelect: TypeChecker._infer_foldselect,
    ops.FoldAggregate: TypeChecker._infer_foldaggregate,
    ops.FoldScan: TypeChecker._infer_foldscan,
    ops.FoldCount: TypeChecker._infer_foldcount,
    ops.Range: TypeChecker._infer_range,
    ops.Constant: TypeChecker._infer_constant,
    ops.Cross: TypeChecker._infer_cross,
}
