"""Native kernel execution: chain specialization and fold wrappers.

A :class:`ChainKernel` owns one planned chain.  Per input signature
(dtype, scalar-ness, masked-ness of every input) it probes the *Python*
fused path on zero-length slices to learn NumPy's result dtypes, emits
the specialized C source, compiles it through the JIT cache and calls
it via ctypes (which releases the GIL, so native chains parallelize on
thread pools).  Any signature the lowering cannot serve is memoized as
a fallback marker and runs through the exact
:func:`~repro.compiler.rt_fast.fused_binary` /
:func:`~repro.interpreter.engine.apply_unary` kernels the node runner
would have called — per call, per signature, silently.

Masks never reach C: chain values cannot depend on them (``IsPresent``
is excluded at plan time), so output masks are derived here with the
shared-mask semantics of the fused runtime (None = dense; a single
masked input's mask is *shared*, not copied; multiple masks AND into a
fresh array).

The module also wraps the fixed fold-kernel library: a drop-in native
version of the segmented float sum in :mod:`repro.compiler.kernels`,
returning None whenever the machine or dtype cannot be served so
callers keep the NumPy path.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.compiler.rt_fast import fused_binary, literal
from repro.interpreter.engine import apply_unary
from repro.native.emit import (
    FSUM_CODES,
    EmitError,
    chain_source,
    fold_library_source,
)
from repro.native.jit import NativeCompileError, find_compiler, load_library
from repro.native.stats import STATS

_CTYPES = {
    "b1": ctypes.c_uint8,
    "i1": ctypes.c_int8, "i2": ctypes.c_int16, "i4": ctypes.c_int32,
    "i8": ctypes.c_int64,
    "u1": ctypes.c_uint8, "u2": ctypes.c_uint16, "u4": ctypes.c_uint32,
    "u8": ctypes.c_uint64,
    "f4": ctypes.c_float, "f8": ctypes.c_double,
}


def _code(dtype) -> str:
    dt = np.dtype(dtype)
    return dt.kind + str(dt.itemsize)


def _ptr(array: np.ndarray, keep: list) -> ctypes.c_void_p:
    """A data pointer, keeping any contiguity copy alive in ``keep``."""
    array = np.ascontiguousarray(array)
    keep.append(array)
    return ctypes.c_void_p(array.ctypes.data)


# ------------------------------------------------------------- map chains


def run_chain_python(chain, pairs):
    """Every step's (array, mask), via the exact fused Python kernels."""
    vals: list[tuple] = []

    def resolve(ref):
        kind = ref[0]
        if kind == "in":
            return pairs[ref[1]]
        if kind == "step":
            return vals[ref[1]]
        return literal(ref[1], ref[2]), None

    for step in chain.steps:
        operands = [resolve(r) for r in step.refs]
        if step.kind == "binary":
            (a, ma), (b, mb) = operands
            vals.append(fused_binary(step.fn, a, ma, b, mb))
        else:
            ((a, ma),) = operands
            vals.append(apply_unary(step.fn, a, ma, step.dtype))
    return vals


class _Spec:
    """One compiled (chain, signature) specialization."""

    __slots__ = ("chain", "func", "scalar", "in_ctypes", "out_dtypes", "mask_sets")

    def __init__(self, chain, func, scalar, in_ctypes, out_dtypes, mask_sets):
        self.chain = chain
        self.func = func
        self.scalar = scalar
        self.in_ctypes = in_ctypes
        self.out_dtypes = out_dtypes
        self.mask_sets = mask_sets

    def __call__(self, pairs):
        n = 1
        for (a, _), s in zip(pairs, self.scalar):
            if not s:
                n = len(a)
                break
        keep: list = []
        args: list = []
        for (a, _), s, ct in zip(pairs, self.scalar, self.in_ctypes):
            args.append(ct(a[0].item()) if s else _ptr(a, keep))
        outs: dict[int, np.ndarray] = {}
        for j, dt in zip(self.chain.outputs, self.out_dtypes):
            arr = np.empty(n, dtype=dt)
            outs[j] = arr
            args.append(ctypes.c_void_p(arr.ctypes.data))
        args.append(ctypes.c_size_t(n))
        self.func(*args)
        STATS.count("chain_calls")

        results = []
        for j in self.chain.outputs:
            members = self.mask_sets[j]
            if not members:
                mask = None
            elif len(members) == 1:
                mask = pairs[members[0]][1]  # shared, like fused_binary
            else:
                mask = pairs[members[0]][1] & pairs[members[1]][1]
                for k in members[2:]:
                    mask &= pairs[k][1]
            results.append((outs[j], mask))
        return results


class ChainKernel:
    """Executable form of one :class:`~repro.native.plan.NativeChain`."""

    def __init__(self, chain):
        self.chain = chain
        self._specs: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _python(self, pairs):
        vals = run_chain_python(self.chain, pairs)
        return [vals[j] for j in self.chain.outputs]

    def __call__(self, pairs, scalar=None):
        """``scalar``: which inputs broadcast (default: the length-1
        ones).  A caller whose row count is data-dependent says so
        itself, so that one row is not a signature of its own."""
        lengths = {len(a) for a, _ in pairs if len(a) != 1}
        if len(lengths) > 1:
            # fused_binary truncates step by step; not worth replicating
            STATS.fallback("length-mismatch")
            return self._python(pairs)
        if scalar is None:
            scalar = [len(a) == 1 for a, _ in pairs]
        key = tuple(
            (_code(a.dtype), s, m is not None) for (a, m), s in zip(pairs, scalar)
        )
        with self._lock:
            spec = self._specs.get(key)
            if spec is None:
                spec = self._specs[key] = self._build(pairs, key)
        if isinstance(spec, str):
            STATS.fallback(spec)
            return self._python(pairs)
        return spec(pairs)

    def _build(self, pairs, key):
        scalar = [s for _, s, _ in key]
        if any(s and m for _, s, m in key):
            return "masked-scalar"
        dtypes = [a.dtype for a, _ in pairs]
        probe = [
            (np.zeros(1 if s else 0, dtype=dt), None)
            for dt, s in zip(dtypes, scalar)
        ]
        try:
            step_vals = run_chain_python(self.chain, probe)
        except Exception:
            return "probe-failed"
        step_dtypes = [v.dtype for v, _ in step_vals]
        try:
            source = chain_source(self.chain, dtypes, scalar, step_dtypes)
        except EmitError as exc:
            return str(exc)
        try:
            func = load_library(source).voodoo_chain
        except NativeCompileError:
            return "no-compiler" if find_compiler() is None else "compile-error"
        func.restype = None

        mask_sets: list[list[int]] = []
        for step in self.chain.steps:
            members: set[int] = set()
            for ref in step.refs:
                if ref[0] == "in" and key[ref[1]][2]:
                    members.add(ref[1])
                elif ref[0] == "step":
                    members.update(mask_sets[ref[1]])
            mask_sets.append(sorted(members))

        return _Spec(
            self.chain,
            func,
            scalar,
            [_CTYPES[c] for c, _, _ in key],
            [step_dtypes[j] for j in self.chain.outputs],
            {j: mask_sets[j] for j in self.chain.outputs},
        )


# ------------------------------------------------------------ fold kernels

_fold_lock = threading.Lock()
_fold_lib: ctypes.CDLL | None | bool = None  # None = untried, False = unavailable


def _library() -> ctypes.CDLL | None:
    global _fold_lib
    with _fold_lock:
        if _fold_lib is None:
            try:
                _fold_lib = load_library(fold_library_source())
            except NativeCompileError:
                _fold_lib = False
                STATS.fallback(
                    "no-compiler" if find_compiler() is None else "compile-error"
                )
        return _fold_lib or None


def _fold_entry(name: str):
    lib = _library()
    if lib is None:
        return None
    func = getattr(lib, name)
    func.restype = None
    return func


def native_fold_segments(fn: str, values, starts):
    """Native ``kernels.fold_aggregate_segments`` (the float sum of every
    segment), or None if not servable."""
    code = _code(values.dtype)
    if fn != "sum" or code not in FSUM_CODES or len(starts) == 0:
        return None
    func = _fold_entry(f"fsum_{code}")
    if func is None:
        return None
    out = np.empty(len(starts), dtype=np.float64)
    keep: list = []
    func(
        _ptr(values, keep),
        _ptr(starts.astype(np.int64, copy=False), keep),
        ctypes.c_int64(len(starts)),
        ctypes.c_int64(len(values)),
        ctypes.c_void_p(out.ctypes.data),
    )
    STATS.count("fold_calls")
    return out
