"""The native kernel provider of the node runner: one compiled C kernel.

``ProgramRunner(..., native=True)`` (:mod:`repro.compiler.runner`) hands
its runtime the two per-run aggregate kernels of this module —
:func:`fold_aggregate_segments` (present rows of a compact column) and
:func:`fold_aggregate_uniform` (a dense one).  Both compute a float sum of
every segment in C (``fsum_f4`` / ``fsum_f8``): the additions
``np.bincount`` performs — each segment's values in input order into a
double — without the run-id vector NumPy must first be handed: 8.5-9x
faster than :mod:`repro.compiler.kernels` at 120 k-262 k rows (2-CPU
Xeon, gcc 12 ``-O3``).  Everything else runs the NumPy kernels on both
tiers: integer sums, min/max, selections, gathers, a grouped fold over a
virtual scatter (``kernels.fold_aggregate_groups``) and every map — maps
are bandwidth-bound, and per-row C loops over them measured slower than
NumPy's calls on the same host.

The library is one fixed source, compiled once per machine through
:mod:`repro.native.jit` and loaded once per process.  Without a compiler
(or with a broken one) the reason is counted once and every call returns
the NumPy kernel's result — bit-identical either way.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.compiler import kernels
from repro.native.jit import NativeCompileError, find_compiler, load_library
from repro.native.stats import STATS

#: the value dtypes the kernel sums (kind + item size), with their C types
FSUM_TYPES = {"f4": "float", "f8": "double"}


def _fsum_source(code: str, ctype: str) -> str:
    return f"""
void fsum_{code}(const {ctype}* vals, const int64_t* starts, int64_t m, int64_t k,
                 double* out) {{
  for (int64_t s = 0; s < m; ++s) {{
    int64_t end = s + 1 < m ? starts[s + 1] : k;
    double acc = 0.0;
    for (int64_t i = starts[s]; i < end; ++i) acc += (double)vals[i];
    out[s] = acc;
  }}
}}
"""


def library_source() -> str:
    """The C source of the kernel library (one fixed text: one ``.so``
    per machine).  No ``-ffast-math``: the compiler may not reorder the
    additions."""
    parts = ["#include <stdint.h>\n", "// native fold kernels emitted by repro.native.runner"]
    parts.extend(_fsum_source(code, ctype) for code, ctype in FSUM_TYPES.items())
    return "".join(parts)


_lock = threading.Lock()
#: {dtype code: loaded kernel}; None until first asked for, empty when the
#: machine cannot compile or load the library
_kernels: dict | None = None


def _fsum_kernels() -> dict:
    global _kernels
    if _kernels is None:
        with _lock:
            if _kernels is None:
                try:
                    library = load_library(library_source())
                except NativeCompileError:
                    STATS.fallback(
                        "no-compiler" if find_compiler() is None else "compile-error"
                    )
                    _kernels = {}
                else:
                    loaded = {code: getattr(library, f"fsum_{code}") for code in FSUM_TYPES}
                    for kernel in loaded.values():
                        kernel.restype = None
                    _kernels = loaded
    return _kernels


def native_fold_segments(fn: str, values: np.ndarray, starts: np.ndarray):
    """``kernels.fold_aggregate_segments`` in C — the float sum of every
    segment of *values* starting at *starts* — or None when the call is
    not one the kernel serves (or the machine has no kernel)."""
    if fn != "sum" or values.dtype.kind != "f" or len(starts) == 0:
        return None
    kernel = _fsum_kernels().get(f"f{values.dtype.itemsize}")
    if kernel is None:
        return None
    values = np.ascontiguousarray(values)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    out = np.empty(len(starts), dtype=np.float64)
    kernel(
        ctypes.c_void_p(values.ctypes.data),
        ctypes.c_void_p(starts.ctypes.data),
        ctypes.c_int64(len(starts)),
        ctypes.c_int64(len(values)),
        ctypes.c_void_p(out.ctypes.data),
    )
    STATS.count("fold_calls")
    return out


def fold_aggregate_segments(fn, values, starts):
    res = native_fold_segments(fn, values, starts)
    if res is not None:
        return res
    return kernels.fold_aggregate_segments(fn, values, starts)


def fold_aggregate_uniform(fn, values, run_length, n):
    res = native_fold_segments(fn, values, np.arange(0, n, run_length or n))
    if res is not None:
        return res
    return kernels.fold_aggregate_uniform(fn, values, run_length, n)
