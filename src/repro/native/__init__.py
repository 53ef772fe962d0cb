"""Native CPU execution tier.

One C kernel — the segmented float sum of :mod:`repro.native.runner` —
compiled at runtime with the system compiler into a shared object cached
on disk by source fingerprint (:mod:`repro.native.jit`), and called over
the raw column buffers of :mod:`repro.compiler.rt_fast` in place of the
NumPy kernel, which still serves every call the C one cannot (no
compiler, another dtype).  Bit-identity with the NumPy kernels is the
contract; the conformance grid enforces it.
"""

from repro.native.jit import NativeCompileError, cache_dir, find_compiler, have_compiler
from repro.native.stats import STATS, snapshot

__all__ = [
    "NativeCompileError",
    "STATS",
    "cache_dir",
    "find_compiler",
    "have_compiler",
    "snapshot",
]
