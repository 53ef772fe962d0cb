"""Native CPU execution tier.

Lowers raw map chains (:func:`repro.native.plan.plan_raw_chains`) plus
the uniform-run fold kernels to straight-line C,
compiles them at runtime with the system compiler into shared objects
cached on disk by source fingerprint, and executes them over the raw
column buffers of :mod:`repro.compiler.rt_fast` — falling back to the
NumPy kernels per call whenever a chain, dtype or machine cannot be
served natively.  Bit-identity with the NumPy kernels is the contract;
the conformance grid enforces it.
"""

from repro.native.jit import NativeCompileError, cache_dir, find_compiler, have_compiler
from repro.native.plan import NativeChain, plan_native_chains
from repro.native.stats import STATS, snapshot, stats_reset

__all__ = [
    "NativeChain",
    "NativeCompileError",
    "STATS",
    "cache_dir",
    "find_compiler",
    "have_compiler",
    "plan_native_chains",
    "snapshot",
    "stats_reset",
]
