"""Runtime C compilation with an on-disk shared-object cache.

Kernels are compiled with the system C compiler (``$CC`` or the first
of ``cc``/``gcc``/``clang`` on PATH) into per-source shared objects
keyed by the SHA-256 of the source text.  The key is content-addressed,
so a recompile only ever happens for source the machine has never seen:
steady-state serving loads everything from the in-memory registry or
the disk cache (``$REPRO_NATIVE_CACHE``, default
``~/.cache/voodoo-native``) and compiles nothing.

A cached ``.so`` that does not load, or lacks a symbol its caller
needs, is recompiled once in place.  No compiler, a broken ``$CC``, a
failed compile or a cached file that cannot be rebuilt all raise
:class:`NativeCompileError`, whose ``reason`` names which; callers
degrade to the fused NumPy path and the fallback is counted in
:mod:`repro.native.stats`.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
from _ctypes import dlclose
from hashlib import sha256
from pathlib import Path

from repro.native.stats import STATS

#: Flags for every kernel: ``-fwrapv`` makes signed overflow wrap like
#: NumPy's fixed-width integers instead of being undefined behaviour.
CFLAGS = ("-O3", "-fPIC", "-shared", "-fwrapv")

_lock = threading.Lock()
#: source hash -> loaded CDLL (process-wide; .so files are immutable)
_loaded: dict[str, ctypes.CDLL] = {}


class NativeCompileError(RuntimeError):
    """The machine cannot compile or load a native kernel; ``reason``
    is the fallback reason counted for it (``"no-compiler"``,
    ``"compile-error"`` or ``"bad-cache"``)."""

    def __init__(self, message: str, reason: str = "compile-error"):
        super().__init__(message)
        self.reason = reason


def find_compiler() -> list[str] | None:
    """The C compiler argv prefix, or None when the machine has none.

    ``$CC`` wins when set (and must resolve — a bogus path means "no
    compiler", which is how tests force the fallback path).
    """
    cc = os.environ.get("CC")
    if cc:
        argv = shlex.split(cc)
        return argv if argv and shutil.which(argv[0]) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return [path]
    return None


def have_compiler() -> bool:
    return find_compiler() is not None


def cache_dir() -> Path:
    """The on-disk .so cache root (``$REPRO_NATIVE_CACHE`` overrides)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "voodoo-native"


def source_key(source: str) -> str:
    return sha256(source.encode()).hexdigest()[:24]


def _compile(source: str, out: Path) -> None:
    compiler = find_compiler()
    if compiler is None:
        raise NativeCompileError(
            "no C compiler available (set $CC or install cc)", "no-compiler"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    src = out.with_suffix(".c")
    src.write_text(source)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    try:
        proc = subprocess.run(
            [*compiler, *CFLAGS, "-o", tmp, str(src)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise NativeCompileError(
                f"{compiler[0]} failed ({proc.returncode}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, out)  # atomic: concurrent compiles race benignly
    except OSError as exc:
        raise NativeCompileError(f"cannot run {compiler[0]}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path, symbols: tuple[str, ...]) -> ctypes.CDLL | None:
    """The library at *path* if it loads and has every one of *symbols*."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    if all(hasattr(lib, name) for name in symbols):
        return lib
    # unload it, or loading the rebuilt file at this path returns this handle
    dlclose(lib._handle)
    return None


def load_library(source: str, symbols: tuple[str, ...] = ()) -> ctypes.CDLL:
    """The loaded shared object for a C source, compiling at most once.

    Resolution order: in-memory registry (``memory_hits``), on-disk .so
    (``so_cache_hits``), fresh compile (``kernels_compiled``).  A cached
    file that fails to load or lacks one of *symbols* is compiled again
    in place; if that fails too, the error's reason is ``"bad-cache"``.
    """
    key = source_key(source)
    with _lock:
        lib = _loaded.get(key)
        if lib is not None:
            STATS.count("memory_hits")
            return lib
        path = cache_dir() / f"{key}.so"
        cached = path.exists()
        lib = _open(path, symbols) if cached else None
        if lib is not None:
            STATS.count("so_cache_hits")
        else:
            try:
                _compile(source, path)
                STATS.count("kernels_compiled")
                lib = _open(path, symbols)
                if lib is None:
                    raise NativeCompileError(f"cannot load {path} with {list(symbols)}")
            except NativeCompileError as exc:
                if not cached:
                    raise
                raise NativeCompileError(f"{path} is unusable: {exc}", "bad-cache") from exc
        _loaded[key] = lib
        return lib
