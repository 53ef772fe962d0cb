"""Out-of-core execution: TPC-H over an mmap-loaded compressed catalog
in a child process whose heap is capped, bit-identical to the uncapped
in-RAM run of the same catalog.

``RLIMIT_DATA`` exempts file-backed mappings, so the cap binds exactly
what out-of-core execution must bound — decode buffers and query
intermediates — while the column payloads stay on disk.  The comparison
is a digest (dtype + shape + bytes) of every result column, not a
tolerance.  :func:`out_of_core` takes ``scale`` and ``cap_mb`` because
the test picks them; other sizes (ROADMAP's SF 1 re-measurement) call it
from a scratch script — only the small one below runs in tier-1.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import persist
from repro.tpch import build, generate


def column_digest(array: np.ndarray) -> str:
    digest = hashlib.sha256(f"{array.dtype}{array.shape}".encode())
    if array.dtype.kind == "O":
        digest.update(repr(array.tolist()).encode())
    else:
        digest.update(array.tobytes())
    return digest.hexdigest()


def digests(store, queries) -> dict[str, dict[str, str]]:
    out = {}
    with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
        for number in queries:
            table = engine.query(build(store, number))
            out[f"Q{number}"] = {name: column_digest(table.arrays[name])
                                 for name in table.columns}
            store.release()
    return out


def child(directory: str, cap_mb: int, queries: list[int]) -> None:
    """The capped side: cap the heap, mmap-load, run, report on stdout."""
    import resource

    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
    store = persist.load(directory, mmap=True)
    report = {
        "mmap_engaged": any(segment.is_mapped()
                            for table in store.tables()
                            for column in table.columns.values()
                            for segment in column.segments),
        "digests": digests(store, queries),
    }
    try:  # an allocation the size of the cap must be refused
        np.empty(cap, dtype=np.uint8)
        report["cap_binds"] = False
    except MemoryError:
        report["cap_binds"] = True
    print(json.dumps(report))


def out_of_core(scale: float, cap_mb: int, queries=(1, 6, 9, 19), seed: int = 42):
    """``(in-RAM digests, the capped child's report)`` for TPC-H at
    *scale*, persisted once with ``encoding="auto"``."""
    with tempfile.TemporaryDirectory() as directory:
        persist.save(generate(scale, seed=seed), directory, encoding="auto")
        reference = digests(persist.load(directory, mmap=False), queries)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
        # glibc: serve every sizeable malloc by mmap, so a freed array
        # leaves the RLIMIT_DATA charge at once and the cap measures live
        # allocations, not fragmentation of the brk span
        env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
        done = subprocess.run(
            [sys.executable, __file__, directory, str(cap_mb), *map(str, queries)],
            env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return reference, json.loads(done.stdout)


def test_tpch_under_a_heap_cap_is_bit_identical_to_in_ram():
    pytest.importorskip("resource")
    reference, capped = out_of_core(scale=0.01, cap_mb=512)
    assert capped["mmap_engaged"]
    assert capped["cap_binds"]
    assert sorted(reference) == ["Q1", "Q19", "Q6", "Q9"]
    assert capped["digests"] == reference


if __name__ == "__main__":
    child(sys.argv[1], int(sys.argv[2]), [int(number) for number in sys.argv[3:]])
