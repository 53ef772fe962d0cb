"""The persistent tuning cache: tuned decisions that survive restarts.

Keyed on *query fingerprint × store fingerprint × hardware signature* —
the three things a tuning decision depends on.  Change the query shape,
swap the dataset, or move the cache file to a different machine and the
entry silently misses (the tuner re-tunes); on a hit the engine runs the
memoized config with **zero** measured trials.

Storage follows :mod:`repro.storage.persist`'s convention: one
human-readable JSON document, written atomically enough for a
single-writer workflow (write-then-replace), versioned so a future
format change can migrate or discard old files instead of crashing.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import VoodooError
from repro.tuner.space import TunedConfig

#: older files name knobs the option classes reject (version 1:
#: fastpath, pool, execution.native; version 2: a chunk-grain knob in
#: options; version 3: the same knob in execution); a version mismatch
#: loads as empty and re-tunes
_VERSION = 4


def digest(obj) -> str:
    """Stable short digest of a structural fingerprint (nested tuples of
    primitives — their repr is deterministic across processes)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def hardware_signature(device: str = "cpu-mt", cpu_count: int | None = None) -> dict:
    """What makes a tuning decision machine-specific: the core budget the
    measured trials actually ran on, plus the device profile — kept
    because the candidates' options carry it, so a decision raced under
    one device's options is not replayed under another's."""
    return {
        "cpu_count": int(cpu_count if cpu_count is not None else (os.cpu_count() or 1)),
        "device": device,
    }


@dataclass(frozen=True)
class TuningKey:
    """The identity of one tuning decision."""

    query: str      # digest of the structural query fingerprint (+ grain)
    store: str      # digest of ColumnStore.fingerprint()
    hardware: str   # digest of the hardware signature

    def token(self) -> str:
        return f"{self.query}:{self.store}:{self.hardware}"


@dataclass
class TuningEntry:
    """One memoized winner, with the evidence that picked it."""

    key: TuningKey
    config: TunedConfig
    measured_ms: float | None = None
    trials: int = 0

    def to_json(self) -> dict:
        return {
            "key": {"query": self.key.query, "store": self.key.store,
                    "hardware": self.key.hardware},
            "config": self.config.to_json(),
            "measured_ms": self.measured_ms,
            "trials": self.trials,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TuningEntry":
        key = TuningKey(**data["key"])
        return cls(
            key=key,
            config=TunedConfig.from_json(data["config"]),
            measured_ms=data.get("measured_ms"),
            trials=int(data.get("trials", 0)),
        )


@dataclass
class TuningCache:
    """In-memory map of tuning decisions, optionally persisted to JSON.

    ``path=None`` keeps the cache process-local; with a path, every
    ``put`` rewrites the file and construction reloads it, so tuned
    configs survive process restarts.  Unreadable or version-mismatched
    files are treated as empty (the tuner re-tunes) rather than fatal.

    Thread-safe: one cache instance is shared by every engine the serving
    catalog builds, so concurrent sessions reuse each other's decisions.
    """

    path: Path | None = None
    entries: dict[str, TuningEntry] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)
            self.load()

    # -- lookup ------------------------------------------------------------

    def get(self, key: TuningKey) -> TuningEntry | None:
        with self._lock:
            entry = self.entries.get(key.token())
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def put(self, entry: TuningEntry) -> None:
        with self._lock:
            self.entries[entry.key.token()] = entry
            if self.path is not None:
                self.save()

    def info(self) -> dict:
        with self._lock:
            return {
                "tuning_hits": self.hits,
                "tuning_misses": self.misses,
                "tuning_entries": len(self.entries),
                "tuning_path": None if self.path is None else str(self.path),
            }

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("TuningCache has no path; pass one to save()")
        with self._lock:
            target.parent.mkdir(parents=True, exist_ok=True)
            document = {
                "version": _VERSION,
                "entries": [entry.to_json() for entry in self.entries.values()],
            }
            tmp = target.with_suffix(target.suffix + ".tmp")
            tmp.write_text(json.dumps(document, indent=2) + "\n")
            tmp.replace(target)
            return target

    def load(self, path: str | Path | None = None) -> int:
        """Merge entries from disk (file wins); returns entries loaded."""
        source = Path(path) if path is not None else self.path
        if source is None or not source.exists():
            return 0
        try:
            document = json.loads(source.read_text())
            if document.get("version") != _VERSION:
                return 0
            loaded = [TuningEntry.from_json(e) for e in document.get("entries", [])]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, VoodooError):
            # corrupt/foreign cache (bad JSON, missing fields, or knob
            # values CompilerOptions/ExecutionOptions reject): re-tune
            # rather than crash engine construction
            return 0
        for entry in loaded:
            self.entries[entry.key.token()] = entry
        return len(loaded)
