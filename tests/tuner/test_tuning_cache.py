"""The tuning cache: counters, invalidation, and persistence.

The cache key is query × store × hardware; each axis must invalidate
independently, hits/misses must count faithfully (the warm-cache
zero-trials guarantee is built on them), and a persisted cache must
round-trip bit-exactly through JSON.
"""

import dataclasses
import json

import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.relational.sql import parse_sql
from repro.storage import ColumnStore, Table
from repro.tuner import (
    AutoTuner,
    TunedConfig,
    TuningCache,
    TuningEntry,
    TuningKey,
    hardware_signature,
)
from repro.tuner.cache import digest


def _key(query="q", store="s", hardware="h") -> TuningKey:
    return TuningKey(query=query, store=store, hardware=hardware)


def _config(**options) -> TunedConfig:
    return TunedConfig(CompilerOptions(**options), ExecutionOptions())


class TestCounters:
    def test_miss_then_hit(self):
        cache = TuningCache()
        assert cache.get(_key()) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(TuningEntry(key=_key(), config=_config()))
        assert cache.get(_key()) is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_info_shape(self):
        cache = TuningCache()
        cache.put(TuningEntry(key=_key(), config=_config()))
        info = cache.info()
        assert info["tuning_entries"] == 1
        assert info["tuning_path"] is None


class TestInvalidation:
    def test_store_fingerprint_change_misses(self):
        cache = TuningCache()
        cache.put(TuningEntry(key=_key(store="s1"), config=_config()))
        assert cache.get(_key(store="s2")) is None
        assert cache.get(_key(store="s1")) is not None

    def test_hardware_signature_change_misses(self):
        cache = TuningCache()
        cache.put(TuningEntry(key=_key(hardware="laptop"), config=_config()))
        assert cache.get(_key(hardware="server")) is None

    def test_query_change_misses(self):
        cache = TuningCache()
        cache.put(TuningEntry(key=_key(query="q1"), config=_config()))
        assert cache.get(_key(query="q2")) is None

    def test_real_store_fingerprints_differ(self):
        a = ColumnStore()
        a.add(Table.from_arrays("t", x=[1, 2, 3]))
        b = ColumnStore()
        b.add(Table.from_arrays("t", x=[1, 2, 3, 4]))
        assert digest(a.fingerprint()) != digest(b.fingerprint())

    def test_hardware_signature_content(self):
        sig = hardware_signature("gpu", cpu_count=16)
        assert sig == {"cpu_count": 16, "device": "gpu"}
        assert hardware_signature("gpu", 16) != hardware_signature("gpu", 8)
        assert hardware_signature("gpu", 16) != hardware_signature("cpu-mt", 16)


class TestPersistence:
    def _entry(self) -> TuningEntry:
        config = TunedConfig(
            CompilerOptions(selection="branch-free", virtual_scatter=False),
            ExecutionOptions(workers=4),
        )
        return TuningEntry(
            key=_key(), config=config, measured_ms=0.75, trials=3
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "tuning.json"
        cache = TuningCache(path=path)
        cache.put(self._entry())
        assert path.exists()

        reloaded = TuningCache(path=path)
        entry = reloaded.get(_key())
        assert entry is not None
        assert entry.config == self._entry().config  # dataclass equality: exact
        assert entry.measured_ms == 0.75
        assert entry.trials == 3
        assert reloaded.hits == 1

    def test_memory_only_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = TuningCache()
        cache.put(self._entry())
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="no path"):
            cache.save()

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text("{ not json")
        cache = TuningCache(path=path)
        assert cache.entries == {}

    def test_file_written_before_the_knobs_were_removed_retunes(self, tmp_path):
        """A version-1 file (its entries carry ``fastpath``/``pool``, which
        ``CompilerOptions(**data)`` would reject with TypeError) loads as
        empty, so the engine re-tunes instead of failing to construct."""
        entry = self._entry().to_json()
        entry["config"]["options"]["fastpath"] = True
        entry["config"]["execution"].update(
            {"pool": "thread", "fastpath": True, "native": False})
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({"version": 1, "entries": [entry]}))
        cache = TuningCache(path=path)
        assert cache.entries == {} and cache.get(_key()) is None
        cache.put(self._entry())                 # and the file is rewritten
        assert json.loads(path.read_text())["version"] == 4
        assert TuningCache(path=path).get(_key()) is not None

    @pytest.mark.parametrize("version, part, name", [
        (2, "options", "parallel_grain"), (3, "execution", "parallel_grain"),
        (4, "options", "parallel_grain"), (4, "execution", "parallel_grain"),
        (4, None, "predicted_ms"),
    ], ids=["v2-as-written", "v3-as-written", "v2-relabelled", "v3-relabelled",
            "v4-with-predicted-ms"])
    def test_file_written_by_an_older_version(self, tmp_path, version, part, name):
        """A version-2 file's ``options`` JSON and a version-3 file's
        ``execution`` JSON carry ``parallel_grain``, a field neither option
        class has any more: it must degrade to re-tune (by its version —
        and, were the version bumped by hand, by the TypeError) instead of
        raising out of the constructor.  A version-4 file written while
        the tuner still priced its candidates carries an entry-level
        ``predicted_ms`` that nothing reads any more: it must load, and a
        tuner over it must answer with a hit and zero measured trials."""
        store = ColumnStore()
        store.add(Table.from_arrays("t", x=[1, 2, 3]))
        query = parse_sql("SELECT SUM(x) AS s FROM t", store)
        key = AutoTuner(store).key_for(query)
        entry = self._entry().to_json()
        entry["key"] = dataclasses.asdict(key)
        (entry if part is None else entry["config"][part])[name] = 4096
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({"version": version, "entries": [entry]}))
        if part is None:
            tuner = AutoTuner(store, cache=TuningCache(path=path))
            assert tuner.tune(query) == self._entry().config
            assert (tuner.measured_trials, tuner.cache.hits) == (0, 1)
            return
        cache = TuningCache(path=path)
        assert cache.entries == {} and cache.get(key) is None
        cache.put(self._entry())
        document = json.loads(path.read_text())
        assert document["version"] == 4
        assert "parallel_grain" not in document["entries"][0]["config"][part]

    def test_invalid_knob_values_treated_as_empty(self, tmp_path):
        """A persisted entry whose knobs the options dataclasses reject
        (hand-edited, or written by a different version) must degrade to
        re-tune, not crash engine construction."""
        path = tmp_path / "tuning.json"
        cache = TuningCache(path=path)
        cache.put(self._entry())
        text = path.read_text().replace('"branch-free"', '"bogus-strategy"')
        path.write_text(text)
        assert TuningCache(path=path).entries == {}

    def test_version_mismatch_treated_as_empty(self, tmp_path):
        path = tmp_path / "tuning.json"
        path.write_text(json.dumps({"version": 999, "entries": [{"bad": 1}]}))
        assert TuningCache(path=path).entries == {}

    def test_save_is_valid_versioned_json(self, tmp_path):
        path = tmp_path / "tuning.json"
        TuningCache(path=path).put(self._entry())
        document = json.loads(path.read_text())
        assert document["version"] == 4
        assert len(document["entries"]) == 1
        assert document["entries"][0]["config"]["execution"]["workers"] == 4
        assert "predicted_ms" not in document["entries"][0]
