"""The segmented storage substrate: encodings, mmap, append, planner.

Property tests pin the contracts of :mod:`repro.storage.segment` and its
integration points:

* every encoding round-trips every dtype **bit-exactly** (NaN payloads,
  ``-0.0``, ±Inf included) through encode, slice, take, and persistence
  (both ``mmap`` modes);
* seal-time min/max stats answer catalog queries without touching
  payload bytes;
* ``auto`` seals the smallest of RLE, FoR and plain;
* ``load(mmap=True)`` payloads are plain ndarray views of the mapping;
* ``ColumnStore.append`` grows one open tail per column (sealing a new
  segment for a compressed batch), merges dictionaries, and bumps the
  table version under an unchanged schema fingerprint;
* ``total_bytes`` honestly accounts segments + dictionaries + aux;
* ``chunk_ranges`` cuts on run alignment, covering every row once;
* queries are invariant under physical layout (plain vs segmented vs
  compressed vs mmap-loaded), and RLE folds run without decompressing.
"""

import glob
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.parallel.planner import chunk_ranges
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import (
    ColumnStore,
    Table,
    encode_segment,
    load,
    make_segments,
    persist,
    resegment,
    save,
)
from repro.storage.columnstore import Column
from repro.testing import crossover

# -- strategies ---------------------------------------------------------------

runny_ints = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=0, max_size=120
).map(lambda xs: np.repeat(np.array(xs, dtype=np.int64), 3))

wide_ints = st.lists(
    st.integers(min_value=-(2**62), max_value=2**62), min_size=0, max_size=60
).map(lambda xs: np.array(xs, dtype=np.int64))

floats = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    min_size=0, max_size=60,
).map(lambda xs: np.array(xs, dtype=np.float64))

bools = st.lists(st.booleans(), min_size=0, max_size=80).map(
    lambda xs: np.array(xs, dtype=bool)
)

narrow = st.lists(
    st.integers(min_value=0, max_value=255), min_size=0, max_size=60
).map(lambda xs: np.array(xs, dtype=np.int32))

any_values = st.one_of(runny_ints, wide_ints, floats, bools, narrow)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact bit identity: NaN payloads and -0.0 vs 0.0 distinguished."""
    return a.dtype == b.dtype and len(a) == len(b) and a.tobytes() == b.tobytes()


def layout(store: ColumnStore) -> dict:
    """Per table: rows, version and every column's segment encodings —
    the physical facts the schema fingerprint leaves out."""
    return {
        name: (table["rows"], table["version"],
               {col: info["encodings"] for col, info in table["columns"].items()})
        for name, table in store.memory_report()["tables"].items()
    }


# -- encodings ---------------------------------------------------------------


class TestEncodingRoundTrip:
    @pytest.mark.parametrize("encoding", ["plain", "rle", "for", "auto"])
    @given(values=any_values)
    @settings(max_examples=40, deadline=None)
    def test_bit_exact(self, encoding, values):
        seg = encode_segment(values, encoding)
        assert seg.length == len(values)
        assert bit_equal(seg.values(), values)

    @pytest.mark.parametrize("encoding", ["plain", "rle", "for", "auto"])
    def test_edge_cases(self, encoding):
        for values in (
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.zeros(50, dtype=np.int64),
            np.array([np.nan, np.nan, -0.0, 0.0, np.inf, -np.inf] * 5),
            np.arange(100, dtype=np.int64),
        ):
            seg = encode_segment(values, encoding)
            assert bit_equal(seg.values(), values)

    def test_rle_rejects_incompressible(self):
        values = np.arange(1000, dtype=np.int64)
        assert encode_segment(values, "rle").encoding == "plain"

    def test_for_narrows_width(self):
        values = np.arange(1_000_000, 1_000_100, dtype=np.int64)
        seg = encode_segment(values, "for")
        assert seg.encoding == "for"
        assert seg.physical_nbytes < values.nbytes
        assert bit_equal(seg.values(), values)

    def test_for_refuses_floats(self):
        assert encode_segment(np.ones(100), "for").encoding == "plain"

    def test_auto_stores_the_smallest_encoding(self):
        """FoR for short runs of small integers (4-row runs cost 12 B a run
        in RLE, 1 B a row in FoR), RLE for long runs, RLE for a float
        column with runs (FoR packs integers only), plain otherwise."""
        rng = np.random.default_rng(3)
        short = np.repeat(rng.integers(0, 200, 250), 4)
        long = np.repeat(rng.integers(0, 200, 5), 200)
        cases = {
            "for": short, "rle": long,
            "plain": rng.uniform(size=1000),
        }
        for want, values in cases.items():
            assert encode_segment(values, "auto").encoding == want, want
        assert encode_segment(np.repeat(rng.uniform(size=10), 100), "auto").encoding == "rle"

    @given(values=any_values)
    @settings(max_examples=60, deadline=None)
    def test_auto_is_the_smallest_of_rle_for_and_plain(self, values):
        sizes = {enc: encode_segment(values, enc).physical_nbytes
                 for enc in ("plain", "rle", "for")}
        auto = encode_segment(values, "auto")
        assert auto.physical_nbytes == min(sizes.values())
        if auto.encoding != "for" and sizes["for"] == auto.physical_nbytes:
            assert encode_segment(values, "for").encoding == "plain"  # a tie goes to FoR

    def test_for_packs_uint64_past_the_int64_range(self):
        values = np.array([2**64 - 1, 2**64 - 3, 2**64 - 200], dtype=np.uint64)
        seg = encode_segment(values, "for")
        assert seg.encoding == "for"
        assert bit_equal(seg.values(), values)
        assert bit_equal(seg.take(np.array([2, 0])), values[[2, 0]])

    @given(values=any_values, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_decode_range_and_take(self, values, data):
        seg = encode_segment(values, "auto")
        n = len(values)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        assert bit_equal(seg.decode_range(lo, hi), values[lo:hi])
        if n:
            pos = np.array(
                data.draw(st.lists(st.integers(0, n - 1), max_size=20)),
                dtype=np.int64,
            )
            assert bit_equal(seg.take(pos), values[pos])


class TestColumnView:
    @given(values=any_values, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_multi_segment_slice_take_fold(self, values, data):
        rows = data.draw(st.integers(1, max(1, len(values))))
        col = Column("c", segments=make_segments(values, "auto", rows),
                     dtype=values.dtype)
        assert bit_equal(col.data, values)
        n = len(values)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        view = col.view().slice(lo, hi)
        assert bit_equal(view.materialize(), values[lo:hi])
        if hi > lo:
            pos = np.array(
                data.draw(st.lists(st.integers(0, hi - lo - 1), max_size=20)),
                dtype=np.int64,
            )
            assert bit_equal(view.take(pos), values[lo:hi][pos])

    @given(values=st.one_of(runny_ints, bools))
    @settings(max_examples=30, deadline=None)
    def test_rle_fold_bit_identity(self, values):
        col = Column("c", segments=make_segments(values, "rle", 16),
                     dtype=values.dtype)
        view = col.view()
        for fn, ufunc in (("sum", np.add), ("min", np.minimum), ("max", np.maximum)):
            folded = view.fold(fn)
            if not len(values):
                continue
            expect = ufunc.reduce(
                values.astype(np.int64) if fn == "sum" else values
            )
            assert folded is not None
            assert folded.item() == expect

    @pytest.mark.parametrize("encoding", ["plain", "rle", "for"])
    def test_empty_view_folds_nothing(self, encoding):
        values = np.repeat(np.arange(5, dtype=np.int64), 4)
        col = Column("c", segments=make_segments(values, encoding, 8),
                     dtype=values.dtype)
        for lo in (0, 3, 8, 20):
            view = col.view().slice(lo, lo)
            assert list(view.run_pairs()) == []
            for fn in ("sum", "min", "max"):
                assert view.fold(fn) is None

    def test_take_spans_every_segment(self):
        values = np.repeat(np.arange(1000, 1025, dtype=np.int64), 4)
        encodings = ["rle", "for", "plain", "for"]
        col = Column("c", dtype=values.dtype, segments=[
            encode_segment(values[lo:lo + 25], enc)
            for lo, enc in zip(range(0, 100, 25), encodings)
        ])
        assert col.encodings() == tuple(encodings)
        for positions in (np.arange(100), np.array([0, 0, 24, 25, 26, 99, 99]),
                          np.array([30, 31]), np.array([99]), np.array([99, 0, 50, 50])):
            assert bit_equal(col.take(positions), values[positions])
        for bad in ([3, 100], [100, 3], [-1, 3], [3, -1]):
            with pytest.raises(IndexError):
                col.take(np.array(bad))

    def test_float_sum_fold_declines(self):
        values = np.repeat(np.array([0.1, 0.2], dtype=np.float64), 50)
        col = Column("c", segments=make_segments(values, "rle", 16),
                     dtype=values.dtype)
        # float sums must keep sequential accumulation: the direct
        # run-fold is refused, callers decompress instead
        assert col.view().fold("sum") is None
        assert col.view().fold("min") is not None


# -- seal-time stats ----------------------------------------------------------


class TestSealStats:
    def test_min_max_computed_once(self):
        values = np.array([5, -3, 9, 9, -3, 0], dtype=np.int64)
        col = Column("c", segments=make_segments(values, "auto", 2),
                     dtype=values.dtype)
        assert col.min == -3 and col.max == 9

    def test_nan_propagates(self):
        col = Column("c", np.array([1.0, np.nan, 3.0]))
        assert np.isnan(col.min) and np.isnan(col.max)

    def test_store_stats_read_cached(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(100, dtype=np.int64)))
        stats = store.stats("t", "v")
        assert stats.min == 0 and stats.max == 99


# -- persistence --------------------------------------------------------------


def _mixed_store() -> ColumnStore:
    rng = np.random.default_rng(0)
    n = 500
    store = ColumnStore(meta={"generator": "test", "seed": 0})
    store.add(Table.from_arrays(
        "t",
        runs=np.repeat(rng.integers(0, 4, n // 10), 10).astype(np.int64),
        wide=rng.integers(-(2**50), 2**50, n),
        f=np.where(rng.random(n) < 0.1, np.nan, rng.standard_normal(n)),
        tag=[f"tag{i % 7}" for i in range(n)],
        flag=rng.random(n) < 0.5,
    ))
    return store


class TestPersistence:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip_bit_exact(self, mmap):
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp, encoding="auto", segment_rows=64)
            loaded = load(tmp, mmap=mmap)
            assert loaded.fingerprint() == store.fingerprint()  # same schema
            assert layout(loaded) != layout(store)  # resealed
            for table in store.tables():
                for col in table.columns.values():
                    other = loaded.table(table.name).column(col.name)
                    assert bit_equal(other.data, col.data)
                    if col.dictionary is not None:
                        assert other.dictionary.values() == col.dictionary.values()
            assert loaded.meta["generator"] == "test"
            loaded.release()

    def test_mmap_payloads_are_plain_views_of_the_mapping(self, monkeypatch):
        """No payload is an ``np.memmap`` (whose Python hooks would run per
        slice and per ufunc result); the mapping is still found, so
        ``is_mapped`` holds and ``release`` reaches ``madvise``."""
        import mmap

        from repro.storage import segment as segment_mod

        advised = []

        class Spy:
            def __init__(self, mapped):
                self.mapped = mapped

            def madvise(self, flag):
                advised.append(flag)
                return self.mapped.madvise(flag)

        real = segment_mod.mapping_of
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp, encoding="auto", segment_rows=64)
            for mmap_mode in (True, False):
                loaded = load(tmp, mmap=mmap_mode)
                segments = [seg for table in loaded.tables()
                            for col in table.columns.values() for seg in col.segments]
                assert segments
                for seg in segments:
                    assert seg.is_mapped() is mmap_mode
                    for array in seg.payload.values():
                        assert type(array) is np.ndarray
                        assert isinstance(real(array), mmap.mmap) is mmap_mode
                monkeypatch.setattr(segment_mod, "mapping_of",
                                    lambda a: None if real(a) is None else Spy(real(a)))
                advised.clear()
                loaded.release()
                assert len(advised) == (sum(len(s.payload) for s in segments)
                                        if mmap_mode else 0)
                monkeypatch.setattr(segment_mod, "mapping_of", real)
                del loaded, segments

    def test_same_layout_same_fingerprint(self):
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp)
            loaded = load(tmp, mmap=True)
            assert loaded.fingerprint() == store.fingerprint()
            assert layout(loaded) == layout(store)

    def test_mmap_load_is_lazy(self):
        """Loading and reading catalog stats must not scan payload bytes."""
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp, encoding="auto", segment_rows=64)
            loaded = load(tmp, mmap=True)
            col = loaded.table("t").column("runs")
            _ = col.min, col.max, col.dtype, len(col)
            _ = loaded.total_bytes()
            assert loaded.io.bytes_scanned == 0
            assert loaded.io.bytes_decompressed == 0
            _ = col.data  # now it decodes
            assert loaded.io.bytes_scanned > 0

    def test_catalog_carries_stats_and_encodings(self):
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp, encoding="auto", segment_rows=64)
            catalog = json.loads((Path(tmp) / "catalog.json").read_text())
            assert catalog["version"] == 2
            runs = catalog["tables"]["t"]["columns"]["runs"]
            assert all("stats" in seg and "encoding" in seg
                       for seg in runs["segments"])

    def test_failed_save_leaves_store_intact(self):
        store = _mixed_store()
        with tempfile.TemporaryDirectory() as tmp:
            save(store, tmp)
            before = (Path(tmp) / "catalog.json").read_bytes()
            with pytest.raises(StorageError):
                save(store, tmp, encoding="bogus")
            assert (Path(tmp) / "catalog.json").read_bytes() == before
            assert not glob.glob(str(Path(tmp) / "*.tmp"))
            loaded = load(tmp)
            assert bit_equal(loaded.table("t").column("wide").data,
                             store.table("t").column("wide").data)

    @staticmethod
    def _two_column_store(n: int, seed: int) -> ColumnStore:
        rng = np.random.default_rng(seed)
        store = ColumnStore()
        store.add(Table.from_arrays(
            "t",
            k=np.repeat(rng.integers(0, 50, n // 10 + 1), 10)[:n].astype(np.int64),
            x=rng.standard_normal(n),
        ))
        return resegment(store, encoding="auto", segment_rows=256)

    def test_failed_catalog_swap_loads_the_first_store(self, monkeypatch):
        """A re-save whose catalog write fails must leave the first store
        loadable bit for bit: its column files are never overwritten."""
        first = self._two_column_store(1000, seed=1)
        second = self._two_column_store(1200, seed=2)
        real_write = persist._atomic_write_bytes

        def failing_catalog(path, chunks):
            if path.name == "catalog.json":
                raise OSError("injected: catalog write failed")
            real_write(path, chunks)

        with tempfile.TemporaryDirectory() as tmp:
            save(first, tmp)
            monkeypatch.setattr(persist, "_atomic_write_bytes", failing_catalog)
            with pytest.raises(OSError, match="injected"):
                save(second, tmp)
            monkeypatch.undo()
            for mmap in (True, False):
                loaded = load(tmp, mmap=mmap)
                assert layout(loaded) == layout(first)
                assert layout(loaded) != layout(second)
                for name, col in first.table("t").columns.items():
                    assert bit_equal(loaded.table("t").column(name).data, col.data)
                del loaded

    def test_resave_keeps_only_the_named_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "notes.bin").write_bytes(b"not the store's")
            (Path(tmp) / "t.k.g7.bin").write_bytes(b"a failed save's leftover")
            for n, seed in ((1000, 1), (1200, 2), (300, 3)):
                store = self._two_column_store(n, seed)
                save(store, tmp)
                catalog = json.loads((Path(tmp) / "catalog.json").read_text())
                named = {col["file"] for col in catalog["tables"]["t"]["columns"].values()}
                assert {f.name for f in Path(tmp).iterdir()} == {
                    "catalog.json", "notes.bin", *named}
                loaded = load(tmp)
                assert bit_equal(loaded.table("t").column("x").data,
                                 store.table("t").column("x").data)

    def test_catalog_without_generations_loads_and_resaves(self):
        """A catalog written before generation-suffixed file names (one
        ``<table>.<column>.bin`` per column) loads, and the next save
        replaces its files."""
        store = self._two_column_store(500, seed=4)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save(store, root)
            catalog = json.loads((root / "catalog.json").read_text())
            del catalog["generation"]
            for name, col in catalog["tables"]["t"]["columns"].items():
                legacy = f"t.{name}.bin"
                (root / col["file"]).rename(root / legacy)
                col["file"] = legacy
            (root / "catalog.json").write_text(json.dumps(catalog))
            for name, col in store.table("t").columns.items():
                assert bit_equal(load(root).table("t").column(name).data, col.data)
            save(store, root)
            assert not list(root.glob("t.?.bin"))
            assert bit_equal(load(root).table("t").column("k").data,
                             store.table("t").column("k").data)


# -- append -------------------------------------------------------------------


class TestAppend:
    def test_append_seals_segment_and_bumps_version(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(10, dtype=np.int64)))
        before = store.fingerprint()
        store.append("t", {"v": np.arange(10, 14, dtype=np.int64)})
        assert store.fingerprint() == before  # the schema is unchanged
        assert layout(store) == {"t": (14, 1, {"v": ["plain", "plain"]})}
        assert len(store.table("t")) == 14
        assert [seg.length for seg in store.table("t").column("v").segments] == [10, 4]
        assert bit_equal(store.table("t").column("v").data,
                         np.concatenate([np.arange(10), np.arange(10, 14)]))

    def test_appends_grow_one_open_tail(self):
        """Small appends extend one in-RAM tail, O(batch) each — the rows
        go into the tail's spare capacity — until it is as long as the
        sealed segment; then a new tail opens.  An older column never
        sees the rows appended after it."""
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(100, dtype=np.int64)))
        seen = []
        for lap in range(20):
            store.append("t", {"v": np.arange(7, dtype=np.int64) + 1000 * lap})
            seen.append(store.table("t").column("v"))
        column = seen[-1]
        assert [seg.length for seg in column.segments] == [100, 98, 42]
        assert [seg.is_open() for seg in column.segments] == [False, True, True]
        first, second = seen[0].segments[-1], seen[1].segments[-1]
        assert np.shares_memory(first.payload["values"], second.payload["values"])
        expected = np.concatenate([np.arange(100)] + [np.arange(7) + 1000 * lap
                                                      for lap in range(20)])
        assert bit_equal(column.data, expected)
        assert bit_equal(seen[0].data, expected[:107])  # unchanged by later laps
        assert (column.min, column.max) == (0, 19_006)
        assert column.segments[1].stats.count == 98

    def test_a_tail_shared_by_two_columns_is_copied_not_overwritten(self):
        from repro.storage.columnstore import appended

        base = appended([], np.arange(3, dtype=np.int32))
        left = appended(base, np.array([10], dtype=np.int32))
        right = appended(base, np.array([20], dtype=np.int32))
        assert [int(v) for v in left[-1].values()] == [0, 1, 2, 10]
        assert [int(v) for v in right[-1].values()] == [0, 1, 2, 20]
        assert [int(v) for v in base[-1].values()] == [0, 1, 2]

    def test_threads_extending_one_tail_each_keep_their_rows(self):
        """Eight threads extend the same open tail at once: one claims the
        rows past it in the shared buffer, the others copy, and every
        result holds the tail's rows and its own — none sees another
        thread's batch.  The buffer's ``len()`` yields the interpreter
        inside the claim, so a second writer gets there unless the claim
        is serialised."""
        import threading
        import time

        from repro.storage.columnstore import appended

        class Yielding(np.ndarray):
            def __len__(self):
                time.sleep(0.001)
                return super().__len__()

        def extend(base, k: int, start, results) -> None:
            start.wait(timeout=30)
            batch = np.full(3, 1000 + k, dtype=np.int64)
            tail = appended(base, batch)[-1]
            results[k] = bool((tail.values()[:50] == np.arange(50)).all()
                              and (tail.values()[50:] == batch).all())

        for _ in range(10):
            base = appended([], np.arange(50, dtype=np.int64))
            base[-1]._tail.buffer = base[-1]._tail.buffer.view(Yielding)
            start, results = threading.Barrier(8), {}
            threads = [threading.Thread(target=extend, args=(base, k, start, results))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == dict.fromkeys(range(8), True)

    def test_a_compressed_batch_seals_a_segment(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(10, dtype=np.int64)))
        store.append("t", {"v": np.arange(2)})
        store.append("t", {"v": np.zeros(40, dtype=np.int64)}, encoding="auto")
        store.append("t", {"v": np.arange(3)})
        assert layout(store) == {"t": (55, 3, {"v": ["plain", "plain", "rle", "plain"]})}
        assert [seg.is_open() for seg in store.table("t").column("v").segments] == \
            [False, True, False, True]

    def test_append_merges_dictionary(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", s=["b", "a", "b"]))
        store.append("t", {"s": ["c", "a"]})
        col = store.table("t").column("s")
        assert col.dictionary.decode(col.data) == ["b", "a", "b", "c", "a"]

    def test_append_then_query_invalidates_plan(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(100, dtype=np.int64)))
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            sql = "SELECT SUM(v) AS s FROM t"
            assert engine.query(sql).column("s")[0] == 4950
            store.append("t", {"v": np.array([50], dtype=np.int64)})
            assert engine.query(sql).column("s")[0] == 5000

    def test_append_validates(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", a=np.arange(3), b=np.arange(3.0)))
        with pytest.raises(StorageError):
            store.append("t", {"a": np.arange(2)})  # missing column
        with pytest.raises(StorageError):
            store.append("t", {"a": np.arange(2), "b": np.arange(3.0)})


# -- honest accounting --------------------------------------------------------


class TestTotalBytes:
    def test_counts_dictionary_and_segments(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", s=["x" * 100, "y" * 100],
                                    v=np.arange(2, dtype=np.int64)))
        report = store.memory_report()
        assert report["dictionary_bytes"] > 200
        assert report["total_bytes"] == (
            report["segment_bytes"] + report["dictionary_bytes"]
            + report["aux_bytes"]
        )

    def test_compression_shrinks_total(self):
        store = ColumnStore()
        store.add(Table.from_arrays(
            "t", v=np.repeat(np.arange(50, dtype=np.int64), 100)))
        comp = resegment(store, encoding="auto")
        assert comp.total_bytes() < store.total_bytes()
        report = comp.storage_report()
        assert report["encodings"].get("rle", 0) >= 1


# -- planner ------------------------------------------------------------------


class TestChunkBoundaries:
    def test_no_boundaries_unchanged(self):
        assert chunk_ranges(100, 4) == [(0, 25), (25, 50), (50, 75), (75, 100)]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data):
        n = data.draw(st.integers(1, 500))
        workers = data.draw(st.integers(1, 8))
        align = data.draw(st.integers(1, 16))
        ranges = chunk_ranges(n, workers, align)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        assert all(hi > lo for lo, hi in ranges)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(lo % align == 0 for lo, hi in ranges)


# -- layout invariance (mini conformance) -------------------------------------


class TestLayoutInvariance:
    def _stores(self):
        base = _mixed_store()
        variants = {
            "segmented": resegment(base, encoding="plain", segment_rows=64),
            "compressed": resegment(base, encoding="auto", segment_rows=64),
        }
        tmp = tempfile.mkdtemp()
        save(variants["compressed"], tmp)
        variants["mmap"] = load(tmp, mmap=True)
        return base, variants

    @pytest.mark.parametrize("workers", [1, 2])
    def test_queries_invariant_under_layout(self, workers):
        from repro.compiler import ExecutionOptions

        base, variants = self._stores()
        sqls = [
            "SELECT SUM(runs) AS s, MIN(wide) AS lo, MAX(wide) AS hi FROM t",
            "SELECT runs, COUNT(*) AS n FROM t GROUP BY runs ORDER BY runs",
            "SELECT SUM(f) AS s FROM t WHERE runs >= 2",
        ]
        execution = ExecutionOptions(workers=workers) if workers > 1 else None
        def run(store):
            # chunks on the pool (cut at segment boundaries) however small,
            # with a core per worker on any host
            with crossover(0), VoodooEngine(store, config=EngineConfig(
                    tracing=False, execution=execution)) as engine:
                if workers > 1:
                    engine._parallel_backend._effective = workers
                return [engine.query(sql) for sql in sqls]
        expect = run(base)
        for name, store in variants.items():
            for sql, a, b in zip(sqls, expect, run(store)):
                for c in a.columns:
                    assert bit_equal(a.arrays[c], b.arrays[c]), (name, sql, c)

    def test_constant_aggregate_over_empty_table(self):
        # Regression: upsert's uniform-run fast path dropped pending lazy
        # column handles when a constant was upserted onto a value whose
        # storage columns had not been touched yet (only reachable when
        # value.length >= target.length, i.e. empty/one-row tables) —
        # the later row-compaction gather then failed to find the index.
        from repro.relational import algebra as ra
        from repro.relational.expressions import Lit

        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(0, dtype=np.int64)))
        query = ra.Query(
            plan=ra.GroupBy(
                child=ra.Scan("t"),
                keys=[],
                aggs={"a1": ra.AggSpec(fn="avg", expr=Lit(7)),
                      "a2": ra.AggSpec(fn="max", expr=Lit(6))},
            ),
            select=["a1", "a2"],
        )
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            result = engine.query(query)
        with VoodooEngine(store, config=EngineConfig(tracing=True)) as engine:
            reference = engine.query(query)
        for c in reference.columns:
            assert bit_equal(result.arrays[c], reference.arrays[c]), c

    def test_rle_folds_scan_without_decompressing(self):
        store = ColumnStore()
        store.add(Table.from_arrays(
            "t", v=np.repeat(np.arange(20, dtype=np.int64), 500)))
        comp = resegment(store, encoding="rle")
        with VoodooEngine(comp, config=EngineConfig(tracing=False)) as engine:
            result = engine.execute("SELECT SUM(v) AS s FROM t")
        assert result.table.column("s")[0] == comp.table("t").column("v").data.sum()
        assert result.io is not None
        assert result.io["bytes_scanned"] > 0
        # the whole query folded over runs: nothing was decoded
        assert result.io["bytes_decompressed"] < result.io["bytes_scanned"]

    def test_a_storage_column_is_decoded_once_per_run(self, monkeypatch):
        """The decode memo lives on the runner's ``Lazy`` column, which
        ``Zip`` / ``Project`` / ``Upsert`` pass on unchanged: TPC-H Q1 reads
        6 lineitem columns whole and decodes each once per execute (9
        decodes when the memo lived on whichever value was read first) —
        and again on the next execute: nothing decoded outlives a run.
        The seventh column Q1 reads, ``l_shipdate``, is only compared
        against a date: the comparison runs on its FoR codes (7 decodes
        before comparisons read the stored form)."""
        from collections import Counter

        from repro.storage.segment import ColumnData
        from repro.tpch import build, generate

        store = resegment(generate(0.005, seed=7), encoding="auto", segment_rows=4096)
        decodes: Counter = Counter()
        plain = ColumnData.materialize

        def spy(self):
            decodes[self.column.name] += 1
            return plain(self)

        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            prepared = engine.prepare(build(store, 1))
            prepared.execute()
            monkeypatch.setattr(ColumnData, "materialize", spy)
            for executes in (1, 2):
                prepared.execute()
                assert len(decodes) == 6 and set(decodes.values()) == {executes}, decodes
                assert "l_shipdate" not in decodes


    def test_q6_compares_its_fixed_point_columns_on_their_codes(self, monkeypatch):
        """TPC-H Q6 filters ``l_shipdate`` (a date range) and
        ``l_quantity`` (``< 24``) on an ``auto`` store: both are FoR and
        compared on their packed codes, so neither is materialized, and
        their comparisons decompress nothing."""
        from collections import Counter

        from repro.storage.segment import ColumnData
        from repro.tpch import build, generate

        store = resegment(generate(0.005, seed=7), encoding="auto", segment_rows=4096)
        lineitem = store.table("lineitem")
        assert {"for"} == lineitem.column("l_shipdate").encoded \
            == lineitem.column("l_quantity").encoded
        decodes: Counter = Counter()
        plain = ColumnData.materialize

        def spy(self):
            decodes[self.column.name] += 1
            return plain(self)

        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            prepared = engine.prepare(build(store, 6))
            want = prepared.execute().table
            monkeypatch.setattr(ColumnData, "materialize", spy)
            got = prepared.execute().table
        assert decodes and not {"l_shipdate", "l_quantity"} & set(decodes), decodes
        for name in want.columns:
            assert bit_equal(np.asarray(got.column(name)), np.asarray(want.column(name)))

    def test_query_io_counts_only_the_rows_something_read(self, monkeypatch):
        """A gathered column nobody reads is never fetched, so it is not
        scanned either: a warm Q5 / Q7 scans fewer bytes than at the
        commit before gathers were kept as annotations.  And the delta
        is read *after* result extraction, which may be the first reader
        of a column."""
        from repro.tpch import build, generate

        #: ``io["bytes_scanned"]`` of the second execute at that commit
        scanned_before = {5: 837_184, 7: 1_410_060}
        store = resegment(generate(0.005, seed=7), encoding="auto", segment_rows=4096)
        probe = store.table("lineitem").column("l_quantity")
        fetched = probe.view().slice(0, 100)
        plain = VoodooEngine._extract

        def extract_then_read(self, query, vector):
            table = plain(self, query, vector)
            fetched.take(np.arange(100))
            return table

        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            for number, before in scanned_before.items():
                prepared = engine.prepare(build(store, number))
                prepared.execute()
                scanned = prepared.execute().io["bytes_scanned"]
                assert 0 < scanned < before, number
                with monkeypatch.context() as patch:
                    patch.setattr(VoodooEngine, "_extract", extract_then_read)
                    late = prepared.execute().io["bytes_scanned"]
                assert late == scanned + 100 * probe.dtype.itemsize, number
