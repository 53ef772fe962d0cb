"""Column store, string dictionaries, persistence."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import Column, ColumnStore, StringDictionary, Table, load, save


class TestStringDictionary:
    def test_order_preserving(self):
        d = StringDictionary(["pear", "apple", "mango"])
        assert d.code("apple") < d.code("mango") < d.code("pear")

    def test_encode_decode_roundtrip(self):
        values = ["b", "a", "c", "a"]
        d, codes = StringDictionary.from_column(values)
        assert d.decode(codes) == values

    def test_unknown_string(self):
        d = StringDictionary(["a"])
        with pytest.raises(StorageError):
            d.code("z")
        with pytest.raises(StorageError):
            d.encode(["z"])

    def test_codes_like(self):
        d = StringDictionary(["forest green", "misty rose", "forest khaki"])
        codes = d.codes_like("forest%")
        assert d.decode(codes) == ["forest green", "forest khaki"]

    def test_codes_like_contains(self):
        d = StringDictionary(["dark green", "light blue", "green tea"])
        assert len(d.codes_like("%green%")) == 2

    def test_membership_table(self):
        d = StringDictionary(["a", "b", "c"])
        table = d.membership_table(d.codes_in(["a", "c"]))
        assert table.tolist() == [True, False, True]

    def test_contains(self):
        d = StringDictionary(["x"])
        assert "x" in d and "y" not in d


class TestTable:
    def test_from_arrays_encodes_strings(self):
        t = Table.from_arrays("t", name=np.array(["b", "a"], dtype=object),
                              v=np.array([1, 2]))
        assert t.column("name").dictionary is not None
        assert t.column("name").data.dtype == np.int64

    def test_length_mismatch(self):
        with pytest.raises(StorageError):
            Table("t", [Column("a", np.zeros(2)), Column("b", np.zeros(3))])

    def test_duplicate_columns(self):
        with pytest.raises(StorageError):
            Table("t", [Column("a", np.zeros(2)), Column("a", np.zeros(2))])

    def test_to_vector(self):
        t = Table.from_arrays("t", v=np.arange(4))
        vec = t.to_vector()
        assert len(vec) == 4 and vec.attr(".v").tolist() == [0, 1, 2, 3]

    def test_missing_column(self):
        t = Table.from_arrays("t", v=np.arange(4))
        with pytest.raises(StorageError):
            t.column("w")

    def test_dictionary_of_numeric_column_rejected(self):
        t = Table.from_arrays("t", v=np.arange(4))
        with pytest.raises(StorageError):
            t.dictionary("v")

    def test_decoded(self):
        t = Table.from_arrays("t", s=np.array(["y", "x"], dtype=object))
        assert t.column("s").decoded() == ["y", "x"]


class TestColumnStore:
    def test_add_and_lookup(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(3)))
        assert "t" in store
        assert len(store.table("t")) == 3

    def test_duplicate_table(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(3)))
        with pytest.raises(StorageError):
            store.add(Table.from_arrays("t", v=np.arange(3)))

    def test_missing_table(self):
        with pytest.raises(StorageError):
            ColumnStore().table("gone")

    def test_stats(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.array([5, 2, 9])))
        stats = store.stats("t", "v")
        assert stats.min == 2 and stats.max == 9
        assert stats.domain_size == 8

    def test_dictionary_stats(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", s=np.array(["a", "b"], dtype=object)))
        assert store.stats("t", "s").domain_size == 2

    def test_vectors_include_aux(self):
        from repro.core import StructuredVector
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(3)))
        store.add_aux("aux:x", StructuredVector.single(".flag", np.ones(2, bool)))
        assert "aux:x" in store.vectors()

    def test_total_bytes(self):
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(4, dtype=np.int64)))
        assert store.total_bytes() == 32


class TestDerivedMemo:
    """``fingerprint()`` and ``vectors()`` are rebuilt per mutation, not
    per execute; the fingerprint is the schema, so an append or a
    re-encoding rebuilds it equal."""

    @staticmethod
    def _store():
        store = ColumnStore()
        store.add(Table.from_arrays("t", v=np.arange(6), s=np.array(list("aabbcc"), dtype=object)))
        return store

    def test_warm_calls_reuse_the_value(self, monkeypatch):
        store = self._store()
        built = []
        plain = Table.to_vector
        monkeypatch.setattr(
            Table, "to_vector", lambda self: built.append(self.name) or plain(self)
        )
        assert store.fingerprint() is store.fingerprint()
        first, second = store.vectors(), store.vectors()
        assert built == ["t"]
        # the prototypes are shared, the handed-out vectors are not: what
        # one query decodes is not kept alive for the next
        assert first["t"] is not second["t"]
        first["t"].attr(".v")
        assert second["t"].lazy_handle(".v") is not None
        assert store.vectors()["t"].lazy_handle(".v") is not None

    def test_append_invalidates(self):
        store = self._store()
        before, vectors = store.fingerprint(), store.vectors()
        store.append("t", {"v": [7], "s": ["z"]})
        assert store.fingerprint() == before and store.fingerprint() is not before
        assert store.table("t").version == 1
        assert len(store.vectors()["t"]) == len(vectors["t"]) + 1

    def test_reencoding_invalidates(self):
        from repro.storage import resegment

        store = self._store()
        store.fingerprint(), store.vectors()
        sealed = resegment(store, encoding="rle", segment_rows=2)
        assert sealed.fingerprint() == store.fingerprint()
        assert (sealed.storage_report()["segments"], store.storage_report()["segments"]) \
            == (6, 2)
        assert [seg.length for seg in sealed.vectors()["t"].lazy_handle(".v").column.segments] \
            == [2, 2, 2]
        assert len(store.vectors()["t"].lazy_handle(".v").column.segments) == 1

    def test_late_aux_registration_is_visible(self, monkeypatch):
        from repro.core import StructuredVector

        store = self._store()
        before = store.fingerprint()
        assert "aux:like" not in store.vectors()
        built = []
        plain = Table.to_vector
        monkeypatch.setattr(
            Table, "to_vector", lambda self: built.append(self.name) or plain(self)
        )
        store.add_aux("aux:like", StructuredVector.single(".flag", np.ones(3, bool)))
        assert "aux:like" in store.vectors()
        # derived caches do not key plans, and the registry is read live:
        # registering one rebuilds neither memoized value
        assert store.fingerprint() is before
        assert built == []

    def test_racing_first_calls_publish_one_value(self, monkeypatch):
        import threading
        import time

        store = self._store()
        plain = Table.to_vector

        def slow(self):
            time.sleep(0.01)  # every racer is inside the build at once
            return plain(self)

        monkeypatch.setattr(Table, "to_vector", slow)
        barrier = threading.Barrier(8)
        seen = []

        def race():
            barrier.wait(timeout=10)
            seen.append((store.fingerprint(), store.vectors()))

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(fingerprint is seen[0][0] for fingerprint, _ in seen)
        handle = seen[0][1]["t"].lazy_handle(".v")
        assert all(v["t"].lazy_handle(".v") is handle for _, v in seen)


class TestSchemasMemo:
    """``schemas()`` builds the table schemas once per mutation and hands
    them out in a fresh dict beside the live auxiliary registry."""

    _store = staticmethod(TestDerivedMemo._store)

    def test_warm_calls_share_the_schemas(self):
        store = self._store()
        first, second = store.schemas(), store.schemas()
        assert first is not second and first == second
        assert first["t"] is second["t"]
        assert first["t"] == store.vectors()["t"].schema

    def test_added_table_shows_in_the_next_call(self):
        store = self._store()
        assert set(store.schemas()) == {"t"}
        store.add(Table.from_arrays("u", w=np.arange(3, dtype=np.float64)))
        schemas = store.schemas()
        assert set(schemas) == {"t", "u"}
        assert schemas["u"] == store.vectors()["u"].schema

    def test_aux_vector_shows_without_a_mutation(self):
        from repro.core import StructuredVector

        store = self._store()
        table_schema = store.schemas()["t"]
        vector = StructuredVector.single(".flag", np.ones(3, bool))
        store.add_aux("aux:like", vector)
        schemas = store.schemas()
        assert schemas["aux:like"] == vector.schema
        assert schemas["t"] is table_schema  # nothing rebuilt

    def test_mutating_the_returned_dict_does_not_leak(self):
        store = self._store()
        schemas = store.schemas()
        del schemas["t"]
        schemas["ghost"] = None
        assert set(store.schemas()) == {"t"}

    def test_append_keeps_schemas_and_the_plan_key(self):
        from repro.relational import Col, EngineConfig, Lit, Query, Scan, VoodooEngine

        store = self._store()
        query = Query(plan=Scan("t").filter(Col("v") > Lit(2)), select=["v"])
        with VoodooEngine(store, config=EngineConfig(tracing=False)) as engine:
            key, schemas = engine.cache_key(query), store.schemas()
            store.append("t", {"v": [7], "s": ["z"]})
            assert store.schemas() == schemas
            assert engine.cache_key(query) == key


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        store = ColumnStore()
        store.add(Table.from_arrays(
            "t", v=np.arange(5, dtype=np.int64),
            s=np.array(["b", "a", "c", "a", "b"], dtype=object),
        ))
        save(store, tmp_path / "db")
        loaded = load(tmp_path / "db")
        t = loaded.table("t")
        assert t.column("v").data.tolist() == list(range(5))
        assert t.column("s").decoded() == ["b", "a", "c", "a", "b"]

    def test_missing_catalog(self, tmp_path):
        with pytest.raises(StorageError):
            load(tmp_path)

    def test_multiple_tables(self, tmp_path):
        store = ColumnStore()
        store.add(Table.from_arrays("a", x=np.arange(2)))
        store.add(Table.from_arrays("b", y=np.arange(3)))
        save(store, tmp_path / "db")
        loaded = load(tmp_path / "db")
        assert len(loaded.table("a")) == 2 and len(loaded.table("b")) == 3
