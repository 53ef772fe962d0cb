"""Hypothesis property tests for the storage layer.

The example-based tests in ``test_storage.py`` pin the documented
behaviors; these properties pin the *contracts* over arbitrary inputs:

* dictionary encode/decode is a lossless, order-preserving bijection;
* ``persist.save``/``load`` round-trips every column bit-exactly
  (including NaN/±Inf payloads and dictionary attachments) and
  preserves the schema fingerprint, row counts, versions and encodings;
* every read path of a segmented column — ``materialize_range``,
  ``take``, and a view's ``run_pairs`` / ``fold`` / ``fold_grained`` —
  equals slicing the concatenation of its segments' ``values()`` in
  dtype, shape and bytes, over any mix of plain / RLE / FoR segments,
  1-row appended tails included, in RAM and mmap-loaded; and the I/O
  counters one fixed layout charges are pinned;
* a comparison the runner answers from the stored form — FoR codes
  against a shifted threshold, two FoR columns on their code
  difference, RLE runs, plain pieces as they are — equals
  decode-then-``apply_binary`` in dtype and bytes, over every piece
  layout, open appended tails included, and a packed compare
  decompresses nothing; so do a range (two bounds under one ``And``) and
  an IN-list (an ``Or`` chain of ``Equals``), which read each packed
  piece in one routine.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.columns import Compared, Dense, Lazy
from repro.compiler.rt_fast import FusedRuntime, FusedVal, MapPlan
from repro.core.keypath import Keypath
from repro.interpreter.engine import apply_binary
from repro.storage import ColumnStore, Table, encode_segment, load, save
from repro.storage.columnstore import Column
from repro.storage.dictionary import StringDictionary

text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=12,
)


class TestDictionaryProperties:
    @given(st.lists(text, min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_roundtrip(self, strings):
        dictionary, codes = StringDictionary.from_column(strings)
        assert dictionary.decode(codes) == strings

    @given(st.lists(text, min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, strings):
        dictionary = StringDictionary(strings)
        a, b = strings[0], strings[1]
        assert (dictionary.code(a) < dictionary.code(b)) == (a < b)
        assert (dictionary.code(a) == dictionary.code(b)) == (a == b)

    @given(st.lists(text, min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_membership_table_matches_codes(self, strings, data):
        dictionary = StringDictionary(strings)
        subset = data.draw(st.lists(st.sampled_from(sorted(set(strings))),
                                    max_size=len(strings)))
        codes = dictionary.codes_in(subset)
        table = dictionary.membership_table(codes)
        for value in set(strings):
            assert table[dictionary.code(value)] == (value in set(subset))


def _random_store(rng: np.random.Generator) -> ColumnStore:
    n = int(rng.integers(0, 20))
    words = ["ada", "grace", "edsger", "barbara"]
    floats = np.round(rng.uniform(-1e6, 1e6, n), 6)
    if n:
        floats[rng.random(n) < 0.2] = np.nan
        floats[rng.random(n) < 0.1] = np.inf
    store = ColumnStore()
    store.add(Table.from_arrays(
        "t",
        i=rng.integers(-(1 << 40), 1 << 40, n).astype(np.int64),
        f=floats,
        b=rng.random(n) < 0.5,
        s=np.array([words[int(k)] for k in rng.integers(0, len(words), n)],
                   dtype=object),
    ))
    return store


class TestPersistProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_save_load_fidelity(self, seed):
        store = _random_store(np.random.default_rng(seed))
        store.meta = {"generator": "test", "seed": seed}
        with tempfile.TemporaryDirectory() as tmp:
            save(store, Path(tmp) / "db")
            loaded = load(Path(tmp) / "db")
        assert loaded.fingerprint() == store.fingerprint()
        for name, table in store.memory_report()["tables"].items():
            other = loaded.memory_report()["tables"][name]
            assert (other["rows"], other["version"]) == (table["rows"], table["version"])
            assert {c: info["encodings"] for c, info in other["columns"].items()} == \
                {c: info["encodings"] for c, info in table["columns"].items()}
        assert loaded.meta == store.meta          # provenance survives disk
        for table in store.tables():
            other = loaded.table(table.name)
            assert list(other.columns) == list(table.columns)
            for name, col in table.columns.items():
                got = other.column(name)
                assert got.data.dtype == col.data.dtype
                assert got.data.tobytes() == col.data.tobytes()  # bit-exact
                if col.dictionary is None:
                    assert got.dictionary is None
                else:
                    assert got.dictionary.values() == col.dictionary.values()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_loaded_store_decodes_identically(self, seed):
        store = _random_store(np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load(save(store, Path(tmp) / "db"))
        assert (loaded.table("t").column("s").decoded()
                == store.table("t").column("s").decoded())


# -- decode paths ---------------------------------------------------------------

DTYPES = ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
          "float32", "float64", "bool")
FLOATS = (0.0, 1.5, -2.25, 3.0, 1e30, -np.inf, np.inf, np.nan)


def _segment_values(rng: np.random.Generator, dtype: np.dtype, n: int,
                    max_run: int, span: int) -> np.ndarray:
    """*n* values of *dtype* in runs of 1..*max_run*, ints drawn from a
    band of *span* values (a narrow band is what FoR packs)."""
    if dtype.kind == "b":
        run_values = rng.random(n) < 0.5
    elif dtype.kind == "f":
        run_values = rng.choice(np.array(FLOATS, dtype=dtype), n)
    else:
        info = np.iinfo(dtype)
        # uint64 past the int64 range: test_segments.py pins its FoR codes
        top = min(int(info.max), 2**63 - 1)
        span = min(span, top - int(info.min))
        low = int(rng.choice([int(info.min), max(int(info.min), 0), top - span]))
        low = min(low, top - span)
        run_values = rng.integers(low, low + span, n, dtype=dtype, endpoint=True)
    lengths = rng.integers(1, max_run + 1, n)
    return np.repeat(run_values, lengths)[:n]


@st.composite
def layouts(draw):
    """(dtype, [(values, encoding)] per segment) — 0, 1 or many segments,
    each encoded on its own, with optional 1-row appended tails."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 300), max_size=4))
    sizes += [1] * draw(st.integers(0, 3))
    encodings = st.sampled_from(("plain", "rle", "for", "auto"))
    max_run = draw(st.sampled_from((1, 4, 40)))
    span = draw(st.sampled_from((0, 200, 60_000, 2**40)))
    return dtype, [(_segment_values(rng, dtype, size, max_run, span), draw(encodings))
                   for size in sizes]


def _columns(dtype, pieces, tmp):
    """The layout as an in-RAM column and as its mmap-loaded twin."""
    segments = [encode_segment(values, encoding) for values, encoding in pieces]
    column = Column("v", segments=segments, dtype=dtype)
    store = ColumnStore()
    store.add(Table("t", [column]))
    loaded = load(save(store, Path(tmp) / "db"), mmap=True)
    return {"ram": column, "mmap": loaded.table("t").column("v")}


def _expected(column: Column) -> np.ndarray:
    if not column.segments:
        return np.empty(0, dtype=column.dtype)
    return np.concatenate([s.values() for s in column.segments])


def _same(got: np.ndarray, want: np.ndarray) -> None:
    got = np.asarray(got)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _ranges(column: Column, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Empty, within-segment, cross-boundary and full row ranges."""
    n = len(column)
    out = [(0, 0), (n, n), (0, n)]
    start = 0
    for seg in column.segments:
        out.append((start, start + seg.length))           # one whole segment
        out.append((start + seg.length // 2, start + seg.length))
        if start:
            out.append((start - 1, min(n, start + 1)))      # across a boundary
        start += seg.length
    lo = int(rng.integers(0, n + 1))
    out.append((lo, int(rng.integers(lo, n + 1))))
    return out


def _positions(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Sorted, unsorted, duplicate and empty gathers over ``[0, n)``."""
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return [empty]
    unsorted = rng.integers(0, n, 2 * n)
    return [np.sort(unsorted), unsorted, np.repeat(unsorted[:5], 3),
            np.sort(np.repeat(unsorted[:5], 3)), np.arange(n), empty,
            np.array([n - 1, 0])]


class TestDecodePaths:
    @given(layout=layouts(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_every_read_path_matches_the_concatenated_segments(self, layout, seed):
        dtype, pieces = layout
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            for column in _columns(dtype, pieces, tmp).values():
                want = _expected(column)
                n = len(want)
                for lo, hi in _ranges(column, rng):
                    _same(column.materialize_range(lo, hi), want[lo:hi])
                    view = column.view().slice(lo, hi)
                    expanded = [v if lengths is None else np.repeat(v, lengths)
                                for v, lengths in view.run_pairs()]
                    _same(np.concatenate(expanded) if expanded
                          else np.empty(0, dtype=dtype), want[lo:hi])
                    self._check_folds(view, want[lo:hi])
                for positions in _positions(n, rng):
                    _same(column.take(positions), want[positions])
                for bad in ([n], [0, n], [n + 5, 0]):
                    with pytest.raises(IndexError):
                        column.take(np.array(bad, dtype=np.int64))

    @staticmethod
    def _check_folds(view, want: np.ndarray) -> None:
        if len(want) == 0:
            return  # an empty view: test_segments.py::test_empty_view_folds_nothing
        for fn in ("sum", "min", "max"):
            got = view.fold(fn)
            if fn == "sum" and want.dtype.kind == "f":
                assert got is None
            elif fn == "sum":
                _same(got, np.asarray(want.astype(np.int64).sum()))
            else:
                ufunc = np.maximum if fn == "max" else np.minimum
                _same(got, np.asarray(ufunc.reduce(want)))
        grained = view.fold_grained("sum", 3)
        if grained is not None:
            starts = np.arange(0, len(want), 3)
            _same(grained, np.add.reduceat(want.astype(np.int64), starts))


def _pinned_layout() -> list[tuple[np.ndarray, str]]:
    """int32 rows: an RLE segment, a FoR segment, a plain segment and a
    1-row (FoR) appended tail."""
    return [
        (np.repeat(np.arange(10, dtype=np.int32), 20), "rle"),
        (np.arange(1000, 1150, dtype=np.int32), "for"),
        (np.arange(-70_000, 70_000, 1000, dtype=np.int32), "plain"),
        (np.array([7], dtype=np.int32), "for"),
    ]


@pytest.mark.parametrize("where", ["ram", "mmap"])
def test_io_counters_of_a_fixed_layout(where, tmp_path):
    pieces = _pinned_layout()
    assert [encode_segment(v, e).encoding for v, e in pieces] == ["rle", "for", "plain", "for"]
    column = _columns(np.dtype(np.int32), pieces, tmp_path)[where]
    counters = column.counters

    def charged(read):
        before = counters.snapshot()
        read()
        return counters.delta(before)

    view = column.view()
    assert charged(lambda: column.materialize_range(0, len(column))) == {
        "bytes_scanned": 791, "bytes_decompressed": 1404}
    assert charged(lambda: column.materialize_range(190, 360)) == {
        "bytes_scanned": 194, "bytes_decompressed": 640}
    assert charged(lambda: column.take(np.array([5, 250, 400, 490]))) == {
        "bytes_scanned": 16, "bytes_decompressed": 0}
    assert charged(lambda: list(view.slice(150, 491).run_pairs())) == {
        "bytes_scanned": 747, "bytes_decompressed": 604}
    assert charged(lambda: view.fold("max")) == {
        "bytes_scanned": 831, "bytes_decompressed": 604}


# -- comparisons on the stored form ---------------------------------------------

COMPARISONS = ("Less", "LessEqual", "Greater", "GreaterEqual", "Equals", "NotEquals")
SIGNED = ("int8", "int16", "int32", "int64")
#: what must fall back to the decode: an unsigned or float column
FALLBACK = ("uint8", "uint32", "uint64", "float64")
A, B = Keypath(["a"]), Keypath(["b"])


@st.composite
def compare_layouts(draw):
    """(dtype, [(a values, b values, encoding)] per sealed segment,
    [(a rows, b rows)] per append): columns ``a`` and ``b`` of one table,
    0-4 sealed segments on one grid, then 0-3 appended batches."""
    dtype = np.dtype(draw(st.sampled_from(SIGNED * 3 + FALLBACK)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    max_run = draw(st.sampled_from((1, 4, 40)))
    span = draw(st.sampled_from((0, 1, 200, 60_000)))
    sealed = [(_segment_values(rng, dtype, size, max_run, span),
               _segment_values(rng, dtype, size, max_run, span),
               draw(st.sampled_from(("plain", "rle", "for", "auto"))))
              for size in draw(st.lists(st.integers(1, 200), max_size=4))]
    batches = [(_segment_values(rng, dtype, size, max_run, span),
                _segment_values(rng, dtype, size, max_run, span))
               for size in draw(st.lists(st.integers(1, 40), max_size=3))]
    return dtype, sealed, batches


def _compare_stores(dtype, sealed, batches, tmp) -> dict[str, ColumnStore]:
    """The layout in RAM and mmap-loaded, each then taking the appends."""
    columns = [Column(name, segments=[encode_segment(piece[i], encoding)
                                      for *piece, encoding in sealed], dtype=dtype)
               for i, name in enumerate("ab")]
    store = ColumnStore()
    store.add(Table("t", columns))
    stores = {"ram": store, "mmap": load(save(store, Path(tmp) / "db"), mmap=True)}
    for each in stores.values():
        for a, b in batches:
            each.append("t", {"a": a, "b": b})
    return stores


def _thresholds(column: Column, rng: np.random.Generator) -> list[int]:
    """At, just inside and just outside every FoR segment's packed range
    (its reference and its top code), the column's ends and a random
    value."""
    out = {0, int(rng.integers(-300, 300))}
    for seg in column.segments:
        if seg.encoding == "for":
            reference, top = seg.meta["reference"], seg.stats.max
            out.update((reference - 1, reference, reference + 1, top - 1, top, top + 1))
    if len(column) and column.dtype.kind in "iu":
        out.update((column.min - 1, column.min, column.max, column.max + 1))
    return sorted(out)


def _operands(value: int, dtype: np.dtype) -> list[np.ndarray]:
    """*value* as a length-1 operand of the column's dtype (when it fits),
    int64, uint64 (when it fits) and float64 (the last two: the decode)."""
    out = [np.array([value], dtype=np.float64)]
    for kind in dict.fromkeys((dtype, np.dtype(np.int64), np.dtype(np.uint64))):
        if kind.kind in "iu" and np.iinfo(kind).min <= value <= np.iinfo(kind).max:
            out.append(np.array([value], dtype=kind))
    return out


def _decoded(column: Column) -> np.ndarray:
    if not column.segments:
        return np.empty(0, dtype=column.dtype)
    return np.concatenate([s.values() for s in column.segments])


def _compare(fn: str, left: FusedVal, right: FusedVal, plan: MapPlan, counters):
    """The runner's ``fn(left.a, right.<b>)`` and what it decompressed."""
    before = counters.snapshot()
    out = FusedRuntime({}).binary(fn, B, left, A, right, B, plan)
    result = out.column(B).pad()[0]
    return result, counters.delta(before)["bytes_decompressed"]


class TestStoredComparisons:
    @given(layout=compare_layouts(), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_a_stored_form_comparison_equals_the_decoded_one(self, layout, seed):
        dtype, sealed, batches = layout
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            for store in _compare_stores(dtype, sealed, batches, tmp).values():
                table = store.table("t")
                a, b = table.column("a"), table.column("b")
                want_a, want_b = _decoded(a), _decoded(b)
                counters = a.counters
                n = len(want_a)
                for value in _thresholds(a, rng):
                    for operand in _operands(value, dtype):
                        for fn in COMPARISONS:
                            left = FusedVal(n, {A: Lazy(a.view())})
                            constant = FusedVal(1, {B: Dense(operand)})
                            for plan in (MapPlan(), MapPlan(constant, B)):
                                got, decompressed = _compare(fn, left, constant, plan, counters)
                                _same(got, apply_binary(fn, want_a, operand))
                                if _packed(a, operand):
                                    assert decompressed == 0, (fn, value, operand.dtype)
                for fn in COMPARISONS:
                    left = FusedVal(n, {A: Lazy(a.view())})
                    right = FusedVal(n, {B: Lazy(b.view())})
                    got, _ = _compare(fn, left, right, MapPlan(), counters)
                    _same(got, apply_binary(fn, want_a, want_b))

    def test_a_packed_pair_compare_decompresses_nothing(self):
        """Two FoR columns with different references on one grid, one
        piece of them out of each other's range."""
        a = np.array([5, 9, 7, 100, 101, 103], dtype=np.int32)
        b = np.array([1_000, 4, 7, 99, 102, 103], dtype=np.int32)
        columns = [Column(name, segments=[encode_segment(v[:3], "for"),
                                          encode_segment(v[3:], "for")])
                   for name, v in (("a", a), ("b", b))]
        references = [[s.meta["reference"] for s in c.segments] for c in columns]
        assert references == [[5, 100], [4, 99]]
        for fn in COMPARISONS:
            left = FusedVal(6, {A: Lazy(columns[0].view())})
            right = FusedVal(6, {B: Lazy(columns[1].view())})
            got, decompressed = _compare(fn, left, right, MapPlan(), columns[0].counters)
            _same(got, apply_binary(fn, a, b))
            assert decompressed == 0

    @given(layout=compare_layouts(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_a_range_and_an_in_list_equal_the_decoded_ones(self, layout, seed):
        """The ``And`` of two bounds and the ``Or`` chain of ``Equals`` the
        translator emits for an ``InSet``, each over one stored column:
        combined before anything reads them (one window, one membership
        test per FoR piece) when every operand is an exact integer, and
        equal to decode-then-``apply_binary`` either way."""
        dtype, sealed, batches = layout
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp:
            for store in _compare_stores(dtype, sealed, batches, tmp).values():
                a = store.table("t").column("a")
                want, n = _decoded(a), len(a)
                thresholds = _thresholds(a, rng)
                if n and dtype.kind == "i":  # windows closing on values the column holds
                    thresholds += [int(v) for v in rng.choice(want, 6)]

                def operand(value):
                    choices = _operands(value, dtype)
                    return choices[int(rng.integers(len(choices)))]

                for _ in range(12):
                    low, high = operand(int(rng.choice(thresholds))), operand(
                        int(rng.choice(thresholds)))
                    lower = str(rng.choice(["Greater", "GreaterEqual", "Equals"]))
                    upper = str(rng.choice(["Less", "LessEqual", "Equals", "NotEquals"]))
                    got, decompressed = _chain("LogicalAnd", [(lower, low), (upper, high)],
                                               a, n)
                    _same(got, np.logical_and(apply_binary(lower, want, low),
                                              apply_binary(upper, want, high)))
                    if upper != "NotEquals" and _packed(a, low) and _packed(a, high):
                        assert decompressed == 0, (lower, low, upper, high)
                    members = [("Equals", operand(int(v)))
                               for v in rng.choice(thresholds, int(rng.integers(1, 6)))]
                    got, decompressed = _chain("LogicalOr", members, a, n)
                    expected = apply_binary("Equals", want, members[0][1])
                    for _, value in members[1:]:
                        expected = np.logical_or(expected, apply_binary("Equals", want, value))
                    _same(got, expected)
                    if all(_packed(a, value) for _, value in members):
                        assert decompressed == 0, members

    def test_a_range_reads_each_packed_piece_once(self):
        """A window over two FoR pieces (4 one-byte codes each): the two
        bounds combine into one unread column whose read scans each
        piece's codes once (twice when each bound is read on its own) —
        or not at all when the window misses the piece.
        An IN-list scans a piece once per run of consecutive member codes
        it holds — the values outside the piece drop — into one array."""
        values = np.array([5, 9, 7, 8, 100, 101, 103, 102], dtype=np.int32)
        column = Column("a", segments=[encode_segment(values[:4], "for"),
                                       encode_segment(values[4:], "for")])
        assert [seg.payload["packed"].nbytes for seg in column.segments] == [4, 4]
        counters = column.counters
        for terms, op, scanned in (([("GreaterEqual", 7), ("Less", 102)], "LogicalAnd", 8),
                                   ([("Greater", 6), ("LessEqual", 8)], "LogicalAnd", 4),
                                   ([("Equals", 8), ("Equals", 9), ("Equals", 101)],
                                    "LogicalOr", 8),
                                   ([("Equals", 5), ("Equals", 7), ("Equals", 101)],
                                    "LogicalOr", 12),
                                   ([("Equals", 1), ("Equals", 200)], "LogicalOr", 0)):
            terms = [(fn, np.array([value], dtype=np.int64)) for fn, value in terms]
            before = counters.snapshot()
            got, _ = _chain(op, terms, column, len(values))
            assert counters.delta(before)["bytes_scanned"] == scanned, terms
            want = apply_binary(terms[0][0], values, terms[0][1])
            for fn, value in terms[1:]:
                want = apply_binary(op, want, apply_binary(fn, values, value))
            _same(got, want)
            combined = _chain(op, terms, column, len(values), read=False)
            assert type(combined) is Compared and combined.op == op

    def test_a_stored_column_meets_an_unread_comparison(self):
        """``b OR i != 83`` with ``b`` a stored RLE bool column and the
        comparison an unread :class:`Compared` of another column: the
        stored column does not map over the comparison object, both are
        read, and the result is the decoded one (a conformance-fuzzer
        finding)."""
        flags = np.repeat([True, False, False, True], 60)
        ints = np.arange(240, dtype=np.int32) % 100 + 70
        b = Column("b", segments=[encode_segment(flags, "rle")])
        i = Column("i", segments=[encode_segment(ints, "for")])
        assert b.stored() and i.stored()
        rt = FusedRuntime({})
        compared = rt.binary("NotEquals", B, FusedVal(240, {A: Lazy(i.view())}), A,
                             FusedVal(1, {B: Dense(np.array([83]))}), B, MapPlan())
        assert type(compared.column(B)) is Compared
        for fn in ("LogicalOr", "LogicalAnd", "Equals"):
            got = rt.binary(fn, B, FusedVal(240, {A: Lazy(b.view())}), A, compared, B, MapPlan())
            _same(got.column(B).pad()[0], apply_binary(fn, flags, ints != 83))

    def test_misaligned_pieces_take_the_decode(self):
        a = Column("a", segments=[encode_segment(np.arange(4, dtype=np.int32), "for"),
                                  encode_segment(np.arange(4, 8, dtype=np.int32), "for")])
        b = Column("b", segments=[encode_segment(np.arange(3, dtype=np.int32), "for"),
                                  encode_segment(np.arange(5, 10, dtype=np.int32), "for")])
        assert Lazy(a.view()).map_stored("Less", Lazy(b.view())) is None
        left = FusedVal(8, {A: Lazy(a.view())})
        right = FusedVal(8, {B: Lazy(b.view())})
        got, _ = _compare("Less", left, right, MapPlan(), a.counters)
        _same(got, np.less(a.data, b.data))


def _chain(op: str, terms, column: Column, n: int, read: bool = True):
    """The runner's ``fn(a, value)`` per term, joined left to right by
    *op*; with *read*, the result and what reading it decompressed."""
    rt = FusedRuntime({})
    left = FusedVal(n, {A: Lazy(column.view())})
    before = column.counters.snapshot()
    acc = None
    for fn, value in terms:
        term = rt.binary(fn, B, left, A, FusedVal(1, {B: Dense(value)}), B, MapPlan())
        acc = term if acc is None else rt.binary(op, B, acc, B, term, B, MapPlan())
    if not read:
        return acc.column(B)
    result = acc.column(B).pad()[0]
    return result, column.counters.delta(before)["bytes_decompressed"]


def _packed(column: Column, operand: np.ndarray) -> bool:
    """Must a comparison of *column* with *operand* read no decode?"""
    return (column.dtype.kind == "i" and operand.dtype.kind in "iu"
            and np.result_type(column.dtype, operand.dtype).kind in "iu")
