"""The column kinds against one oracle, and the never-written value.

A runner value is a ``{keypath: column}`` mapping and a column is one of
seven kinds (:mod:`repro.compiler.columns`).  Every kind answers the same
protocol, and every answer is a function of the column's padded image:
``pad()`` is the oracle here, the other methods are checked against it
mechanically — kinds x methods x shapes (ε-heavy, all-ε, empty,
length-1, non-zero fill, cuts through a slot pattern) — so a new kind or
a new method is one more row of :func:`cases`, not a new test.

The second half pins what the single mapping buys: no read, through any
method, writes into a value or a column mapping, so a value shared by
chunk workers cannot change under a reader.
"""

import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

from repro.compiler import FusedRuntime
from repro.compiler.columns import (
    Column, Compact, Compared, Deferred, Dense, Lazy, Run, Slots, Taken,
)
from repro.compiler.rt_fast import FusedVal, fused_slice, route, to_fused
from repro.core import StructuredVector
from repro.core.controlvector import IDENTITY, RunInfo, constant_run
from repro.core.keypath import kp
from repro.errors import SchemaError
from repro.storage import make_segments
from repro.storage.columnstore import Column as StoredColumn

KINDS = (Dense, Compact, Run, Lazy, Compared, Deferred, Taken)


def handle(values: np.ndarray, encoding: str = "auto", rows: int = 7):
    """A storage handle over *values*, cut into segments of *rows*."""
    return StoredColumn(
        "c", segments=make_segments(values, encoding, rows), dtype=values.dtype
    ).view()


def compact(n: int, index, values, fill) -> Compact:
    values = np.asarray(values)
    return Compact(Slots(np.asarray(index, dtype=np.int64), n), values,
                   np.asarray([fill], dtype=values.dtype))


def deferred(key: Column, pivots: int, scatter_only: bool) -> Deferred:
    """The positions column a Partition of *key* over ``0..pivots-1`` builds."""
    rt = FusedRuntime({})
    out = rt.partition(
        kp(".pos"), FusedVal(len(key), {kp(".k"): key}), kp(".k"),
        rt.range_(kp(".p"), IDENTITY, pivots), kp(".p"), scatter_only=scatter_only,
    ).column(kp(".pos"))
    assert type(out) is Deferred
    return out


def compared(values, encoding, op, *terms, rows: int = 7) -> Compared:
    """Comparisons of a storage column against integer literals."""
    return Compared(handle(values, encoding, rows), op,
                    tuple((fn, np.array([value])) for fn, value in terms))


def read(column: Column) -> Column:
    column.pad()
    return column


def decoded(values, encoding):
    return read(Lazy(handle(values, encoding)))


#: what a Taken reads through, name -> (a fresh mask-free 40-row column, its values)
_RNG = np.random.default_rng(17)
_SIGNED = np.where(_RNG.random(40) < 0.3, -0.0, _RNG.random(40) - 0.5)
_FLAGS = _RNG.random(40) < 0.5
_RUNNY = np.repeat(np.arange(8, dtype=np.int64), 5)
_CAPPED = RunInfo(2, Fraction(3), 7)
_FIRST = _RNG.integers(0, 40, 40)  # the inner gather of a gather of a gather
TAKEN_SOURCES = {
    "dense float": (lambda: Dense(_SIGNED), _SIGNED),
    "dense bool": (lambda: Dense(_FLAGS), _FLAGS),
    "run": (lambda: Run(RunInfo(12, Fraction(1)), 40), np.arange(12, 52)),
    "run, capped": (lambda: Run(_CAPPED, 40), _CAPPED.materialize(40)),
    "lazy": (lambda: Lazy(handle(_SIGNED, "plain")), _SIGNED),
    "lazy, decoded": (lambda: decoded(_RUNNY, "rle"), _RUNNY),
    "lazy, sliced": (lambda: Lazy(handle(np.tile(_RUNNY, 2), "rle").slice(20, 60)),
                     np.tile(_RUNNY, 2)[20:60]),
    "taken": (lambda: Taken(Dense(_SIGNED), _FIRST), _SIGNED[_FIRST]),
}
#: the positions read: none, duplicates, out of order — all in bounds
TAKEN_INDICES = {
    "empty": np.zeros(0, dtype=np.int64),
    "duplicates": np.array([3, 3, 39, 0, 3, 17, 17, 0], dtype=np.int64),
    "unsorted": _RNG.permutation(40)[:25].astype(np.int64),
}


def taken(source: str, index: str, on_slots: bool) -> Taken:
    rows = TAKEN_INDICES[index]
    slots = None
    if on_slots:  # (the empty index: five ε slots)
        length = 2 * len(rows) + 5
        at = np.sort(np.random.default_rng(length).permutation(length)[: len(rows)])
        slots = Slots(at.astype(np.int64), length)
    return Taken(TAKEN_SOURCES[source][0](), rows, slots)


def taken_image(source: str, index: str, on_slots: bool) -> tuple[np.ndarray, np.ndarray]:
    """What ``taken(...)`` must pad to, from NumPy alone."""
    values = TAKEN_SOURCES[source][1][TAKEN_INDICES[index]]
    column = taken(source, index, on_slots)
    if column.slots is None:
        return values, np.ones(len(values), dtype=bool)
    array = np.zeros(column.slots.length, dtype=values.dtype)
    array[column.slots.index] = values
    return array, column.slots.mask()


TAKEN_CASES = [(source, index, on_slots) for source in TAKEN_SOURCES
               for index in TAKEN_INDICES for on_slots in (False, True)]


def cases():
    """``(name, build)``: *build* makes a fresh column (memos unset)."""
    rng = np.random.default_rng(5)
    ints = rng.integers(-50, 50, 40)
    floats = rng.random(40) - 0.5
    sparse = rng.random(40) < 0.15
    runny = np.repeat(np.arange(8, dtype=np.int64), 5)
    keys = rng.integers(0, 6, 40)
    hits = np.flatnonzero(sparse)

    yield from {
        "dense": lambda: Dense(ints),
        "dense, ε-heavy": lambda: Dense(floats, sparse),
        "dense, all-ε": lambda: Dense(ints, np.zeros(40, dtype=bool)),
        "dense, mask all set": lambda: Dense(ints, np.ones(40, dtype=bool)),
        "dense, empty": lambda: Dense(ints[:0]),
        "dense, empty masked": lambda: Dense(floats[:0], sparse[:0]),
        "dense, one row": lambda: Dense(floats[:1]),
        "dense, one ε row": lambda: Dense(ints[:1], np.zeros(1, dtype=bool)),
        "compact, ε-heavy": lambda: compact(40, hits, floats[hits], 0.0),
        "compact, fill 7": lambda: compact(40, hits, ints[hits], 7),
        "compact, fill -0.0": lambda: compact(40, hits, floats[hits], -0.0),
        "compact, bool fill True": lambda: compact(40, hits, sparse[hits] ^ True, True),
        "compact, all-ε": lambda: compact(40, [], ints[:0], 3),
        "compact, first and last": lambda: compact(40, [0, 39], ints[:2], 0),
        "compact, every slot": lambda: compact(5, np.arange(5), ints[:5], 9),
        "compact, empty": lambda: compact(0, [], floats[:0], 0.0),
        "compact, one ε slot": lambda: compact(1, [], ints[:0], 4),
        "compact, one row": lambda: compact(1, [0], ints[:1], 4),
        "run, identity": lambda: Run(IDENTITY, 40),
        "run, from 12": lambda: Run(RunInfo(12, Fraction(1)), 40),
        "run, constant": lambda: Run(constant_run(-3), 40),
        "run, runs of 4": lambda: Run(RunInfo(0, Fraction(1, 4)), 39),
        "run, step 3 mod 7": lambda: Run(RunInfo(2, Fraction(3), 7), 40),
        "run, empty": lambda: Run(IDENTITY, 0),
        "run, one row": lambda: Run(constant_run(5), 1),
        "lazy, plain": lambda: Lazy(handle(floats, "plain")),
        "lazy, rle": lambda: Lazy(handle(runny, "rle")),
        "lazy, for": lambda: Lazy(handle(ints, "for")),
        "lazy, sliced handle": lambda: Lazy(handle(runny, "rle").slice(3, 33)),
        "lazy, decoded": lambda: decoded(runny, "rle"),
        "lazy, empty": lambda: Lazy(handle(ints[:0])),
        "lazy, one row": lambda: Lazy(handle(ints[:1])),
        "compared, for": lambda: compared(ints, "for", None, ("Less", 3)),
        "compared, range": lambda: compared(ints, "for", "LogicalAnd",
                                            ("Greater", -20), ("LessEqual", 17)),
        "compared, in-list over runs": lambda: compared(runny, "auto", "LogicalOr",
                                                        ("Equals", 2), ("Equals", 5)),
        "compared, sliced handle": lambda: Compared(
            handle(ints, "for").slice(5, 31), None, (("NotEquals", np.array([0])),)),
        "compared, read": lambda: read(compared(ints, "for", None, ("GreaterEqual", 0))),
        "compared, empty": lambda: compared(ints[:0], "for", None, ("Equals", 1)),
        "compared, one row": lambda: compared(ints[:1], "for", None, ("Equals", int(ints[0]))),
        "deferred": lambda: deferred(Dense(keys), 6, False),
        "deferred, keys past the pivots": lambda: deferred(Dense(keys), 3, False),
        "deferred, compact key": lambda: deferred(compact(40, hits, keys[hits], 0), 6, True),
        "deferred, fill in a middle bucket":
            lambda: deferred(compact(40, hits, keys[hits], 3), 6, True),
        "deferred, all-ε key": lambda: deferred(compact(40, [], keys[:0], 2), 6, True),
        "deferred, empty": lambda: deferred(Dense(keys[:0]), 6, False),
        "deferred, one row": lambda: deferred(Dense(keys[:1]), 6, False),
        **{f"taken, {source}, {index}{', on slots' * on_slots}":
           lambda case=(source, index, on_slots): taken(*case)
           for source, index, on_slots in TAKEN_CASES},
        # as many rows as slots: every slot is present, whatever the pattern said
        "taken, every slot": lambda: Taken(Dense(ints), np.arange(5)[::-1].copy(),
                                           Slots(np.arange(5), 5)),
    }.items()


CASES = dict(cases())


def test_every_kind_is_covered():
    assert {type(build()) for build in CASES.values()} == set(KINDS)


def oracle(column: Column) -> tuple[np.ndarray, np.ndarray]:
    array, mask = column.pad()
    assert array.ndim == 1 and (mask is None or mask.shape == array.shape)
    return array, np.ones(len(array), dtype=bool) if mask is None else mask


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit for bit (``-0.0`` is not ``0.0``, a NaN is itself)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_against_pad(column: Column, array: np.ndarray, mask: np.ndarray, where) -> None:
    """Every protocol answer of *column*, against its padded image."""
    n = len(array)
    assert column.dtype == array.dtype and len(column) == n, where
    once, there = column.once()  # (first: on a cold column nothing is read yet)
    assert same(once, array), (*where, "once")
    assert mask.all() if there is None else same(there, mask), (*where, "once")
    for upto in (None, 0, 1, n // 2, n, n + 3):
        want = np.count_nonzero(mask if upto is None else mask[:upto])
        assert column.present(upto) == want, (*where, "present", upto)
    own = column.mask()
    assert mask.all() if own is None else same(own, mask), (*where, "mask")
    values, slots = column.rows()
    assert same(values, array[mask]), (*where, "rows")
    if slots is None:
        assert mask.all(), (*where, "rows", "slots")
    else:
        assert slots.length == n and same(slots.index, np.flatnonzero(mask)), (*where, "slots")
    whole = column.whole()  # (None: no single array, or a cheaper way to map it)
    assert whole is None or (mask.all() and same(whole, array)), (*where, "whole")
    rng = np.random.default_rng(n)
    for index in (np.zeros(0, dtype=np.int64), np.arange(n), np.arange(n)[::-1],
                  rng.integers(0, max(n, 1), 2 * n)[: 2 * n if n else 0]):
        for found in (None, {}):
            values, present = column.take(index, found)
            assert same(values, array[index]), (*where, "take", len(index))
            assert mask[index].all() if present is None else same(present, mask[index]), where
    again, _ = column.pad()
    assert again is column.pad()[0], (*where, "pad is memoized")
    settled = column.resolved()
    assert settled is column or isinstance(column, Taken), (*where, "resolved")
    assert not isinstance(settled, Taken) and same(settled.pad()[0], array), (*where, "resolved")


def cuts(n: int):
    yield from {(0, n), (0, 0), (n, n), (0, n // 2), (n // 3, n), (n // 3, n - n // 4),
                (min(1, n), max(n - 1, min(1, n)))}


@pytest.mark.parametrize("name", CASES)
def test_protocol_agrees_with_the_padded_image(name):
    column = CASES[name]()
    array, mask = oracle(CASES[name]())
    check_against_pad(column, array, mask, (name,))
    # ... and asked in the other order: a memo set by one method must not
    # change what another answers
    check_against_pad(column, array, mask, (name, "memos set"))


@pytest.mark.parametrize("name", CASES)
def test_slices_are_the_sliced_image(name):
    array, mask = oracle(CASES[name]())
    for lo, hi in cuts(len(array)):
        for warm in (False, True):
            column = CASES[name]()
            if warm:
                column.pad()
            part = column.slice(lo, hi)
            check_against_pad(part, array[lo:hi], mask[lo:hi], (name, lo, hi, warm))
            image, _ = part.pad()
            assert same(image, array[lo:hi]), (name, lo, hi, "ε slots keep their image")


@pytest.mark.parametrize("name", CASES)
def test_take_and_rows_never_pad(name, monkeypatch):
    """``take`` costs its index and ``rows`` the present rows: neither
    goes through a full-length ε image."""
    column = CASES[name]()
    index = np.arange(len(column))[::2]

    def no_pad(self):
        raise AssertionError(f"{type(self).__name__}.pad() called")

    for kind in KINDS:
        monkeypatch.setattr(kind, "pad", no_pad)
    column.rows()
    column.take(index)
    column.take(index, {})
    column.present(3), column.mask(), column.dtype, column.sparse()


def test_a_slice_keeps_shared_slots_shared():
    """Columns on one pattern stay on one pattern through a slice (and
    columns on another do not join them), so maps over a chunk's columns
    stay compact."""
    slots = Slots(np.array([1, 4, 5, 9, 17, 30], dtype=np.int64), 40)
    other = Slots(slots.index.copy(), 40)
    values = np.arange(6.0)
    fill = np.zeros(1)
    val = FusedVal(40, {
        kp(".a"): Compact(slots, values, fill),
        kp(".b"): Compact(slots, values * 2, fill),
        kp(".c"): Compact(other, values, fill),
        kp(".d"): Dense(np.arange(40)),
    })
    for lo, hi in ((3, 20), (5, 8), (0, 39), (31, 40)):
        part = fused_slice(val, lo, hi)
        a, b, c = (part.column(kp(p)).sparse() for p in (".a", ".b", ".c"))
        assert a.slots is b.slots and a.slots is not c.slots, (lo, hi)
        assert a.slots.same_as(c.slots) and a.slots.length == hi - lo
    assert fused_slice(val, 0, 40) is val
    # every slot of the cut present: the plain dense column it then is
    assert type(fused_slice(val, 4, 6).column(kp(".a"))) is Dense
    # one column at a time shares through the caller's memo
    seen: dict = {}
    a = val.column(kp(".a")).slice(3, 20, seen)
    assert a.slots is val.column(kp(".b")).slice(3, 20, seen).slots


@pytest.mark.parametrize("source, index, on_slots", TAKEN_CASES)
def test_a_taken_pads_to_the_gathered_rows(source, index, on_slots):
    """The oracle of the grid above is ``pad()`` itself: here it is NumPy's
    ``values[index]`` on the slots, zero elsewhere — ``-0.0`` kept."""
    array, mask = taken_image(source, index, on_slots)
    for warm in (False, True):
        column = taken(source, index, on_slots)
        if warm:
            column.rows()
        elif column.slots is None:  # one pass over a dense gather keeps nothing
            assert same(column.once()[0], array) and column._column is None
        check_against_pad(column, array, mask, (source, index, on_slots, warm))
        assert same(column.pad()[0], array)


@pytest.mark.parametrize("source, index, on_slots", TAKEN_CASES)
def test_a_taken_answers_what_it_is_without_reading(source, index, on_slots, monkeypatch):
    column = taken(source, index, on_slots)
    array, mask = taken_image(source, index, on_slots)

    def no_take(self, index, found=None):
        raise AssertionError(f"{type(self).__name__}.take() called")

    for kind in KINDS:
        monkeypatch.setattr(kind, "take", no_take)
    assert column.dtype == array.dtype and len(column) == len(array)
    for upto in (None, 0, 1, len(array) // 2, len(array), len(array) + 3):
        assert column.present(upto) == np.count_nonzero(mask[:upto]), upto
    own = column.mask()
    assert mask.all() if own is None else same(own, mask)
    assert column._column is None


def test_a_gather_of_a_gather_reads_the_final_rows_only():
    inner = Taken(Dense(_SIGNED), _FIRST)
    index = TAKEN_INDICES["duplicates"]
    values, present = inner.take(index)
    assert present is None and same(values, _SIGNED[_FIRST][index])
    outer = Taken(inner, index)
    assert same(outer.rows()[0], _SIGNED[_FIRST][index]) and outer.rows()[1] is None
    third = Taken(outer, np.array([7, 0, 0]))  # (outer is resolved by now: read as stored)
    assert same(third.pad()[0], _SIGNED[_FIRST][index][[7, 0, 0]])
    assert inner._column is None, "composing resolved the column it read through"
    # on slots there is no composing: the column reads as the compact one it is
    sparse = taken("dense float", "duplicates", True)
    at = np.array([0, 2, 20, 2])
    want, mask = taken_image("dense float", "duplicates", True)
    values, present = sparse.take(at)
    assert same(values, want[at]) and same(present, mask[at])


def test_rows_on_their_own_slots_stay_unread(monkeypatch):
    """A scatter of compact rows onto their own slots moves nothing — and
    reads nothing: an unread gather is handed on as the dense gather it
    is (asking it for ``sparse()`` would read every data column of a
    group-by to use one)."""
    slots = Slots(np.array([1, 4, 5, 9], dtype=np.int64), 12)
    index = np.array([3, 3, 39, 0], dtype=np.int64)
    values = np.arange(4.0)
    val = FusedVal(12, {
        kp(".taken"): Taken(Dense(_SIGNED), index, slots),
        kp(".equal"): Taken(Dense(_FLAGS), index, Slots(slots.index.copy(), 12)),
        kp(".compact"): Compact(slots, values, np.zeros(1)),
        kp(".read"): Taken(Dense(_RUNNY), index, slots),
    })
    val.column(kp(".read")).rows()
    reads: list = []
    plain = Dense.take
    monkeypatch.setattr(Dense, "take", lambda self, index, found=None: (
        reads.append(len(index)), plain(self, index, found))[1])
    rows = FusedRuntime({})._rows_at(val, slots.index, slots)
    assert not reads and rows.length == 4
    for path in (".taken", ".equal"):
        column = rows.column(kp(path))
        assert type(column) is Taken and column.slots is None and column._column is None
    assert rows.column(kp(".compact")).array is values
    assert same(rows.attr(kp(".taken")), _SIGNED[index])
    assert same(rows.attr(kp(".equal")), _FLAGS[index])
    assert same(rows.attr(kp(".read")), _RUNNY[index])
    assert reads == [4, 4]
    # another pattern: the rows at those slots, ε ones among them
    other = Slots(np.array([0, 4, 9], dtype=np.int64), 12)
    rows = FusedRuntime({})._rows_at(val, other.index, other)
    image, mask = val.column(kp(".taken")).pad()
    assert same(rows.attr(kp(".taken")), image[other.index])
    assert same(rows.mask(kp(".taken")), mask[other.index])


def test_one_taken_read_by_many_threads():
    """Eight readers race to resolve one column: each sees the gathered
    bits, whichever of them published the memo."""
    want = _SIGNED[_FIRST]
    failures: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(50):
            column = Taken(Lazy(handle(_SIGNED, "plain")), _FIRST)
            start = threading.Barrier(8)

            def reader(seed: int, column=column, start=start) -> None:
                try:
                    start.wait(timeout=30)
                    for ask in range(4):
                        if (seed + ask) % 2:
                            assert same(column.rows()[0], want)
                        else:
                            assert same(column.take(np.arange(40)[::-1])[0], want[::-1])
                        assert same(column.pad()[0], want) and column.mask() is None
                except BaseException as error:  # reported by the main thread
                    failures.append(error)

            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures


def test_deferred_answers_what_it_is_without_ranking(monkeypatch):
    column = CASES["deferred, compact key"]()
    monkeypatch.setattr(type(column.groups), "positions",
                        lambda self: pytest.fail("a row was ranked"))
    assert column.dtype == np.int64 and len(column) == 40
    assert column.present() == column.present(40) == len(column.groups.part)
    assert column.present(0) == 0 and column.mask().sum() == column.present()


# -- a value is never written after it is built -----------------------------------


def loaded_value():
    rng = np.random.default_rng(11)
    n = 60
    dense = rng.integers(0, 9, n)
    masked = rng.random(n)
    vector = StructuredVector(
        n, {".dense": dense, ".masked": masked},
        {".masked": rng.random(n) < 0.5},
        lazy={".rle": handle(np.repeat(np.arange(12, dtype=np.int64), 5), "rle"),
              ".for": handle(rng.integers(100, 200, n), "for")},
    )
    return vector, to_fused(vector)


def test_reading_a_loaded_value_does_not_write_it():
    vector, val = loaded_value()
    mapping, columns = val.columns, dict(val.columns)
    assert {type(column) for column in columns.values()} == {Dense, Lazy}
    rt = FusedRuntime({"t": vector})
    index = np.arange(0, val.length, 3)
    for path, column in columns.items():
        column.dtype, len(column), column.present(), column.present(7), column.mask()
        column.take(index), column.rows(), column.slice(5, 50), column.pad()
        column.sparse(), column.span(), column.runs(), column.shifted(2)
        column.whole(), column.info, column.fold("max", 0), column.fold("max", 4)
        column.stored(), column.map_stored("Add", np.ones(1, dtype=np.int64))
        val.attr(path), val.mask(path), val.dtype_of(path), val.present_count(path)
        val.scalar(path)
    val.item_sizes(), val.paths(), fused_slice(val, 3, 9), rt.force(val)
    rt._rows_at(val, index), rt.project(val, route(val.columns, kp(".rle"), kp(".x")))
    assert val.columns is mapping and list(mapping) == list(columns)
    assert all(mapping[path] is column for path, column in columns.items())
    # the decode is the column's own: the storage vector still holds handles
    assert all(vector.lazy_handle(path) is not None for path in (".rle", ".for"))
    for path, column in columns.items():
        assert same(column.pad()[0], vector.attr(path)), path


class MeddlingHandle:
    """A storage handle whose random access decodes a sibling column of
    the value it belongs to — the interleaving of two chunk workers, one
    walking the value's columns while the other reads one whole, made
    deterministic."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.dtype = values.dtype
        self.meddle = lambda: None

    def __len__(self) -> int:
        return len(self.values)

    def materialize(self) -> np.ndarray:
        return self.values

    def take(self, index: np.ndarray) -> np.ndarray:
        self.meddle()
        return self.values[index]

    def slice(self, lo: int, hi: int) -> "MeddlingHandle":
        self.meddle()
        return MeddlingHandle(self.values[lo:hi])


def test_a_whole_read_inside_a_walk_over_the_columns():
    """At the parent commit ``extract`` moved a decoded column from
    ``val.lazy`` to ``val.cols`` while ``_rows_at`` / ``fused_slice`` /
    ``_side`` iterated them: ``dictionary changed size during iteration``."""
    n = 30
    a, b, c = np.arange(n), np.arange(n) * 2.0, np.arange(n)[::-1].copy()
    meddling = MeddlingHandle(a)
    val = FusedVal(n, {
        kp(".a"): Lazy(meddling),
        kp(".b"): Lazy(MeddlingHandle(b)),
        kp(".c"): Lazy(MeddlingHandle(c)),
    })
    meddling.meddle = lambda: (val.attr(kp(".b")), val.attr(kp(".c")))
    rt = FusedRuntime({})
    index = np.array([3, 3, 29, 0])
    positions = FusedVal(4, {kp(".p"): Dense(index)})
    for rows in (rt._rows_at(val, index), rt.gather(val, positions, kp(".p"))):
        assert [str(path) for path in rows.paths()] == [".a", ".b", ".c"]
        for path, want in ((".a", a), (".b", b), (".c", c)):
            assert same(rows.attr(kp(path)), want[index])
    part = fused_slice(val, 5, 20)
    assert same(part.attr(kp(".a")), a[5:20]) and same(part.attr(kp(".c")), c[5:20])
    assert [str(path) for path in val.paths()] == [".a", ".b", ".c"]


def test_one_value_read_by_many_threads():
    """More readers than cores on one shared value, switching often:
    every reader sees the same bits and the value stays what it was."""
    vector, val = loaded_value()
    rt = FusedRuntime({})
    want = {path: vector.attr(path).copy() for path in vector.paths}
    index = np.arange(val.length)[::-1]
    failures: list = []
    start = threading.Barrier(8)

    def reader(seed: int) -> None:
        try:
            start.wait(timeout=30)
            for round_ in range(40):
                lo = (seed + round_) % 20
                rows = rt._rows_at(val, index)
                part = fused_slice(val, lo, lo + 30)
                whole = rt.force(val)
                for path, array in want.items():
                    assert same(rows.attr(path), array[index])
                    assert same(part.attr(path), array[lo:lo + 30])
                    assert same(whole.attr(path), array)
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)
    assert list(val.columns) == list(vector.paths)


# -- the output boundary: a vector over the columns --------------------------------


def boundary_value():
    """Columns of every kind an output can hold: two compact ones on one
    pattern, one on an equal pattern built apart, one on another pattern,
    an unread gather, a masked dense column with ε garbage, a control
    vector."""
    n = 12
    slots = Slots(np.array([1, 4, 5, 9], dtype=np.int64), n)
    fill = np.zeros(1)
    return FusedVal(n, {
        kp(".a"): Compact(slots, np.arange(4.0), fill),
        kp(".b"): Compact(slots, np.array([-0.0, 2.5, np.nan, 7.0]), np.array([3.0])),
        kp(".c"): Compact(Slots(slots.index.copy(), n), np.arange(4), np.zeros(1, dtype=int)),
        kp(".t"): Taken(Dense(_SIGNED), np.array([3, 3, 39, 0]), slots),
        kp(".other"): Compact(Slots(np.array([4, 5, 6], dtype=np.int64), n),
                              np.arange(3.0), fill),
        kp(".masked"): Dense(np.arange(n) * 1.5, np.arange(n) % 3 == 1),
        kp(".run"): Run(IDENTITY, n),
    })


def eager(val: FusedVal) -> StructuredVector:
    """The vector ``force`` built before it stopped padding."""
    padded = {path: column.pad() for path, column in val.columns.items()}
    return StructuredVector(val.length, {p: a for p, (a, _) in padded.items()},
                            {p: m for p, (_, m) in padded.items()})


def assert_same_vector(want: StructuredVector, have: StructuredVector) -> None:
    assert len(want) == len(have) and want.paths == have.paths
    assert want.schema == have.schema
    for path in want.paths:
        assert same(want.attr(path), have.attr(path)), path
        assert same(want.present(path), have.present(path)), path
        assert want.is_dense(path) == have.is_dense(path), path


def test_a_forced_vector_pads_what_is_read_when_it_is_read(monkeypatch):
    val = boundary_value()
    want = eager(boundary_value())
    pads: list = []
    for kind in KINDS:
        monkeypatch.setattr(kind, "pad", lambda self, plain=kind.pad: (
            pads.append(type(self)), plain(self))[1])
    vector = FusedRuntime({}).force(val)
    assert val.column(kp(".t"))._column is not None, "rows are resolved inside force"
    assert len(vector) == 12 and vector.paths == want.paths and vector.schema == want.schema
    assert "float64" in repr(vector) and vector.resolve(".a") == (kp(".a"),)
    assert vector.is_dense(".run") and not vector.is_dense(".b") and not vector.is_dense(".masked")
    assert not pads, "what a vector is, it answers from its columns"
    assert same(vector.attr(".b"), want.attr(".b"))
    assert len(pads) == len(vector.paths), "the first padded read settles the vector"
    assert same(vector.present(".masked"), want.present(".masked"))
    assert vector.attr(".b") is vector.attr(".b")
    assert_same_vector(want, vector)
    assert len(pads) == len(vector.paths), "... once"
    with pytest.raises(Exception, match="no attribute"):
        vector.attr(".missing")
    with pytest.raises(Exception, match="no attribute"):
        vector.present(".missing")


def test_a_forced_vector_holds_rows_not_gathers():
    source = np.arange(40.0)
    gone = weakref.ref(source)
    val = FusedVal(4, {kp(".t"): Taken(Dense(source), np.array([3, 3, 39, 0]))})
    vector = FusedRuntime({}).force(val)
    del val, source
    assert gone() is None, "a result keeps the source of a gather alive"
    assert same(vector.attr(".t"), np.array([3.0, 3.0, 39.0, 0.0]))
    with pytest.raises(SchemaError, match="length"):
        StructuredVector.over(5, {kp(".t"): Dense(np.arange(4))})


@pytest.mark.parametrize("first", (None, ".other", ".run"))
def test_structural_reads_of_a_forced_vector_are_the_eager_ones(first):
    steps = {
        "project": lambda v: v.project(".b", ".x"),
        "with_attr": lambda v: v.with_attr(".a", np.ones(12)),
        "zip": lambda v: StructuredVector.single(".z", np.arange(9)).zip(v),
        "zip, left": lambda v: v.zip(StructuredVector.single(".z", np.arange(9))),
        "unshared": lambda v: v.unshared(),
    }
    for name, step in steps.items():
        vector = FusedRuntime({}).force(boundary_value())
        if first is not None:  # an attribute read out of order keeps its place
            vector.attr(first)
        assert_same_vector(step(eager(boundary_value())), step(vector))


def test_rows_of_a_forced_vector(monkeypatch):
    def no_pad(self):
        raise AssertionError(f"{type(self).__name__}.pad() called")

    val = boundary_value()
    want = eager(boundary_value())

    def by_arithmetic(paths):
        mask = np.ones(12, dtype=bool)
        for path in paths:
            mask &= want.present(path)
        return [want.attr(path)[mask] for path in paths]

    vector = FusedRuntime({}).force(val)
    with monkeypatch.context() as patch:
        for kind in KINDS:
            patch.setattr(kind, "pad", no_pad)
        # one pattern (by identity or by value): the rows as they are stored
        for paths in ([".a"], [".a", ".b"], [".b", ".c", ".t", ".a"], [".run"], [".masked"]):
            for have, rows in zip(vector.rows(paths), by_arithmetic(paths), strict=True):
                assert same(have, rows), paths
        assert vector.rows([".a", ".b"])[1] is val.column(kp(".b")).values
    # patterns that differ: the rows where all are present, by mask and index
    for paths in ([".a", ".other"], [".run", ".a"], [".masked", ".b", ".other"], []):
        for have, rows in zip(vector.rows(paths), by_arithmetic(paths), strict=True):
            assert same(have, rows), paths
    # ... as an interpreter-built vector answers, and a forced one read before
    for paths in ([".a", ".b"], [".a", ".other"], [".run"]):
        for built in (want, vector):
            for have, rows in zip(built.rows(paths), by_arithmetic(paths), strict=True):
                assert same(have, rows), paths
    with pytest.raises(Exception, match="no attribute"):
        vector.rows([".a", ".missing"])
