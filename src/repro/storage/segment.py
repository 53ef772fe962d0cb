"""Immutable column segments: the engine's storage substrate.

A :class:`Segment` is a sealed, immutable run of column values carrying

* an **encoding** — ``plain`` (raw values), ``rle`` (run-length:
  ``values`` + ``lengths``), or ``for`` (frame-of-reference: per-segment
  minimum as the reference plus byte-aligned packed deltas in the
  smallest unsigned dtype that fits) — layered *under* the existing
  dictionary encoding for strings (codes compress like any integers);
* **seal-time statistics** (min / max / count) computed exactly once,
  when the segment is created — never recomputed on access;
* a **backing buffer** that is either in-RAM or a view into the
  ``mmap`` of a persisted segment file (see :mod:`repro.storage.persist`).

Encodings are *lossless at the bit level*: run detection on float
columns compares the underlying bit patterns (``NaN != NaN`` and
``-0.0 == 0.0`` would otherwise tear or merge runs), so a
decode-after-encode round trip is ``array_equal`` on the raw bytes.

Random access never requires a full decode: ``rle`` resolves positions
by binary search over the run offsets, ``for`` fancy-indexes the packed
deltas — the basis of the fused runtime's gather-without-decompress
path.  Per-segment fold partials over RLE runs live in
:mod:`repro.compiler.kernels` (:func:`~repro.compiler.kernels.fold_runs`).
A comparison against an integer never decodes a ``for`` segment either:
it compares the packed codes against the threshold shifted by the
reference (:meth:`Segment.compare_codes`, :meth:`Segment.compare_pair`).

An append grows an **open tail** (:meth:`Segment.open_tail`,
:meth:`Segment.extended`): a plain segment over a prefix of a buffer
with spare capacity.  Extending it writes the new rows past the prefix
and returns a new segment over the longer prefix of the same buffer, so
every segment stays an immutable value — an older tail never sees rows
it did not hold — and an append costs O(batch), amortised.

``IOCounters`` tracks the two numbers every out-of-core report needs:
``bytes_scanned`` (physical stored bytes read from segment payloads)
and ``bytes_decompressed`` (logical bytes materialized by decoding
non-plain segments).  A query that folds straight over compressed runs
scans without decompressing.
"""

from __future__ import annotations

import mmap as _mmap_mod
import operator
import threading

import numpy as np

from repro.errors import StorageError

ENCODINGS = ("plain", "rle", "for")

#: default rows per sealed segment
DEFAULT_SEGMENT_ROWS = 1 << 18

#: accept RLE only when the run payload is at most this fraction of plain
_RLE_ACCEPT_RATIO = 0.5

#: rows an open tail's buffer holds at least when the tail opens
_TAIL_MIN_CAPACITY = 1024

#: a comparison ufunc and the same comparison of two Python ints (what a
#: FoR piece whose codes all lie on one side of the threshold answers)
COMPARISONS = {
    np.less: operator.lt, np.less_equal: operator.le,
    np.greater: operator.gt, np.greater_equal: operator.ge,
    np.equal: operator.eq, np.not_equal: operator.ne,
}


class IOCounters:
    """Cumulative storage I/O accounting (shared by all columns of a store).

    ``bytes_scanned``: physical bytes read from segment payloads — for a
    plain segment that equals the logical bytes; for a compressed one it
    is the (smaller) stored size.  ``bytes_decompressed``: logical bytes
    produced by *decoding* a non-plain segment into a scratch array.
    Fold/filter paths that work directly on runs scan without ever
    decompressing.  Plain ``int`` increments: exact single-threaded,
    approximate (but never crashing) under concurrent serving.
    """

    __slots__ = ("bytes_scanned", "bytes_decompressed")

    def __init__(self) -> None:
        self.bytes_scanned = 0
        self.bytes_decompressed = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "bytes_scanned": self.bytes_scanned,
            "bytes_decompressed": self.bytes_decompressed,
        }

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        return {
            "bytes_scanned": self.bytes_scanned - before["bytes_scanned"],
            "bytes_decompressed": self.bytes_decompressed - before["bytes_decompressed"],
        }


class SegmentStats:
    """Seal-time statistics of one segment (computed once, then read)."""

    __slots__ = ("min", "max", "count")

    def __init__(self, min_, max_, count: int):
        self.min = min_
        self.max = max_
        self.count = int(count)

    @classmethod
    def seal(cls, values: np.ndarray) -> "SegmentStats":
        if len(values) == 0:
            return cls(None, None, 0)
        # NaN-propagating min/max, matching what ``array.min()`` reported
        # before stats were cached (translation's plan choices see the
        # same values they always did) — the ufunc reductions ``min()``
        # wraps, called without the wrapper: every append seals a batch
        return cls(np.minimum.reduce(values).item(), np.maximum.reduce(values).item(),
                   len(values))

    def to_json(self) -> dict:
        return {"min": self.min, "max": self.max, "count": self.count}

    @classmethod
    def from_json(cls, data: dict) -> "SegmentStats":
        return cls(data["min"], data["max"], data["count"])

    def merged(self, other: "SegmentStats", dtype: np.dtype) -> "SegmentStats":
        """The stats of both segments' rows, reduced through *dtype* so a
        float NaN propagates as a whole-array ``.min()`` would."""
        if not other.count:
            return self
        if not self.count:
            return other
        count = self.count + other.count
        if dtype.kind in "iub":  # Python ints and bools: exact as they are
            return SegmentStats(min(self.min, other.min), max(self.max, other.max), count)
        pair = np.array([(self.min, other.min), (self.max, other.max)], dtype=dtype)
        return SegmentStats(np.minimum.reduce(pair[0]).item(),
                            np.maximum.reduce(pair[1]).item(), count)


def _bitwise(values: np.ndarray) -> np.ndarray:
    """A view suitable for exact (bit-level) run comparison."""
    if values.dtype.kind == "f":
        return values.view(np.dtype(f"i{values.dtype.itemsize}"))
    if values.dtype.kind == "b":
        return values.view(np.uint8)
    return values


class Segment:
    """One immutable, sealed run of column values."""

    __slots__ = ("encoding", "dtype", "length", "stats", "payload", "meta",
                 "physical_nbytes", "_reference", "_offsets", "_tail")

    def __init__(
        self,
        encoding: str,
        dtype: np.dtype,
        length: int,
        stats: SegmentStats,
        payload: dict[str, np.ndarray],
        meta: dict | None = None,
    ):
        if encoding not in ENCODINGS:
            raise StorageError(f"unknown segment encoding {encoding!r}")
        self.encoding = encoding
        self.dtype = np.dtype(dtype)
        self.length = int(length)
        self.stats = stats
        self.payload = payload
        self.meta = meta or {}
        #: stored payload bytes (sealed: never changes)
        self.physical_nbytes = sum(int(a.nbytes) for a in payload.values())
        #: the FoR reference as a scalar of the column dtype
        self._reference = (self.dtype.type(self.meta["reference"])
                           if encoding == "for" else None)
        self._offsets: np.ndarray | None = None
        #: an open tail's buffer (:class:`_TailBuffer`); None once sealed
        self._tail: _TailBuffer | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def plain(cls, values: np.ndarray, stats: SegmentStats | None = None) -> "Segment":
        values = np.ascontiguousarray(values)
        return cls("plain", values.dtype, len(values),
                   stats or SegmentStats.seal(values), {"values": values})

    @classmethod
    def rle(cls, run_values: np.ndarray, run_lengths: np.ndarray,
            stats: SegmentStats) -> "Segment":
        return cls("rle", run_values.dtype, int(run_lengths.sum()), stats,
                   {"values": np.ascontiguousarray(run_values),
                    "lengths": np.ascontiguousarray(run_lengths)})

    @classmethod
    def open_tail(cls, values: np.ndarray, limit: int) -> "Segment":
        """A plain segment of *values* that appends may grow to *limit*
        rows, over a buffer with spare capacity (an append's tail)."""
        n = len(values)
        buffer = np.empty(max(2 * n, _TAIL_MIN_CAPACITY), dtype=values.dtype)
        buffer[:n] = values
        segment = cls("plain", values.dtype, n, SegmentStats.seal(values),
                      {"values": buffer[:n]})
        segment._tail = _TailBuffer(buffer, n, limit)
        return segment

    def extended(self, values: np.ndarray) -> "Segment | None":
        """This open tail followed by *values* (of its dtype), as a new
        open tail; None when that would pass the tail's row limit.
        Writes past this segment's rows into the shared buffer when it
        has room and no longer tail holds those rows; otherwise copies
        into a buffer twice the size.  The stats merge this segment's
        with the new rows' (O(batch), never a rescan)."""
        tail, n, k = self._tail, self.length, len(values)
        if n + k > tail.limit:
            return None
        with tail.lock:  # one writer claims the rows past n
            claimed = tail.filled == n and len(tail.buffer) >= n + k
            if claimed:
                tail.filled = n + k
        if not claimed:
            tail = _TailBuffer(np.empty(2 * (n + k), dtype=self.dtype), n + k, tail.limit)
            tail.buffer[:n] = self.payload["values"]
        tail.buffer[n:n + k] = values
        stats = self.stats.merged(SegmentStats.seal(values), self.dtype)
        segment = Segment("plain", self.dtype, n + k, stats, {"values": tail.buffer[:n + k]})
        segment._tail = tail
        return segment

    def is_open(self) -> bool:
        """Is this an append's open tail (a plain segment that can grow)?"""
        return self._tail is not None

    # -- sizes ---------------------------------------------------------------

    @property
    def logical_nbytes(self) -> int:
        return self.length * self.dtype.itemsize

    # -- decoding ------------------------------------------------------------

    def values(self) -> np.ndarray:
        """The decoded values (zero-copy for plain segments)."""
        return self.decode_into(0, self.length)

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Decoded values of local rows ``[lo, hi)`` (a view for plain)."""
        return self.decode_into(lo, hi)

    def decode_into(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Decode local rows ``[lo, hi)`` into *out* (length ``hi - lo``,
        this segment's dtype) and return it; without *out*, a plain
        segment returns a view and the others a fresh array.

        One pass per encoding: plain copies the slice; ``for`` adds the
        reference to the packed deltas in the column dtype, so each row
        reads its packed code and writes its value once; ``rle`` expands
        its clipped runs through ``np.repeat`` (which has no ``out=``).
        """
        if self.encoding == "for":
            return self._add_reference(self.payload["packed"][lo:hi], out)
        if self.encoding == "plain":
            values = self.payload["values"][lo:hi]
        else:
            values = np.repeat(*self.run_slice(lo, hi))
        if out is None:
            return values
        out[...] = values
        return out

    def _add_reference(self, packed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``packed + reference`` computed in the column dtype (FoR decode)."""
        return np.add(packed, self._reference, out=out, dtype=self.dtype, casting="unsafe")

    def compare_codes(self, ufunc, lo: int, hi: int, threshold: int,
                      out: np.ndarray) -> int:
        """``ufunc(values[lo:hi], threshold)`` of a ``for`` segment into the
        bool array *out*, read off the packed codes: ``p + r OP c`` is
        ``p OP c - r``, computed in Python ints and compared in the packed
        dtype (never against a Python int, whose promotion differs
        between NumPy versions).  A shifted threshold outside
        ``[0, max code]`` puts every code on one side of it: the piece is
        all true or all false and nothing is read.  Returns the packed
        bytes read."""
        reference = self.meta["reference"]
        shifted = threshold - reference
        if not 0 <= shifted <= self.stats.max - reference:
            out[...] = COMPARISONS[ufunc](0, shifted)
            return 0
        packed = self.payload["packed"][lo:hi]
        ufunc(packed, packed.dtype.type(shifted), out=out)
        return packed.nbytes

    def range_codes(self, lo: int, hi: int, low: int | None, high: int | None,
                    out: np.ndarray) -> int:
        """``low <= values[lo:hi] <= high`` (None: that side unbounded) of
        a ``for`` segment into the bool array *out*, in one pass over the
        packed codes: both bounds shift by the reference and clamp to
        ``[0, max code]`` as Python ints (:func:`_window`).  An empty
        window, or one holding every code, answers the piece without
        reading it.  Returns the packed bytes read."""
        reference = self.meta["reference"]
        top = self.stats.max - reference
        first = 0 if low is None else max(low - reference, 0)
        last = top if high is None else min(high - reference, top)
        if first > last or (first == 0 and last == top):
            out[...] = first <= last
            return 0
        packed = self.payload["packed"][lo:hi]
        _window(packed, first, last, top, out)
        return packed.nbytes

    def member_codes(self, lo: int, hi: int, values, out: np.ndarray) -> int:
        """``values[lo:hi]`` is one of the integers *values*, of a ``for``
        segment into the bool array *out*, on the packed codes: each value
        shifts by the reference (Python ints) and those outside ``[0, max
        code]`` drop — none left, or every code a member, answers the
        piece unread.  Consecutive member codes test as one window
        (:func:`_window`), the others one pass each, all into *out*: no
        bool array per value and no ``Or`` pass.  (A table indexed by
        code would read the codes once, but ``np.take`` first widens
        every code to an ``intp`` index: 6-8x slower than two compares
        over 123 k one-byte codes on NumPy 2.4.)  Returns the packed
        bytes read."""
        reference = self.meta["reference"]
        top = self.stats.max - reference
        codes = sorted({v - reference for v in values if 0 <= v - reference <= top})
        if not codes or len(codes) == top + 1:
            out[...] = bool(codes)
            return 0
        windows = [[codes[0], codes[0]]]
        for code in codes[1:]:
            if code == windows[-1][1] + 1:
                windows[-1][1] = code
            else:
                windows.append([code, code])
        packed = self.payload["packed"][lo:hi]
        _window(packed, *windows[0], top, out)
        if len(windows) > 1:
            hit = np.empty_like(out)
            for first, last in windows[1:]:
                _window(packed, first, last, top, hit)
                np.logical_or(out, hit, out=out)
        return packed.nbytes * len(windows)

    def compare_pair(self, ufunc, lo: int, hi: int, other: "Segment",
                     other_lo: int, out: np.ndarray) -> int:
        """``ufunc(values[lo:hi], other values)`` of two ``for`` segments
        (as many rows of *other* from *other_lo*) into *out*, on their
        codes: ``p_a + r_a OP p_b + r_b`` is ``p_a - p_b OP r_b - r_a``,
        the code difference taken in int32 (int64 past 16-bit codes).
        A reference gap outside the difference's range answers the piece
        without reading it.  Returns the packed bytes read."""
        gap = other.meta["reference"] - self.meta["reference"]
        low = -(other.stats.max - other.meta["reference"])
        if not low <= gap <= self.stats.max - self.meta["reference"]:
            out[...] = COMPARISONS[ufunc](0, gap)
            return 0
        a = self.payload["packed"][lo:hi]
        b = other.payload["packed"][other_lo:other_lo + hi - lo]
        wide = np.dtype(np.int64 if max(a.itemsize, b.itemsize) > 2 else np.int32)
        ufunc(np.subtract(a, b, dtype=wide), wide.type(gap), out=out)
        return a.nbytes + b.nbytes

    def run_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(run values, run lengths) covering local rows ``[lo, hi)`` of
        an RLE segment, with the edge runs clipped to the range."""
        if hi <= lo:
            return (self.payload["values"][:0],
                    np.empty(0, dtype=np.int64))
        offsets = self.run_offsets()
        first = int(np.searchsorted(offsets, lo, side="right"))
        last = int(np.searchsorted(offsets, hi - 1, side="right"))
        values = self.payload["values"][first:last + 1]
        ends = np.minimum(offsets[first:last + 1], hi)
        starts = np.empty(last + 1 - first, dtype=np.int64)
        starts[0] = lo
        starts[1:] = offsets[first:last]
        return values, ends - starts

    def run_offsets(self) -> np.ndarray:
        """Cumulative run end positions of an RLE segment (cached)."""
        if self._offsets is None:
            self._offsets = np.cumsum(
                self.payload["lengths"], dtype=np.int64
            )
        return self._offsets

    def take(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Random access by local position — no full decode for any encoding.

        ``rle`` binary-searches the run offsets; ``for`` gathers the
        packed deltas and adds the reference in one pass.  Writes into
        *out* when given, else returns a fresh array; a position past
        the end raises ``IndexError``.
        """
        if self.encoding == "for":
            return self._add_reference(self.payload["packed"][positions], out)
        index = positions
        if self.encoding == "rle":
            index = np.searchsorted(self.run_offsets(), positions, side="right")
        if out is None:
            return self.payload["values"][index]
        return np.take(self.payload["values"], index, out=out)

    # -- buffer management ---------------------------------------------------

    def is_mapped(self) -> bool:
        return any(mapping_of(a) is not None for a in self.payload.values())

    def release(self) -> None:
        """Advise the kernel to drop this segment's resident file pages.

        No-op for in-RAM segments; keeps an out-of-core scan's resident
        set bounded to the segments currently being read.
        """
        for array in self.payload.values():
            mapped = mapping_of(array)
            if mapped is not None and hasattr(mapped, "madvise"):
                try:
                    mapped.madvise(_mmap_mod.MADV_DONTNEED)
                except (ValueError, OSError):  # closed or platform-limited
                    pass


def _window(packed: np.ndarray, first: int, last: int, top: int, out: np.ndarray) -> None:
    """``first <= packed <= last`` into *out*, for codes of at most *top*
    (``0 <= first <= last <= top``), in one pass: a window open on one
    side is one comparison, a closed one ``packed - first <= last -
    first`` in the unsigned packed dtype, where a code below *first*
    wraps past ``last - first``."""
    kind = packed.dtype.type
    if first == last:
        np.equal(packed, kind(first), out=out)
    elif first == 0:
        np.less_equal(packed, kind(last), out=out)
    elif last == top:
        np.greater_equal(packed, kind(first), out=out)
    else:
        np.less_equal(np.subtract(packed, kind(first)), kind(last - first), out=out)


class _TailBuffer:
    """The buffer under an open tail, how many of its rows some tail
    holds (only the tail holding all of them may write past them) and
    how many rows the tail may grow to."""

    __slots__ = ("buffer", "filled", "limit", "lock")

    def __init__(self, buffer: np.ndarray, filled: int, limit: int):
        self.buffer = buffer
        self.filled = filled
        self.limit = limit
        self.lock = threading.Lock()


def mapping_of(array: np.ndarray) -> _mmap_mod.mmap | None:
    """The ``mmap`` an array views (found through its ``.base`` chain),
    or None for an in-RAM array.  Payloads are plain ndarray views of the
    file, so slicing them runs none of ``np.memmap``'s Python hooks."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base if isinstance(base, _mmap_mod.mmap) else None


# ---------------------------------------------------------------- encoding


def _encode_rle(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(run values, run lengths) by exact bit-level run detection, or
    ``None`` when RLE would not be worth storing."""
    n = len(values)
    if n == 0:
        return None
    bits = _bitwise(values)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(bits[1:], bits[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    run_values = np.ascontiguousarray(values[starts])
    run_lengths = np.diff(starts, append=n).astype(np.int32)
    payload = run_values.nbytes + run_lengths.nbytes
    if payload > values.nbytes * _RLE_ACCEPT_RATIO:
        return None
    return run_values, run_lengths


def _encode_for(values: np.ndarray,
                stats: SegmentStats) -> tuple[np.ndarray, int, int] | None:
    """(packed deltas, reference, width bits) or ``None`` when FoR does
    not apply (non-integers, empty, or no narrower packed dtype)."""
    if values.dtype.kind not in "iu" or len(values) == 0:
        return None
    lo = int(stats.min)
    span = int(stats.max) - lo
    for width, packed_dtype in ((8, np.uint8), (16, np.uint16), (32, np.uint32)):
        if span < (1 << width) and width < values.dtype.itemsize * 8:
            # deltas in the column's own dtype: a uint64 value past the
            # int64 range has no int64 image
            packed = (values - values.dtype.type(lo)).astype(packed_dtype)
            return packed, lo, width
    return None


def encode_segment(values: np.ndarray, encoding: str = "plain") -> Segment:
    """Seal *values* into one segment with the requested encoding.

    ``auto`` stores the smallest of RLE, FoR and plain: RLE applies when
    its runs take at most half the plain bytes, FoR to integers whose
    range fits a narrower unsigned dtype, and a tie goes to FoR (its
    read is one add, an RLE read a ``np.repeat``), then to RLE.  Asking
    explicitly for ``rle``/``for`` falls back to plain when the encoding
    does not apply — encodings are an optimization, never a requirement.
    """
    if encoding not in ENCODINGS and encoding != "auto":
        raise StorageError(f"unknown encoding {encoding!r}")
    values = np.ascontiguousarray(values)
    stats = SegmentStats.seal(values)
    candidates = []
    if encoding in ("for", "auto"):
        packed = _encode_for(values, stats)
        if packed is not None:
            candidates.append(Segment(
                "for", values.dtype, len(values), stats,
                {"packed": packed[0]},
                {"reference": packed[1], "width": packed[2]},
            ))
    if encoding in ("rle", "auto"):
        runs = _encode_rle(values)
        if runs is not None:
            candidates.append(Segment.rle(runs[0], runs[1], stats))
    if not candidates:
        return Segment.plain(values, stats)
    return min(candidates, key=lambda segment: segment.physical_nbytes)


def make_segments(
    values: np.ndarray,
    encoding: str = "plain",
    segment_rows: int | None = None,
) -> list[Segment]:
    """Seal *values* into an ordered list of segments.

    ``segment_rows=None`` seals one segment spanning the array (the
    in-RAM construction default — zero-copy for plain).  An empty array
    produces an empty list.
    """
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return []
    if segment_rows is None or segment_rows >= n:
        return [encode_segment(values, encoding)]
    rows = max(1, int(segment_rows))
    return [
        encode_segment(values[lo:min(lo + rows, n)], encoding)
        for lo in range(0, n, rows)
    ]


# --------------------------------------------------------------- lazy views


class ColumnData:
    """A lazily-materialized ``[lo, hi)`` row view over a segmented column.

    The handle the storage layer hands to execution backends in place of
    a materialized array: it knows its dtype and length up front, and
    materializes (or random-accesses, or iterates runs) only when a
    kernel actually touches the data.  Slicing composes without reading
    anything.
    """

    __slots__ = ("column", "lo", "hi")

    def __init__(self, column, lo: int = 0, hi: int | None = None):
        self.column = column
        self.lo = int(lo)
        self.hi = len(column) if hi is None else int(hi)

    @property
    def dtype(self) -> np.dtype:
        return self.column.dtype

    def __len__(self) -> int:
        return self.hi - self.lo

    def slice(self, lo: int, hi: int) -> "ColumnData":
        lo = max(0, min(lo, len(self)))
        hi = max(lo, min(hi, len(self)))
        return ColumnData(self.column, self.lo + lo, self.lo + hi)

    def materialize(self) -> np.ndarray:
        return self.column.materialize_range(self.lo, self.hi)

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Values at view-local positions (no full decode)."""
        if self.lo:
            positions = np.asarray(positions, dtype=np.int64) + self.lo
        return self.column.take(positions)

    def _runs(self, seg: Segment, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """An RLE piece's clipped runs, their bytes accounted as scanned."""
        values, lengths = seg.run_slice(lo, hi)
        self.column.counters.bytes_scanned += values.nbytes + lengths.nbytes
        return values, lengths

    def _decoded(self, seg: Segment, lo: int, hi: int) -> np.ndarray:
        """A piece's values (one decode pass), accounted as the column's
        own decode would be."""
        values = seg.decode_range(lo, hi)
        self.column.count_decode(((seg, lo, hi),))
        return values

    def map_stored(self, apply, codes=None) -> np.ndarray | None:
        """``apply`` (an element-wise map of an array) over the view, read
        piece by piece in stored form into one result: an RLE piece maps
        its runs and expands the results, a ``for`` piece answers from its
        packed codes when *codes* — ``codes(segment, lo, hi, out)``, a
        bool map such as :meth:`Segment.compare_codes`, returning the
        bytes it read — is given and decodes otherwise, a plain piece
        maps as it is.  None for an empty view."""
        out = None
        at = 0
        counters = self.column.counters
        for seg, lo, hi in self.column.pieces(self.lo, self.hi):
            if seg.encoding == "for" and codes is not None:
                if out is None:
                    out = np.empty(len(self), dtype=bool)
                counters.bytes_scanned += codes(seg, lo, hi, out[at:at + hi - lo])
            else:
                if seg.encoding == "rle":
                    values, lengths = self._runs(seg, lo, hi)
                    piece = np.repeat(apply(values), lengths)
                else:
                    piece = apply(self._decoded(seg, lo, hi))
                if out is None:
                    if hi - lo == len(self):
                        return piece
                    out = np.empty(len(self), dtype=piece.dtype)
                out[at:at + hi - lo] = piece
            at += hi - lo
        return out

    def compare_stored(self, ufunc, other: "ColumnData") -> np.ndarray | None:
        """``ufunc(self, other)`` (a comparison) over two views of one
        length whose segment pieces line up: a pair of ``for`` pieces
        compares codes (:meth:`Segment.compare_pair`), any other pair
        decodes both.  None when the pieces do not line up."""
        mine = list(self.column.pieces(self.lo, self.hi))
        theirs = list(other.column.pieces(other.lo, other.hi))
        if len(self) != len(other) or len(mine) != len(theirs) or any(
                hi - lo != b - a for (_, lo, hi), (_, a, b) in zip(mine, theirs)):
            return None
        out = np.empty(len(self), dtype=bool)
        at = 0
        for (seg, lo, hi), (theirs_seg, a, b) in zip(mine, theirs):
            piece = out[at:at + hi - lo]
            at += hi - lo
            if seg.encoding == theirs_seg.encoding == "for":
                self.column.counters.bytes_scanned += seg.compare_pair(
                    ufunc, lo, hi, theirs_seg, a, piece)
            else:
                ufunc(self._decoded(seg, lo, hi), other._decoded(theirs_seg, a, b), out=piece)
        return out

    def run_pairs(self):
        """Yields ``(values, lengths_or_None)`` per covered segment piece.

        ``lengths is None`` marks a plain piece (values are the rows
        themselves); an RLE piece yields its clipped runs; a FoR piece
        decodes (it has no run structure to exploit).  Scanned bytes are
        accounted; nothing is counted as decompressed unless a non-plain
        piece actually expands.
        """
        for seg, lo, hi in self.column.pieces(self.lo, self.hi):
            if seg.encoding == "rle":
                yield self._runs(seg, lo, hi)
            else:
                yield self._decoded(seg, lo, hi), None

    def fold(self, fn: str):
        """Fold ``sum``/``min``/``max`` directly over the segments.

        Returns a 0-d result array, or ``None`` when the fold cannot be
        computed bit-identically without decompressing (float sums — the
        sequential accumulation order differs from per-run multiplies).
        RLE pieces fold over their runs (:func:`repro.compiler.kernels.fold_runs`),
        plain/FoR pieces over values; per-segment partials combine in
        segment order, preserving the exact fold semantics of the
        uniform-run kernels.
        """
        from repro.compiler import kernels

        if fn not in ("sum", "min", "max"):
            return None
        if fn == "sum" and self.dtype.kind == "f":
            return None
        partials = [kernels.fold_runs(fn, values, lengths)
                    for values, lengths in self.run_pairs()]
        if not partials:
            return None
        return kernels.combine_fold_partials(fn, partials)

    def fold_grained(self, fn: str, run_length: int) -> np.ndarray | None:
        """Per-run partial sums for uniform runs of *run_length*, straight
        off the segments (RLE runs are never decoded).

        Covers integer/bool ``sum`` only — the one grained combination
        that is order-independent (int64 arithmetic wraps mod 2**64, so
        prefix-sum differences over runs equal the kernel's row-wise
        sums bit for bit).  A ragged final run (``run_length`` not
        dividing the view) is fine.  Returns the int64 partials vector
        (length ``ceil(len(self) / run_length)``, matching the fold
        kernels' per-run values for a dense input) or ``None`` when
        ineligible.
        """
        n = len(self)
        if fn != "sum" or self.dtype.kind not in "iub":
            return None
        if run_length <= 0 or n == 0 or "rle" not in self.column.encoded:
            return None
        out = np.zeros(-(-n // run_length), dtype=np.int64)
        base = 0  # view-local row offset of the current piece
        for seg, lo, hi in self.column.pieces(self.lo, self.hi):
            piece_len = hi - lo
            c0 = base // run_length
            c1 = (base + piece_len - 1) // run_length
            # view-local run boundaries this piece touches, clipped to the
            # piece and rebased piece-local — strictly increasing
            cuts = np.arange(c0, c1 + 2, dtype=np.int64) * run_length
            cuts = np.clip(cuts, base, base + piece_len) - base
            if seg.encoding == "rle":
                values, lengths = self._runs(seg, lo, hi)
                runs = lengths.astype(np.int64)
                ends = np.cumsum(runs)
                vals = values.astype(np.int64)
                prefix = np.cumsum(vals * runs)
                # sum of piece rows [0, x): whole runs before x, plus the
                # covered prefix of the run containing x — all mod 2**64
                r = np.searchsorted(ends, cuts, side="left")
                r = np.minimum(r, len(vals) - 1)
                upto = prefix[r] - vals[r] * (ends[r] - cuts)
                partial = upto[1:] - upto[:-1]
            else:
                values = self._decoded(seg, lo, hi)
                partial = np.add.reduceat(
                    values.astype(np.int64, copy=False), cuts[:-1]
                )
            out[c0:c1 + 1] += partial
            base += piece_len
        return out
