"""Segmented column storage with catalog metadata.

The MonetDB substitute (README, "Storage"): tables are collections of typed
columns; strings are dictionary encoded; the catalog tracks per-column
min/max statistics — the metadata the paper's backend "aggressively
exploits" to size hash tables and bypass collision handling (section 5.2).

Since the segment refactor, a :class:`Column` is an ordered list of
immutable :class:`~repro.storage.segment.Segment` objects (plain / RLE /
frame-of-reference encoded, in-RAM or mmap-backed — see
:mod:`repro.storage.segment`).  ``col.data`` still yields a plain
``np.ndarray`` (materializing on first touch), so every consumer of the
old whole-array contract keeps working; execution backends instead take
the lazy :class:`~repro.storage.segment.ColumnData` view from
``Table.to_vector()`` and only decode the columns a query touches.

Column min/max are computed once at segment seal time and combined per
column — never recomputed on access (translation's value-dependent plan
choices hit them repeatedly).

``ColumnStore.append(batch)`` writes the batch into each column's open
tail — an in-RAM plain segment that grows, O(batch) amortised, until it
is as long as the column's sealed segments — and bumps the table
version; the store ``fingerprint()`` is the schema only, so cached plans
keyed on it survive (see :meth:`append`) and rerun over every segment —
the IVM delta path is future work, but this is the segment contract it
needs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.keypath import Keypath
from repro.core.schema import Schema, check_dtype
from repro.core.vector import StructuredVector
from repro.errors import StorageError
from repro.storage.dictionary import StringDictionary
from repro.storage.segment import (
    DEFAULT_SEGMENT_ROWS,
    ColumnData,
    IOCounters,
    Segment,
    encode_segment,
    make_segments,
)


_PLAIN = frozenset(("plain",))


class Column:
    """One typed column: an ordered list of immutable sealed segments."""

    __slots__ = (
        "name", "dictionary", "segments", "counters",
        "_dtype", "_length", "_min", "_max", "_cache", "_whole", "_starts",
        "cacheable", "encoded",
    )

    def __init__(
        self,
        name: str,
        data: np.ndarray | None = None,
        dictionary: StringDictionary | None = None,
        *,
        segments: Sequence[Segment] | None = None,
        dtype: np.dtype | str | None = None,
        cacheable: bool = True,
    ):
        self.name = name
        self.dictionary = dictionary
        self.counters = IOCounters()
        self.cacheable = cacheable
        self._cache: np.ndarray | None = None
        self._whole: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        if segments is None:
            arr = np.asarray(data)
            check_dtype(arr.dtype)
            self.segments = make_segments(arr)
            self._dtype = arr.dtype
            # construction from an array is zero-copy: the array *is*
            # the plain segment payload, so keep it as the cache too
            self._cache = arr if self.segments else None
        else:
            if data is not None:
                raise StorageError("pass either data or segments, not both")
            self.segments = list(segments)
            if self.segments:
                self._dtype = self.segments[0].dtype
            elif dtype is not None:
                self._dtype = np.dtype(dtype)
            else:
                raise StorageError(f"column {name!r}: empty segments need a dtype")
            check_dtype(self._dtype)
        # one pass over the segments: every append builds a column
        length, encoded, mins, maxs = 0, set(), [], []
        for seg in self.segments:
            length += seg.length
            encoded.add(seg.encoding)
            if seg.stats.count:
                mins.append(seg.stats.min)
                maxs.append(seg.stats.max)
        self._length = length
        self._min, self._max = self._combine_stats(mins, maxs)
        #: the encodings its segments use (a column never changes its
        #: segments: an append makes a new column), so :meth:`stored`
        #: costs O(1) however many segments there are
        self.encoded = frozenset(encoded)

    def _combine_stats(self, mins: list, maxs: list):
        """Column min/max from the seal-time per-segment statistics."""
        if not mins:
            return None, None
        if self._dtype.kind in "iub":  # Python ints and bools: exact as they are
            return min(mins), max(maxs)
        # reduce through the column dtype so float NaN propagates exactly
        # as a whole-array ``.min()`` would have
        return (np.minimum.reduce(np.array(mins, dtype=self._dtype)).item(),
                np.maximum.reduce(np.array(maxs, dtype=self._dtype)).item())

    def __len__(self) -> int:
        return self._length

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def min(self):
        return self._min

    @property
    def max(self):
        return self._max

    @property
    def data(self) -> np.ndarray:
        """The whole column as one array (materializes; cached when in-RAM)."""
        return self.materialize()

    def stored(self) -> bool:
        """Would reading the column whole decode (a compressed segment
        and no cached decode)?  What a comparison asks, once per map,
        before it reads the stored form instead."""
        return self._cache is None and self.encoded != _PLAIN

    def view(self) -> ColumnData:
        """The lazy handle execution backends fold/slice/gather through."""
        return ColumnData(self)

    # -- materialization -------------------------------------------------------

    def attach_contiguous(self, whole: np.ndarray) -> None:
        """Register a zero-copy whole-column view (all-plain mmap columns).

        Unlike ``_cache``, reads through this view still count toward
        ``bytes_scanned`` — the pages really are fetched per query.
        """
        if len(whole) != self._length or whole.dtype != self._dtype:
            raise StorageError(f"column {self.name!r}: contiguous view mismatch")
        self._whole = whole

    def materialize(self) -> np.ndarray:
        if self._cache is not None:
            return self._cache
        out = self.materialize_range(0, self._length)
        if self.cacheable:
            self._cache = out
        return out

    def materialize_range(self, lo: int, hi: int) -> np.ndarray:
        """Decoded values of rows ``[lo, hi)`` (zero-copy when possible).

        Each overlapping segment piece decodes once, straight into its
        slice of the result; a range inside one segment is that
        segment's own decode (a view for plain).
        """
        if self._cache is not None:
            return self._cache[lo:hi]
        if self._whole is not None:
            out = self._whole[lo:hi]
            self.counters.bytes_scanned += out.nbytes
            return out
        pieces = list(self.pieces(lo, hi))
        if len(pieces) == 1:
            seg, a, b = pieces[0]
            out = seg.decode_range(a, b)
        else:
            out = np.empty(hi - lo, dtype=self._dtype)
            cursor = 0
            for seg, a, b in pieces:
                seg.decode_into(a, b, out[cursor:cursor + b - a])
                cursor += b - a
        self.count_decode(pieces)
        return out

    def count_decode(self, pieces) -> None:
        """Account the decode of ``(segment, local lo, local hi)`` pieces:
        a plain piece scans its rows; a compressed one scans its share of
        the stored payload and decompresses its rows."""
        itemsize = self._dtype.itemsize
        scanned = decompressed = 0
        for seg, a, b in pieces:
            if seg.encoding == "plain":
                scanned += (b - a) * itemsize
            else:
                scanned += round(seg.physical_nbytes * (b - a) / max(seg.length, 1))
                decompressed += (b - a) * itemsize
        self.counters.bytes_scanned += scanned
        self.counters.bytes_decompressed += decompressed

    def pieces(self, lo: int, hi: int):
        """Yields ``(segment, local lo, local hi)`` per segment sharing at
        least one row with ``[lo, hi)``, in row order."""
        offset = 0
        for seg in self.segments:
            seg_lo, seg_hi = offset, offset + seg.length
            offset = seg_hi
            if min(hi, seg_hi) > max(lo, seg_lo):
                yield seg, max(lo, seg_lo) - seg_lo, min(hi, seg_hi) - seg_lo

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Random access by global row position, without a full decode.

        Positions must lie in ``[0, len(self))``; one past the end raises
        ``IndexError`` (and so does a negative one, once the column has
        several segments).  Ascending positions (what a selection
        yields) are cut once at the segment starts and each slice of
        them is gathered straight into its slice of the result;
        unsorted positions are routed segment by segment.
        """
        if self._cache is not None:
            return self._cache[positions]
        positions = np.asarray(positions, dtype=np.int64)
        if self._whole is not None:
            out = self._whole[positions]
            self.counters.bytes_scanned += out.nbytes
            return out
        self.counters.bytes_scanned += len(positions) * self._dtype.itemsize
        if len(self.segments) == 1:
            return self.segments[0].take(positions)
        starts = self._segment_starts()
        out = np.empty(len(positions), dtype=self._dtype)
        if not len(positions):
            return out
        ascending = bool((positions[1:] >= positions[:-1]).all())
        low, high = ((positions[0], positions[-1]) if ascending
                     else (positions.min(), positions.max()))
        if low < 0 or high >= self._length:
            raise IndexError(
                f"column {self.name!r}: position out of range [0, {self._length})"
            )
        if ascending:
            cuts = np.searchsorted(positions, starts).tolist()
            for seg, start, c0, c1 in zip(self.segments, starts.tolist(), cuts, cuts[1:]):
                if c0 < c1:
                    seg.take(positions[c0:c1] - start, out=out[c0:c1])
        else:
            seg_of = np.searchsorted(starts, positions, side="right") - 1
            for si in np.unique(seg_of):
                hit = seg_of == si
                out[hit] = self.segments[si].take(positions[hit] - starts[si])
        return out

    def _segment_starts(self) -> np.ndarray:
        """First global row of every segment, plus the column length
        (memoized: a column's segments never change)."""
        if self._starts is None:
            starts = np.zeros(len(self.segments) + 1, dtype=np.int64)
            np.cumsum([s.length for s in self.segments], out=starts[1:])
            self._starts = starts
        return self._starts

    # -- sizes / catalog -------------------------------------------------------

    @property
    def physical_nbytes(self) -> int:
        return sum(s.physical_nbytes for s in self.segments)

    @property
    def logical_nbytes(self) -> int:
        return self._length * self._dtype.itemsize

    def dictionary_nbytes(self) -> int:
        """Estimated dictionary heap footprint (string bytes + refs)."""
        if self.dictionary is None:
            return 0
        values = self.dictionary.values()
        return sum(len(s.encode("utf-8", "replace")) for s in values) + 8 * len(values)

    def encodings(self) -> tuple[str, ...]:
        return tuple(s.encoding for s in self.segments)

    def release(self) -> None:
        """Drop decode caches and advise mapped pages away."""
        if not self.cacheable:
            self._cache = None
        for seg in self.segments:
            seg.release()

    def decoded(self) -> np.ndarray | list[str]:
        if self.dictionary is None:
            return self.data
        return self.dictionary.decode(self.data)

    def with_segments(self, segments: Sequence[Segment],
                      dictionary: StringDictionary | None = None) -> "Column":
        """A new column (same name/counters policy) over other segments."""
        col = Column(
            self.name,
            segments=segments,
            dtype=self._dtype,
            dictionary=self.dictionary if dictionary is None else dictionary,
            cacheable=self.cacheable,
        )
        col.counters = self.counters
        return col

    def __repr__(self) -> str:
        return (f"Column({self.name!r}, {self._length} rows, "
                f"{len(self.segments)} segments, {self._dtype})")


class Table:
    """An ordered collection of equal-length columns."""

    def __init__(self, name: str, columns: Sequence[Column], version: int = 0):
        if not columns:
            raise StorageError(f"table {name!r} needs at least one column")
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise StorageError(f"table {name!r}: column lengths differ: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {name!r}: duplicate column names")
        self.name = name
        self.columns: dict[str, Column] = {c.name: c for c in columns}
        self.n_rows = lengths.pop()
        #: bumped by ``ColumnStore.append``; a cached plan whose translation
        #: read this table's contents is valid while it stays put
        self.version = version

    @classmethod
    def from_arrays(cls, name: str, /, **arrays) -> "Table":
        """Build a table; str-dtype/object arrays are dictionary encoded.

        ``name`` is positional-only so a column may also be called "name".
        """
        columns = []
        for col_name, values in arrays.items():
            values = np.asarray(values)
            if values.dtype.kind in ("U", "S", "O"):
                dictionary, codes = StringDictionary.from_column([str(v) for v in values])
                columns.append(Column(col_name, codes, dictionary))
            else:
                columns.append(Column(col_name, values))
        return cls(name, columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise StorageError(
                f"no column {name!r} in table {self.name!r}; have {list(self.columns)}"
            ) from None

    def dictionary(self, name: str) -> StringDictionary:
        col = self.column(name)
        if col.dictionary is None:
            raise StorageError(f"column {self.name}.{name} is not dictionary encoded")
        return col.dictionary

    def to_vector(self) -> StructuredVector:
        """The table as a Structured Vector (one attribute per column).

        Columns are handed over *lazily*: a query only decodes (or pages
        in) the attributes its plan actually touches.
        """
        return StructuredVector(
            self.n_rows,
            {},
            lazy={Keypath([c.name]): c.view() for c in self.columns.values()},
        )

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self.n_rows} rows, {len(self.columns)} columns)"


@dataclass
class ColumnStats:
    """Catalog statistics for one column (the exploited metadata)."""

    min: float | int | None
    max: float | int | None
    dictionary_size: int | None = None

    @property
    def domain_size(self) -> int | None:
        """Size of a direct-addressed (identity-hash) table for this column."""
        if self.dictionary_size is not None:
            return self.dictionary_size
        if self.min is None or self.max is None:
            return None
        return int(self.max) - int(self.min) + 1


class ColumnStore:
    """The database: named tables + auxiliary vectors + statistics.

    ``meta`` carries dataset provenance — generator name, RNG seed,
    scale factor — so every result computed from this store can record
    how to regenerate its input (the conformance/benchmark harnesses
    propagate it into their results metadata).
    """

    def __init__(self, meta: dict | None = None) -> None:
        self._tables: dict[str, Table] = {}
        self._aux: dict[str, StructuredVector] = {}
        self.meta: dict = dict(meta or {})
        #: storage I/O accounting shared by every column of this store
        self.io = IOCounters()
        #: bumped by every table mutation (add, append); what
        #: :meth:`fingerprint`, :meth:`vectors` and :meth:`schemas` derive
        #: from the tables is memoized against it, so a warm execute
        #: rebuilds none of them and a plan-cache miss builds no schema.
        #: The auxiliary registry is in none (read live, see
        #: :meth:`vectors`), so registering a membership table costs none
        self._mutations = 0
        self._derived: dict[str, tuple] = {}
        self._derived_lock = threading.Lock()

    # -- tables -----------------------------------------------------------------

    def add(self, table: Table) -> None:
        if table.name in self._tables:
            raise StorageError(f"table {table.name!r} already exists")
        for col in table.columns.values():
            col.counters = self.io
        self._tables[table.name] = table
        self._mutations += 1

    def _memoized(self, name: str, build):
        """``build()``, recomputed only after a mutation.  Threads racing
        the first call publish one value."""
        entry = self._derived.get(name)
        if entry is None or entry[0] != self._mutations:
            with self._derived_lock:
                entry = self._derived.get(name)
                if entry is None or entry[0] != self._mutations:
                    entry = self._derived[name] = (self._mutations, build())
        return entry[1]

    def fingerprint(self) -> tuple:
        """Hashable schema of the base tables: table names, column names
        and dtypes — exactly what translation reads through
        :meth:`schemas`.

        The store part of the engine's plan-cache key: adding a table
        changes it; an append (rows, versions, segments) or re-encoding
        does not, so plans survive them.  Auxiliary vectors are *derived*
        caches (LIKE membership tables registered while building a
        query) and are deliberately excluded — they would otherwise
        change the key on first use.
        """
        return self._memoized("fingerprint", lambda: tuple(
            (name, tuple((col_name, str(col.dtype)) for col_name, col in table.columns.items()))
            for name, table in sorted(self._tables.items())
        ))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table {name!r}; have {sorted(self._tables)}") from None

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables or name in self._aux

    # -- appends ----------------------------------------------------------------

    def append(self, table_name: str, batch: Mapping[str, Sequence] | Table,
               encoding: str = "plain") -> None:
        """Append *batch* to the columns of *table_name*.

        A ``plain`` batch extends each column's open tail (see
        :func:`appended`); any other *encoding* seals it as one new
        segment per column.  The batch must cover exactly the table's
        columns; string columns take strings (dictionary-encoded against
        the column dictionary, which is merged — order-preserving — when
        the batch introduces new values, remapping the existing
        segments' codes; the remapped tail is sealed).  Bumps the
        table version: the schema, hence :meth:`fingerprint`, stays, so
        cached plans survive except those whose translation read this
        table's contents.  Auxiliary vectors are dropped.  Queries rerun
        over every segment for now; the IVM delta path (fold only the new
        segment, merge partials) builds on this contract.
        """
        table = self.table(table_name)
        if isinstance(batch, Table):
            batch = {name: col.decoded() for name, col in batch.columns.items()}
        if set(batch) != set(table.columns):
            raise StorageError(
                f"append to {table_name!r}: batch columns {sorted(batch)} "
                f"!= table columns {sorted(table.columns)}"
            )
        lengths = {len(v) for v in batch.values()}
        if len(lengths) != 1:
            raise StorageError(f"append to {table_name!r}: column lengths differ")
        n_new = lengths.pop()
        if n_new == 0:
            return
        replacements: dict[str, Column] = {}
        for name, col in table.columns.items():
            values = batch[name]
            if col.dictionary is not None:
                new_col = self._append_strings(col, list(map(str, values)), encoding)
            else:
                arr = np.asarray(values)
                if arr.dtype != col.dtype:
                    arr = arr.astype(col.dtype)
                new_col = col.with_segments(appended(col.segments, arr, encoding))
            replacements[name] = new_col
        table.columns.update(replacements)
        table.n_rows += n_new
        table.version += 1
        # membership tables and other aux vectors are derived from the
        # (now stale) base contents — drop them; translation re-registers
        self._aux.clear()
        self._mutations += 1

    @staticmethod
    def _append_strings(col: Column, values: list[str], encoding: str) -> Column:
        """Append strings to a dictionary column, merging the dictionary.

        The dictionary is order-preserving (sorted), so introducing new
        strings shifts existing codes: existing segments are remapped
        through an old-code → new-code table and resealed with their
        original encoding.
        """
        merged, remap = col.dictionary.merged(values)
        new_codes = merged.encode(values)
        if remap is None:
            segments = col.segments
        else:
            segments = [
                encode_segment(remap[seg.values()], seg.encoding)
                for seg in col.segments
            ]
        return col.with_segments(appended(segments, new_codes, encoding),
                                 dictionary=merged)

    # -- auxiliary vectors (membership tables for IN/LIKE, etc.) ------------------

    def add_aux(self, name: str, vector: StructuredVector, replace: bool = True) -> None:
        if name in self._aux and not replace:
            raise StorageError(f"auxiliary vector {name!r} already exists")
        self._aux[name] = vector

    # -- the Load-context and catalog views ----------------------------------------

    def vectors(self) -> dict[str, StructuredVector]:
        """The storage mapping handed to backends (Load name -> vector).

        The table vectors are built once per mutation; every call hands
        out unshared copies of them, so what one query decodes is not
        kept alive for the next.  Auxiliary vectors are read live: LIKE /
        IN membership tables are registered at query build time, after
        the table vectors may already be memoized."""
        tables = self._memoized("vectors", lambda: {
            name: table.to_vector() for name, table in self._tables.items()
        })
        out = {name: vector.unshared() for name, vector in tables.items()}
        out.update(self._aux)
        return out

    def schemas(self) -> dict[str, Schema]:
        """Load name -> schema (what :meth:`vectors` would carry), read
        off the column dtypes without building a column view.  The
        table schemas are built once per mutation (schemas are
        immutable, so every call shares them in a fresh dict);
        auxiliary vectors are read live, as in :meth:`vectors`."""
        out = dict(self._memoized("schemas", lambda: {
            name: Schema({Keypath([col.name]): col.dtype for col in table.columns.values()})
            for name, table in self._tables.items()
        }))
        out.update({name: vector.schema for name, vector in self._aux.items()})
        return out

    def stats(self, table: str, column: str) -> ColumnStats:
        col = self.table(table).column(column)
        return ColumnStats(
            min=col.min,
            max=col.max,
            dictionary_size=None if col.dictionary is None else len(col.dictionary),
        )

    def release(self) -> None:
        """Drop per-column decode caches; advise mapped pages away."""
        for table in self._tables.values():
            for col in table.columns.values():
                col.release()

    def total_bytes(self) -> int:
        """Honest resident footprint: segment payloads + dictionaries + aux."""
        report = self.memory_report()
        return report["total_bytes"]

    def memory_report(self) -> dict:
        """Per-table / per-column physical breakdown (what total_bytes counts)."""
        tables = {}
        segment_bytes = dictionary_bytes = 0
        for name, table in self._tables.items():
            cols = {}
            for col_name, col in table.columns.items():
                cols[col_name] = {
                    "physical_bytes": col.physical_nbytes,
                    "logical_bytes": col.logical_nbytes,
                    "dictionary_bytes": col.dictionary_nbytes(),
                    "segments": len(col.segments),
                    "encodings": list(col.encodings()),
                }
                segment_bytes += col.physical_nbytes
                dictionary_bytes += col.dictionary_nbytes()
            tables[name] = {"rows": table.n_rows, "version": table.version,
                            "columns": cols}
        aux_bytes = sum(_vector_nbytes(vec) for vec in self._aux.values())
        return {
            "tables": tables,
            "segment_bytes": segment_bytes,
            "dictionary_bytes": dictionary_bytes,
            "aux_bytes": aux_bytes,
            "total_bytes": segment_bytes + dictionary_bytes + aux_bytes,
        }

    def storage_report(self) -> dict:
        """Segment/encoding summary plus I/O counters (serving ``/stats``)."""
        encodings: dict[str, int] = {}
        segments = 0
        for table in self._tables.values():
            for col in table.columns.values():
                segments += len(col.segments)
                for enc in col.encodings():
                    encodings[enc] = encodings.get(enc, 0) + 1
        report = self.memory_report()
        return {
            "tables": len(self._tables),
            "segments": segments,
            "encodings": encodings,
            "segment_bytes": report["segment_bytes"],
            "dictionary_bytes": report["dictionary_bytes"],
            "aux_bytes": report["aux_bytes"],
            "total_bytes": report["total_bytes"],
            "io": self.io.snapshot(),
        }


def appended(segments: Sequence[Segment], values: np.ndarray,
             encoding: str = "plain") -> list[Segment]:
    """*segments* followed by *values* (of their dtype).

    ``plain`` values extend the last segment when it is an open tail
    with room left, else start a new open tail that may grow as long as
    the longest segment so far
    (:data:`~repro.storage.segment.DEFAULT_SEGMENT_ROWS` when there is
    none); a column therefore reads a few pieces however many small
    appends it took.  Any other encoding seals the values as a segment
    of their own.
    """
    if encoding != "plain":
        return [*segments, encode_segment(values, encoding)]
    if segments and segments[-1].is_open():
        grown = segments[-1].extended(values)
        if grown is not None:
            return [*segments[:-1], grown]
    limit = max((seg.length for seg in segments), default=DEFAULT_SEGMENT_ROWS)
    return [*segments, Segment.open_tail(np.ascontiguousarray(values), limit)]


def _vector_nbytes(vec: StructuredVector) -> int:
    total = 0
    for path in vec.paths:
        handle = vec.lazy_handle(path)
        if handle is not None:
            total += len(handle) * handle.dtype.itemsize
        else:
            total += vec.attr(path).nbytes
        mask = vec.present(path)
        if mask is not None:
            total += mask.nbytes
    return total


def resegment(
    store: ColumnStore,
    encoding: str = "auto",
    segment_rows: int | None = None,
    meta_note: str | None = None,
) -> ColumnStore:
    """A copy of *store* with every column resealed on a fresh segment grid.

    The storage-side twin of an engine config: same logical contents
    (queries must be bit-identical — the conformance grid's ``segmented``
    configs verify exactly that), different physical layout.  Dictionary
    objects are shared (immutable); auxiliary vectors are not copied —
    translation re-derives them on demand.
    """
    out = ColumnStore(meta=dict(store.meta))
    if meta_note:
        out.meta["storage"] = meta_note
    for table in store.tables():
        columns = []
        for col in table.columns.values():
            segments = make_segments(col.data, encoding=encoding,
                                     segment_rows=segment_rows)
            columns.append(Column(col.name, segments=segments, dtype=col.dtype,
                                  dictionary=col.dictionary))
        out.add(Table(table.name, columns, version=table.version))
    return out
