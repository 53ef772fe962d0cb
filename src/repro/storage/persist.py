"""On-disk persistence: a segment catalog over raw column files.

Layout (catalog version 2): ``catalog.json`` describes tables, column
dtypes, dictionaries, and — per column — an ordered list of segments
with their encoding, length, **seal-time min/max stats** (so a loaded
store never rescans data to answer catalog queries) and the byte extents
of their payload buffers inside one ``<table>.<column>.g<N>.bin`` file
per column, where ``N`` is the save's generation.  Buffer offsets are
64-byte aligned, except that an all-plain column's payloads are packed
back-to-back so the whole column is one contiguous extent (the
zero-copy whole-column view).

A save is **one swap**: every column file of the new generation is
written under a name no catalog uses yet (each through a temp file and
``os.replace``, the pattern the native tier uses for compiled ``.so``
files), then the catalog is ``os.replace``\\ d last, and only then are
the old catalog's ``.bin`` files unlinked, with any generation-named
``.bin`` a failed save left behind.  Until the catalog swap the old
catalog still names the old generation's untouched files, so a crash or
a failed write at any point leaves readers the old store or the new
one, never a mix.

Loading with ``mmap=True`` (the default) maps, never copies: each
column file is mapped once and every segment payload is a plain
``np.ndarray`` view into the mapping (``np.memmap``'s Python hooks
would otherwise run on every slice and every ufunc result; the mapping
is found through ``.base``, see
:func:`~repro.storage.segment.mapping_of`).  Plain segments then serve
queries straight off the page cache — the out-of-core path — while
compressed segments decode on demand, in one pass, into the query's
buffer, or are compared on their codes.  ``mmap=False`` reads
everything into RAM.  ``load`` follows each column's ``file`` field, so
catalogs written before generations (``<table>.<column>.bin``) and
version-1 catalogs (whole-``.npy``-per-column) still load.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.storage.columnstore import Column, ColumnStore, Table
from repro.storage.dictionary import StringDictionary
from repro.storage.segment import Segment, SegmentStats, make_segments

_CATALOG = "catalog.json"
#: a column file name this module writes: ``<table>.<column>.g<N>.bin``
_GENERATION_FILE = re.compile(r".+\.g[0-9]+\.bin")
_ALIGN = 64

#: payload buffer names in serialization order, per encoding
_BUFFERS = {"plain": ("values",), "rle": ("values", "lengths"), "for": ("packed",)}


def _atomic_write_bytes(path: Path, chunks) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save(
    store: ColumnStore,
    directory: str | Path,
    encoding: str | None = None,
    segment_rows: int | None = None,
) -> Path:
    """Persist every table of *store* under *directory* as one new
    generation: its column files first, the catalog swap last, then the
    old generation's files go (see the module docstring).

    By default columns keep their current segmentation; passing
    *encoding* (``plain``/``rle``/``for``/``auto``) and/or
    *segment_rows* reseals them on the way out — the usual way to build
    a compressed out-of-core dataset from an in-RAM store.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    previous, previous_files = _previous_catalog(root)
    generation = previous + 1
    # dataset provenance (generator/seed/scale) must survive persistence,
    # or results computed from a re-loaded store lose their replay seed
    catalog: dict = {"version": 2, "generation": generation,
                     "meta": dict(store.meta), "tables": {}}
    for table in store.tables():
        entry: dict = {"version": table.version, "columns": {}}
        for col in table.columns.values():
            segments = col.segments
            if encoding is not None or segment_rows is not None:
                segments = make_segments(col.data, encoding=encoding or "plain",
                                         segment_rows=segment_rows)
            filename = f"{table.name}.{col.name}.g{generation}.bin"
            seg_meta, chunks = _layout_column(segments)
            _atomic_write_bytes(root / filename, chunks)
            entry["columns"][col.name] = {
                "file": filename,
                "dtype": str(col.dtype),
                # `is not None`, not truthiness: an empty table's string
                # column has an empty-but-present dictionary, and dropping
                # it would turn the column numeric on reload
                "dictionary": (
                    list(col.dictionary.values()) if col.dictionary is not None else None
                ),
                "segments": seg_meta,
            }
        catalog["tables"][table.name] = entry
    _atomic_write_bytes(root / _CATALOG, [json.dumps(catalog, indent=2).encode()])
    # only files the old catalog named or that carry a generation name:
    # other files in the directory are not the store's
    named = _column_files(catalog)
    for path in root.glob("*.bin"):
        if path.name not in named and (path.name in previous_files
                                       or _GENERATION_FILE.fullmatch(path.name)):
            path.unlink(missing_ok=True)
    return root


def _column_files(catalog: dict) -> set[str]:
    return {col["file"] for entry in catalog["tables"].values()
            for col in entry["columns"].values()}


def _previous_catalog(root: Path) -> tuple[int, set[str]]:
    """(generation, column file names) of the catalog in *root*; (0, none)
    when there is none or it cannot be read."""
    try:
        catalog = json.loads((root / _CATALOG).read_text())
        return int(catalog.get("generation", 0)), _column_files(catalog)
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return 0, set()


def _layout_column(segments: list[Segment]) -> tuple[list[dict], list[bytes]]:
    """Byte layout of a column file: (segment metadata, byte chunks).

    All-plain columns pack payloads back-to-back (their concatenation is
    the whole column, so loading can expose one contiguous zero-copy
    view); otherwise every buffer start is padded to ``_ALIGN``.
    """
    contiguous = all(s.encoding == "plain" for s in segments)
    meta: list[dict] = []
    chunks: list[bytes] = []
    offset = 0
    for seg in segments:
        buffers = []
        for name in _BUFFERS[seg.encoding]:
            array = np.ascontiguousarray(seg.payload[name])
            if not contiguous and offset % _ALIGN:
                pad = _ALIGN - offset % _ALIGN
                chunks.append(b"\0" * pad)
                offset += pad
            buffers.append({
                "name": name,
                "dtype": array.dtype.str,
                "offset": offset,
                "count": len(array),
            })
            data = array.tobytes()
            chunks.append(data)
            offset += len(data)
        meta.append({
            "encoding": seg.encoding,
            "length": seg.length,
            "stats": seg.stats.to_json(),
            "meta": seg.meta,
            "buffers": buffers,
        })
    return meta, chunks


def load(directory: str | Path, mmap: bool = True) -> ColumnStore:
    """Load a store written by :func:`save`.

    ``mmap=True`` maps every column file and builds segment payloads as
    views — no bytes are copied or decoded until a query touches them,
    and decoded scratch is not cached (so the resident set stays
    bounded; see ``ColumnStore.release``).  ``mmap=False`` reads
    payloads into RAM and caches decodes, like an in-RAM-built store.
    """
    root = Path(directory)
    catalog_path = root / _CATALOG
    if not catalog_path.exists():
        raise StorageError(f"no catalog at {catalog_path}")
    catalog = json.loads(catalog_path.read_text())
    if catalog.get("version") != 2:
        return _load_v1(root, catalog)
    store = ColumnStore(meta=catalog.get("meta"))
    for table_name, entry in catalog["tables"].items():
        columns = []
        for col_name, meta in entry["columns"].items():
            dtype = np.dtype(meta["dtype"])
            dictionary = (
                StringDictionary(meta["dictionary"])
                if meta["dictionary"] is not None else None
            )
            path = root / meta["file"]
            if meta["segments"]:
                raw = (np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray) if mmap
                       else np.fromfile(path, dtype=np.uint8))
            else:
                raw = np.empty(0, dtype=np.uint8)
            segments = [
                _load_segment(seg, dtype, raw, f"{table_name}.{col_name}")
                for seg in meta["segments"]
            ]
            column = Column(col_name, segments=segments, dtype=dtype,
                            dictionary=dictionary, cacheable=not mmap)
            if segments and all(s["encoding"] == "plain" for s in meta["segments"]):
                # back-to-back plain payloads: the file region *is* the
                # column — expose it as one zero-copy view
                start = meta["segments"][0]["buffers"][0]["offset"]
                end = start + len(column) * dtype.itemsize
                column.attach_contiguous(raw[start:end].view(dtype))
            columns.append(column)
        store.add(Table(table_name, columns, version=entry.get("version", 0)))
    return store


def _load_segment(meta: dict, dtype: np.dtype, raw: np.ndarray, where: str) -> Segment:
    payload = {}
    for buf in meta["buffers"]:
        buf_dtype = np.dtype(buf["dtype"])
        start, nbytes = buf["offset"], buf["count"] * buf_dtype.itemsize
        if start + nbytes > raw.nbytes:
            raise StorageError(
                f"{where}: segment buffer {buf['name']!r} extends past "
                f"end of file ({start + nbytes} > {raw.nbytes})"
            )
        payload[buf["name"]] = raw[start:start + nbytes].view(buf_dtype)
    return Segment(
        meta["encoding"], dtype, meta["length"],
        SegmentStats.from_json(meta["stats"]),
        payload, dict(meta.get("meta") or {}),
    )


def _load_v1(root: Path, catalog: dict) -> ColumnStore:
    """Read a version-1 (whole-``.npy``-per-column) catalog."""
    store = ColumnStore(meta=catalog.get("meta"))
    for table_name, entry in catalog["tables"].items():
        columns = []
        for col_name, meta in entry["columns"].items():
            data = np.load(root / meta["file"])
            if str(data.dtype) != meta["dtype"]:
                raise StorageError(
                    f"{table_name}.{col_name}: dtype mismatch "
                    f"({data.dtype} on disk vs {meta['dtype']} in catalog)"
                )
            dictionary = (
                StringDictionary(meta["dictionary"])
                if meta["dictionary"] is not None else None
            )
            columns.append(Column(col_name, data, dictionary))
        store.add(Table(table_name, columns))
    return store
