"""Scaled-down measurement stores for the tuner's wall-clock trials.

Measuring every candidate configuration on the full dataset would make
tuning cost more than it saves, so the tuner races candidates on a
*sample*: a prefix slice of every oversized table (the
:mod:`repro.testing.datagen` convention — prefix slices preserve run
structure, dtype, and dictionary encoding, which is what the knobs are
sensitive to).  Tables at or under the cap are kept whole, so dimension
tables — whose key domains the translator reads from catalog stats —
usually survive intact; a sliced build side merely turns unmatched
foreign keys into ε rows, which is fine: trial *results are discarded*,
only their relative wall-clock matters.
"""

from __future__ import annotations

from repro.storage.columnstore import Column, ColumnStore, Table


def sample_store(store: ColumnStore, max_rows: int) -> ColumnStore:
    """A store whose tables are prefix-sliced to at most *max_rows* rows.

    Returns *store* itself when nothing needs slicing (no copies, and
    the tuner can tell the sample was exact).  Slices are NumPy views:
    cheap, and safe because the store contract is immutability.
    """
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows}")
    if all(len(table) <= max_rows for table in store.tables()):
        return store
    sampled = ColumnStore(meta={
        **store.meta,
        "sampled_rows": int(max_rows),
        "sampled_from_bytes": store.total_bytes(),
    })
    for table in store.tables():
        columns = [
            Column(col.name, col.data[:max_rows], col.dictionary)
            for col in table.columns.values()
        ]
        sampled.add(Table(table.name, columns))
    # Auxiliary vectors (LIKE/IN membership tables) are dense over a
    # *dictionary code domain*, not over table rows — share the dict
    # itself so tables registered after sampling (query build time)
    # stay visible to trial translations.
    sampled._aux = store._aux
    return sampled
