"""The group-by kernels vs the ground-truth run machinery.

The relational translator's Subtract/Multiply/Add chain must linearize
composite group keys row-major, and the dense-addressing kernels —
``fold_aggregate_groups`` accumulating per bucket in input order,
``group_slots`` placing each bucket's result, ``group_positions`` ranking
the rows only on demand — must reproduce Partition -> Scatter ->
``semantics.fold_aggregate`` bit for bit: float addition order, integer
wrapping, ε fill values, empty groups and the ε rows a compact key leaves
in its fill's bucket.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import kernels
from repro.errors import TranslationError
from repro.interpreter import Interpreter, semantics
from repro.relational import Col, KeySpec, Lit, Scan, Translator
from repro.storage import ColumnStore, Table


def group_ids(columns: list[np.ndarray], cards: list[int], offsets=None):
    """The composite group id the relational translator lowers keys to
    (its Subtract/Multiply/Add chain), run on the interpreter, and the
    key domain it reports."""
    offsets = offsets or [0] * len(columns)
    store = ColumnStore()
    store.add(Table.from_arrays("t", **{f"k{i}": c for i, c in enumerate(columns)}))
    translator = Translator(store)
    keys = tuple(KeySpec(f"k{i}", Col(f"k{i}"), card, offset)
                 for i, (card, offset) in enumerate(zip(cards, offsets)))
    gid, path, domain = translator._group_id(keys, translator.translate(Scan("t")))
    outputs = Interpreter(store.vectors()).run(translator.b.build(gid=gid))
    return outputs["gid"].attr(path), domain


class TestCompositeGroupKeys:
    def test_matches_row_major_linearization(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 100).astype(np.int64)
        b = rng.integers(0, 7, 100).astype(np.int64)
        got, domain = group_ids([a, b], [4, 7])
        assert np.array_equal(got, a * 7 + b) and domain == 28

    def test_offsets(self):
        a = np.array([3, 4, 5], dtype=np.int64)
        b = np.array([10, 11, 12], dtype=np.int64)
        got, domain = group_ids([a, b], [3, 3], offsets=[3, 10])
        assert np.array_equal(got, (a - 3) * 3 + (b - 10)) and domain == 9

    def test_single_key_identity(self):
        a = np.arange(5, dtype=np.int64)
        got, domain = group_ids([a], [5])
        assert np.array_equal(got, a) and domain == 5

    def test_bad_keys_rejected(self):
        with pytest.raises(TranslationError, match="card must be positive"):
            KeySpec("k", Col("k"), 0)
        store = ColumnStore()
        store.add(Table.from_arrays("t", k=np.arange(3, dtype=np.int64)))
        translator = Translator(store)
        computed = KeySpec("k", Col("k") + Lit(1), 4)
        with pytest.raises(TranslationError, match="must reference a column"):
            translator._group_id((computed,), translator.translate(Scan("t")))


def grouped_case(seed: int):
    """A group-by-shaped input: ``n`` slots of which ``k`` hold a key in
    ``[0, buckets)``, the others ε holding one *fill*; non-uniform group
    sizes, empty groups, ε aggregate values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3_000))
    buckets = int(rng.integers(1, 16))
    index = np.flatnonzero(rng.random(n) < rng.choice([0.05, 0.5, 1.0]))
    part = rng.integers(0, buckets, len(index)).astype(np.int64)
    fill = int(rng.integers(-2, buckets + 2))  # its bucket is clipped
    if rng.random() < 0.5:
        values = (rng.random(len(index)) * 200 - 100).astype(
            rng.choice([np.float64, np.float32])
        )
    else:
        values = rng.integers(-(2**62), 2**62, len(index)).astype(np.int64)
    mask = None if rng.random() < 0.5 else rng.random(len(index)) > 0.3
    return n, buckets, index, part, fill, values, mask


def reference(fn, n, buckets, index, part, fill, values, mask):
    """Partition every slot, land the present rows, fold the landed
    vector: the interpreter's three steps."""
    key = np.full(n, fill, dtype=np.int64)
    key[index] = part
    present = np.zeros(n, dtype=bool)
    present[index] = True
    padded = np.zeros(n, dtype=values.dtype)
    padded[index] = values
    agg_present = present.copy()
    if mask is not None:
        agg_present[index] = mask
    positions, pos_present = semantics.partition_positions(
        key, present, np.arange(buckets, dtype=np.int64)
    )
    cols, masks = semantics.scatter(
        positions, pos_present, n, {"k": key, "v": padded},
        {"k": present, "v": agg_present},
    )
    folded = semantics.fold_aggregate(fn, cols["k"], cols["v"], masks["v"], masks["k"])
    return positions[index], folded


@given(seed=st.integers(0, 10_000), fn=st.sampled_from(["sum", "max", "min"]))
@settings(max_examples=100, deadline=None)
def test_property_grouped_fold_bit_identical(seed, fn):
    n, buckets, index, part, fill, values, mask = case = grouped_case(seed)
    positions, (want, want_present) = reference(fn, *case)
    counts = np.bincount(part, minlength=buckets)
    shape = (part, counts, None if len(index) == n else index, n,
             min(max(fill, 0), buckets - 1))
    assert np.array_equal(kernels.group_positions(*shape), positions)
    occupied, at = kernels.group_slots(*shape)
    if mask is None:
        per_group = kernels.fold_aggregate_groups(fn, values, part, buckets)
    else:
        per_group = kernels.fold_aggregate_groups(fn, values[mask], part[mask], buckets)
        hit = np.bincount(part[mask], minlength=buckets)[occupied] > 0
        occupied, at = occupied[hit], at[hit]
    assert per_group.dtype == want.dtype
    assert np.array_equal(at, np.flatnonzero(want_present))
    assert np.array_equal(per_group[occupied], want[at],
                          equal_nan=want.dtype.kind == "f")
    assert np.array_equal(np.signbit(per_group[occupied].astype(np.float64)),
                          np.signbit(want[at].astype(np.float64)))
