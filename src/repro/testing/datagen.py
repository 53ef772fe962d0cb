"""Adversarial random schema/data generation for conformance fuzzing.

Every store is built from a seeded :class:`numpy.random.Generator`, so a
``(seed, index)`` pair fully determines the data.  The profiles target
the edge cases the backends historically disagree on:

* empty tables and single-row tables (zero-length vectors, one-run
  control vectors);
* dense/sparse/skewed/duplicated join keys (positional vs hash builds,
  probe misses, later-writes-win scatter ambiguity);
* sorted low-cardinality columns (uniform-run fold kernels) next to
  shuffled ones (the generic path);
* NaN/±Inf floats, zero-heavy columns (the Divide zero-scan path);
* dictionary-encoded strings (code-domain predicates and decoding).

The generator returns the :class:`~repro.storage.ColumnStore` *plus* a
:class:`StoreInfo` describing what it built — column kinds and value
bounds — which is what lets :mod:`repro.testing.qgen` emit only valid
queries (in-range group keys, typed expressions) over arbitrary data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.storage import ColumnStore, Table

#: vocabulary pool for dictionary-encoded columns
WORDS = (
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "garnet", "hazel",
    "iris", "jade", "krill", "lumen", "maple", "nadir", "ochre", "pewter",
)

#: row-count profiles: (low, high_inclusive, weight)
ROW_PROFILES = (
    (0, 0, 0.05),      # empty table
    (1, 1, 0.07),      # single row
    (2, 8, 0.18),      # tiny (single-run, single-group territory)
    (9, 64, 0.35),     # around small grains
    (65, 320, 0.35),   # several chunks at small grains
)


@dataclass
class ColInfo:
    """What qgen may assume about one generated column."""

    name: str
    kind: str                   # "int" | "float" | "bool" | "str"
    lo: float = 0               # value bounds (codes for "str"); ints for int/str
    hi: float = 0
    #: safe to use as a group-by key (integral, small known domain)
    groupable: bool = False

    @property
    def card(self) -> int:
        """Group-key cardinality for groupable columns."""
        return int(self.hi) - int(self.lo) + 1


@dataclass
class TableInfo:
    name: str
    n_rows: int
    cols: list[ColInfo] = field(default_factory=list)
    #: join-key metadata (dim tables only)
    key: str | None = None
    key_offset: int = 0
    key_domain: int = 0


@dataclass
class StoreInfo:
    fact: TableInfo
    dims: list[TableInfo] = field(default_factory=list)


def _n_rows(rng: np.random.Generator) -> int:
    weights = np.array([w for _, _, w in ROW_PROFILES])
    lo, hi, _ = ROW_PROFILES[rng.choice(len(ROW_PROFILES), p=weights / weights.sum())]
    return int(rng.integers(lo, hi + 1))


def _int_column(rng: np.random.Generator, n: int) -> np.ndarray:
    profile = rng.choice(
        ["dense-small", "uniform", "skew", "sorted-runs", "constant", "big"],
        p=[0.30, 0.15, 0.15, 0.20, 0.10, 0.10],
    )
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if profile == "dense-small":
        lo = int(rng.choice([-2, 0, 1]))
        k = int(rng.integers(1, 9))
        data = rng.integers(lo, lo + k, n)
    elif profile == "uniform":
        data = rng.integers(-1_000_000, 1_000_001, n)
    elif profile == "skew":
        pivot = int(rng.integers(-50, 51))
        data = np.where(rng.random(n) < 0.9, pivot, rng.integers(-100, 101, n))
    elif profile == "sorted-runs":
        k = int(rng.integers(1, 7))
        data = np.sort(rng.integers(0, k, n))
    elif profile == "constant":
        data = np.full(n, int(rng.integers(-10, 11)))
    else:  # big: int64 arithmetic near the overflow cliff (wraps identically)
        data = rng.integers(-(1 << 40), (1 << 40), n)
    return data.astype(np.int64)


def _float_column(rng: np.random.Generator, n: int) -> np.ndarray:
    profile = rng.choice(
        ["uniform", "positive", "zeros", "specials", "constant"],
        p=[0.30, 0.20, 0.20, 0.20, 0.10],
    )
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if profile == "uniform":
        data = np.round(rng.uniform(-1000.0, 1000.0, n), 3)
    elif profile == "positive":
        data = np.round(rng.uniform(0.01, 500.0, n), 3)
    elif profile == "zeros":  # feeds Divide's zero-scan fast path
        data = np.where(rng.random(n) < 0.5, 0.0, np.round(rng.uniform(-10.0, 10.0, n), 3))
    elif profile == "specials":
        data = np.round(rng.uniform(-100.0, 100.0, n), 3)
        specials = rng.random(n)
        data[specials < 0.08] = np.nan
        data[(specials >= 0.08) & (specials < 0.14)] = np.inf
        data[(specials >= 0.14) & (specials < 0.20)] = -np.inf
    else:
        data = np.full(n, float(np.round(rng.uniform(-5.0, 5.0), 3)))
    return data.astype(np.float64)


def _str_column(rng: np.random.Generator, n: int) -> np.ndarray:
    vocab = rng.choice(len(WORDS), size=int(rng.integers(1, 9)), replace=False)
    words = [WORDS[v] for v in vocab]
    if rng.random() < 0.3 and n:  # skewed: one dominant word
        picks = np.where(rng.random(n) < 0.8, 0, rng.integers(0, len(words), n))
    else:
        picks = rng.integers(0, len(words), n) if n else np.zeros(0, dtype=np.int64)
    return np.array([words[int(p)] for p in picks], dtype=object)


def _describe_int(name: str, data: np.ndarray) -> ColInfo:
    if len(data) == 0:
        return ColInfo(name, "int", 0, 0, groupable=True)
    lo, hi = int(data.min()), int(data.max())
    return ColInfo(name, "int", lo, hi, groupable=(hi - lo) < 64)


def _describe_float(name: str, data: np.ndarray) -> ColInfo:
    finite = data[np.isfinite(data)]
    if len(finite) == 0:
        return ColInfo(name, "float", -1.0, 1.0)
    return ColInfo(name, "float", float(finite.min()), float(finite.max()))


def _dim_keys(
    rng: np.random.Generator, d: int, offset: int
) -> tuple[np.ndarray, int]:
    """Build-side key column for *d* rows; returns (keys, domain)."""
    style = rng.choice(["dense-sorted", "shuffled", "sparse", "dupes"],
                       p=[0.35, 0.25, 0.25, 0.15])
    if d == 0:
        return np.zeros(0, dtype=np.int64), max(1, int(rng.integers(1, 8)))
    if style == "dense-sorted":     # triggers the positional (index-is-table) join
        return offset + np.arange(d, dtype=np.int64), d
    if style == "shuffled":         # same domain, hash build path
        return offset + rng.permutation(d).astype(np.int64), d
    if style == "sparse":           # larger domain, some probes miss
        domain = d + int(rng.integers(1, d + 2))
        keys = offset + rng.choice(domain, size=d, replace=False).astype(np.int64)
        return keys, domain
    domain = max(1, d - int(rng.integers(0, max(1, d // 2))))
    keys = offset + rng.integers(0, domain, d).astype(np.int64)  # dupes: later wins
    return keys, domain


def random_store(rng: np.random.Generator) -> tuple[ColumnStore, StoreInfo]:
    """One random database: a fact table plus 0-2 joinable dim tables."""
    store = ColumnStore()
    n_dims = int(rng.choice([0, 1, 2], p=[0.25, 0.5, 0.25]))

    dims: list[TableInfo] = []
    for j in range(n_dims):
        d = 0 if rng.random() < 0.08 else int(rng.integers(1, 41))
        offset = int(rng.choice([0, 1, 3]))
        keys, domain = _dim_keys(rng, d, offset)
        info = TableInfo(f"dim{j}", d, key=f"d{j}_pk",
                         key_offset=offset, key_domain=domain)
        arrays: dict[str, np.ndarray] = {f"d{j}_pk": keys}
        info.cols.append(_describe_int(f"d{j}_pk", keys))
        for k in range(int(rng.integers(1, 3))):
            kind = rng.choice(["int", "float", "str"], p=[0.4, 0.35, 0.25])
            name = f"d{j}_{kind[0]}{k}"
            if kind == "int":
                data = _int_column(rng, d)
                arrays[name] = data
                info.cols.append(_describe_int(name, data))
            elif kind == "float":
                data = _float_column(rng, d)
                arrays[name] = data
                info.cols.append(_describe_float(name, data))
            else:
                data = _str_column(rng, d)
                arrays[name] = data
                n_codes = max(1, len(set(data.tolist())))
                info.cols.append(ColInfo(name, "str", 0, n_codes - 1,
                                         groupable=n_codes < 64))
        store.add(Table.from_arrays(info.name, **arrays))
        dims.append(info)

    n = _n_rows(rng)
    fact = TableInfo("fact", n)
    arrays = {}
    for j, dim in enumerate(dims):
        # probe keys roam slightly beyond the build domain: misses become ε
        lo = dim.key_offset - 1
        hi = dim.key_offset + dim.key_domain + 1
        fk = rng.integers(lo, hi + 1, n).astype(np.int64)
        arrays[f"fk{j}"] = fk
        fact.cols.append(_describe_int(f"fk{j}", fk))
    for k in range(int(rng.integers(1, 4))):
        data = _int_column(rng, n)
        arrays[f"i{k}"] = data
        fact.cols.append(_describe_int(f"i{k}", data))
    for k in range(int(rng.integers(1, 3))):
        data = _float_column(rng, n)
        arrays[f"x{k}"] = data
        fact.cols.append(_describe_float(f"x{k}", data))
    if rng.random() < 0.5:
        data = rng.random(n) < rng.uniform(0.05, 0.95)
        arrays["b0"] = data
        fact.cols.append(ColInfo("b0", "bool", 0, 1, groupable=True))
    for k in range(int(rng.choice([0, 1, 2], p=[0.35, 0.45, 0.2]))):
        data = _str_column(rng, n)
        arrays[f"s{k}"] = data
        n_codes = max(1, len(set(data.tolist())))
        fact.cols.append(ColInfo(f"s{k}", "str", 0, n_codes - 1,
                                 groupable=n_codes < 64))
    store.add(Table.from_arrays("fact", **arrays))
    return store, StoreInfo(fact=fact, dims=dims)
