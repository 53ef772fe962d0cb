"""Deterministic TPC-H data generator (the dbgen substitute).

Follows the specification's cardinality ratios, key structure (dense
surrogate keys starting at 1, 4 suppliers per part, 1-7 lines per order)
and value distributions (uniform quantities/discounts, date windows, the
part/supplier association formula), seeded for reproducibility, with
two deliberate deviations: a flat 365-day calendar and dense (not
sparse) order keys.
"""

from __future__ import annotations

import numpy as np

from repro.storage import ColumnStore, Table
from repro.tpch import schema as sp


def _pick(rng: np.random.Generator, values: list[str], n: int) -> np.ndarray:
    return np.array(values, dtype=object)[rng.integers(0, len(values), n)]


def generate(scale_factor: float = 0.01, seed: int = 42) -> ColumnStore:
    """Generate all eight tables at *scale_factor* into a ColumnStore.

    The store records its own provenance (generator, seed, scale) in
    ``store.meta`` so every benchmark/conformance result derived from it
    can name the exact dataset it measured — regenerate with the same
    seed to replay.
    """
    rng = np.random.default_rng(seed)
    store = ColumnStore(meta={
        "generator": "repro.tpch.datagen",
        "seed": int(seed),
        "scale_factor": float(scale_factor),
    })

    n_supp = max(10, int(sp.BASE_CARDINALITIES["supplier"] * scale_factor))
    n_cust = max(30, int(sp.BASE_CARDINALITIES["customer"] * scale_factor))
    n_part = max(40, int(sp.BASE_CARDINALITIES["part"] * scale_factor))
    n_orders = max(150, int(sp.BASE_CARDINALITIES["orders"] * scale_factor))

    store.add(Table.from_arrays(
        "region",
        r_regionkey=np.arange(len(sp.REGIONS), dtype=np.int64),
        r_name=np.array(sp.REGIONS, dtype=object),
    ))

    nation_names = [n for n, _ in sp.NATIONS]
    nation_regions = np.array([r for _, r in sp.NATIONS], dtype=np.int64)
    store.add(Table.from_arrays(
        "nation",
        n_nationkey=np.arange(len(sp.NATIONS), dtype=np.int64),
        n_name=np.array(nation_names, dtype=object),
        n_regionkey=nation_regions,
    ))

    store.add(Table.from_arrays(
        "supplier",
        s_suppkey=np.arange(1, n_supp + 1, dtype=np.int64),
        s_name=np.array([f"Supplier#{i:09d}" for i in range(1, n_supp + 1)], dtype=object),
        s_address=np.array([f"addr-{i}" for i in range(1, n_supp + 1)], dtype=object),
        s_nationkey=rng.integers(0, len(sp.NATIONS), n_supp).astype(np.int64),
        s_acctbal=np.round(rng.uniform(-999.99, 9999.99, n_supp), 2),
    ))

    store.add(Table.from_arrays(
        "customer",
        c_custkey=np.arange(1, n_cust + 1, dtype=np.int64),
        c_name=np.array([f"Customer#{i:09d}" for i in range(1, n_cust + 1)], dtype=object),
        c_address=np.array([f"caddr-{i}" for i in range(1, n_cust + 1)], dtype=object),
        c_nationkey=rng.integers(0, len(sp.NATIONS), n_cust).astype(np.int64),
        c_phone=np.array([f"{10+i%25}-{i%1000:03d}" for i in range(1, n_cust + 1)], dtype=object),
        c_acctbal=np.round(rng.uniform(-999.99, 9999.99, n_cust), 2),
        c_mktsegment=_pick(rng, sp.SEGMENTS, n_cust),
    ))

    # -- part --------------------------------------------------------------
    color_a = rng.integers(0, len(sp.PART_COLORS), n_part)
    color_b = rng.integers(0, len(sp.PART_COLORS), n_part)
    p_name = np.array(
        [f"{sp.PART_COLORS[a]} {sp.PART_COLORS[b]}" for a, b in zip(color_a, color_b)],
        dtype=object,
    )
    brand_m = rng.integers(1, 6, n_part)
    brand_n = rng.integers(1, 6, n_part)
    p_brand = np.array([f"Brand#{m}{n}" for m, n in zip(brand_m, brand_n)], dtype=object)
    p_type = np.array(
        [
            f"{sp.TYPE_SYLLABLE_1[rng.integers(0, len(sp.TYPE_SYLLABLE_1))]} "
            f"{sp.TYPE_SYLLABLE_2[rng.integers(0, len(sp.TYPE_SYLLABLE_2))]} "
            f"{sp.TYPE_SYLLABLE_3[rng.integers(0, len(sp.TYPE_SYLLABLE_3))]}"
            for _ in range(n_part)
        ],
        dtype=object,
    )
    p_container = np.array(
        [
            f"{sp.CONTAINER_SYLLABLE_1[rng.integers(0, len(sp.CONTAINER_SYLLABLE_1))]} "
            f"{sp.CONTAINER_SYLLABLE_2[rng.integers(0, len(sp.CONTAINER_SYLLABLE_2))]}"
            for _ in range(n_part)
        ],
        dtype=object,
    )
    p_retailprice = np.round(
        900.0 + (np.arange(1, n_part + 1) % 1000) / 10.0
        + 100.0 * (np.arange(1, n_part + 1) % 10), 2
    )
    store.add(Table.from_arrays(
        "part",
        p_partkey=np.arange(1, n_part + 1, dtype=np.int64),
        p_name=p_name,
        p_brand=p_brand,
        p_type=p_type,
        p_size=rng.integers(1, 51, n_part).astype(np.int64),
        p_container=p_container,
        p_retailprice=p_retailprice,
    ))

    # -- partsupp: 4 suppliers per part, the spec's association formula ---------
    ps_partkey = np.repeat(np.arange(1, n_part + 1, dtype=np.int64), sp.SUPPLIERS_PER_PART)
    replica = np.tile(np.arange(sp.SUPPLIERS_PER_PART, dtype=np.int64), n_part)
    ps_suppkey = (
        (ps_partkey + replica * (n_supp // sp.SUPPLIERS_PER_PART + 1)) % n_supp
    ) + 1
    n_ps = len(ps_partkey)
    store.add(Table.from_arrays(
        "partsupp",
        ps_partkey=ps_partkey,
        ps_suppkey=ps_suppkey.astype(np.int64),
        ps_availqty=rng.integers(1, 10_000, n_ps).astype(np.int64),
        ps_supplycost=np.round(rng.uniform(1.0, 1000.0, n_ps), 2),
    ))

    # -- orders ------------------------------------------------------------------
    o_orderdate = rng.integers(0, sp.MAX_ORDER_DAY - 151, n_orders).astype(np.int64)
    o_custkey = rng.integers(1, n_cust + 1, n_orders).astype(np.int64)
    lines_per_order = rng.integers(1, 8, n_orders).astype(np.int64)

    # -- lineitem -----------------------------------------------------------------
    l_orderkey = np.repeat(np.arange(1, n_orders + 1, dtype=np.int64), lines_per_order)
    n_li = len(l_orderkey)
    l_partkey = rng.integers(1, n_part + 1, n_li).astype(np.int64)
    # supplier must be one of the part's 4 (spec formula, replica chosen uniformly)
    l_replica = rng.integers(0, sp.SUPPLIERS_PER_PART, n_li).astype(np.int64)
    l_suppkey = ((l_partkey + l_replica * (n_supp // sp.SUPPLIERS_PER_PART + 1)) % n_supp) + 1
    l_quantity = rng.integers(1, 51, n_li).astype(np.int64)
    part_price = p_retailprice[l_partkey - 1]
    l_extendedprice = np.round(l_quantity * part_price, 2)
    l_discount = np.round(rng.integers(0, 11, n_li) / 100.0, 2)
    l_tax = np.round(rng.integers(0, 9, n_li) / 100.0, 2)
    order_day = o_orderdate[l_orderkey - 1]
    l_shipdate = order_day + rng.integers(1, 122, n_li)
    l_commitdate = order_day + rng.integers(30, 91, n_li)
    l_receiptdate = l_shipdate + rng.integers(1, 31, n_li)
    l_returnflag = np.where(
        l_receiptdate <= sp.date(1995, 6, 17),
        _pick(rng, ["A", "R"], n_li),
        np.array(["N"], dtype=object)[np.zeros(n_li, dtype=np.int64)],
    )
    l_linestatus = np.where(l_shipdate > sp.date(1995, 6, 17), "O", "F").astype(object)

    store.add(Table.from_arrays(
        "lineitem",
        l_orderkey=l_orderkey,
        l_partkey=l_partkey,
        l_suppkey=l_suppkey.astype(np.int64),
        l_linenumber=np.concatenate(
            [np.arange(1, k + 1, dtype=np.int64) for k in lines_per_order]
        ),
        l_quantity=l_quantity,
        l_extendedprice=l_extendedprice,
        l_discount=l_discount,
        l_tax=l_tax,
        l_returnflag=l_returnflag,
        l_linestatus=l_linestatus,
        l_shipdate=l_shipdate.astype(np.int64),
        l_commitdate=l_commitdate.astype(np.int64),
        l_receiptdate=l_receiptdate.astype(np.int64),
        l_shipinstruct=_pick(rng, sp.SHIP_INSTRUCTIONS, n_li),
        l_shipmode=_pick(rng, sp.SHIP_MODES, n_li),
    ))

    # o_totalprice derives from lineitems; o_orderstatus from line status
    totals = np.zeros(n_orders)
    np.add.at(totals, l_orderkey - 1, l_extendedprice * (1 + l_tax) * (1 - l_discount))
    all_f = np.ones(n_orders, dtype=bool)
    any_f = np.zeros(n_orders, dtype=bool)
    is_f = l_linestatus == "F"
    np.logical_and.at(all_f, l_orderkey - 1, is_f)
    np.logical_or.at(any_f, l_orderkey - 1, is_f)
    o_status = np.where(all_f, "F", np.where(any_f, "P", "O")).astype(object)

    store.add(Table.from_arrays(
        "orders",
        o_orderkey=np.arange(1, n_orders + 1, dtype=np.int64),
        o_custkey=o_custkey,
        o_orderstatus=o_status,
        o_totalprice=np.round(totals, 2),
        o_orderdate=o_orderdate,
        o_orderpriority=_pick(rng, sp.PRIORITIES, n_orders),
        o_clerk=np.array([f"Clerk#{i % 1000:09d}" for i in range(n_orders)], dtype=object),
        o_shippriority=np.zeros(n_orders, dtype=np.int64),
    ))
    return store
