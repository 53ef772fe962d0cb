"""The HyPeR-like baseline: pipelined, compiled, tuple-at-a-time.

Models the engine of Neumann [18] as the paper characterizes it (Table 1:
bandwidth efficiency through *pipelining*, CPU efficiency through
*compilation*): operators between pipeline breakers fuse into one pass, so
only base-table columns are read from memory and only pipeline-breaker
outputs (hash tables, aggregates) are written.  Unlike the paper's Voodoo
configuration, HyPeR builds real hash tables (no identity-hash metadata
shortcut) — this is why Voodoo pulls ahead on the lookup-heavy queries 5,
9 and 19 while staying at par elsewhere.
"""

from __future__ import annotations

from repro.baselines.engine import BaselineEngine

#: extra integer work per probe for real hashing + collision handling,
#: compared to Voodoo's metadata-derived identity hashing (section 5.2)
_HASH_OPS_PER_PROBE = 6


class HyperEngine(BaselineEngine):
    """Pipelined execution: selection vectors, no intermediate columns.

    A pipelined engine carries a selection mask instead of compacting
    rows, so every step runs over the pipeline's extent; only the steps
    that touch a row's values count the live rows.
    """

    # -- traffic accounting ---------------------------------------------------

    def on_scan(self, extent: int, live: int, width: int) -> None:
        # Columns are charged lazily by the operators that touch them; the
        # scan itself is free in a pipelined engine.
        self.emit(label="scan", elements=extent, extent=extent, simd=False)

    def on_filter(self, extent: int, live: int, width: int, kept: int,
                  n_cols: int) -> None:
        n = extent
        selectivity = float(kept) / n if n else 0.0
        # tuple-at-a-time predicate evaluation: one branch per tuple,
        # reading every predicate column from memory
        self.emit(
            label="filter",
            elements=n,
            int_ops=2 * n * n_cols,
            bytes_read_seq=8 * n * n_cols,
            branches=n,
            taken_fraction=selectivity,
            extent=n,
            simd=False,
        )

    def on_map(self, extent: int, live: int, width: int) -> None:
        self.emit(label="map", elements=live, int_ops=live, extent=extent, simd=False)

    def on_build(self, extent: int, live: int, width: int, pulled: int) -> None:
        self.new_kernel()  # hash-table build ends the pipeline
        n = live
        entry = pulled * 8 + 8
        self.emit(
            label="join.build",
            elements=n,
            int_ops=_HASH_OPS_PER_PROBE * n,
            random_writes=n,
            random_write_footprint=max(64, n * entry),
            bytes_read_seq=n * entry,
            extent=extent,
            simd=False,
        )

    def on_probe(self, extent: int, live: int, width: int, build_live: int,
                 pulled: int) -> None:
        n = live
        self.emit(
            label="join.probe",
            elements=n,
            int_ops=(_HASH_OPS_PER_PROBE + 1) * n,
            bytes_read_seq=8 * n,
            random_reads=n,
            random_read_footprint=max(64, build_live * (pulled * 8 + 8)),
            extent=extent,
            simd=False,
        )

    def on_aggregate(self, extent: int, live: int, width: int, groups: int,
                     n_aggs: int) -> None:
        self.new_kernel()  # aggregation is a pipeline breaker
        n = live
        self.emit(
            label="aggregate",
            elements=n,
            int_ops=(_HASH_OPS_PER_PROBE + n_aggs) * n,
            bytes_read_seq=8 * n * n_aggs,
            random_writes=n * n_aggs,
            random_write_footprint=max(64, groups * 8 * (n_aggs + 1)),
            extent=extent,
            simd=False,
        )

    def on_compute(self, extent: int, live: int, width: int, per_row: int) -> None:
        n = extent * per_row
        self.emit(label="compute", elements=n, int_ops=n, extent=n, simd=False)

    def on_gather(self, extent: int, live: int, width: int, footprint: int) -> None:
        n = extent
        self.emit(
            label="gather", elements=n, int_ops=n,
            random_reads=n, random_read_footprint=max(64, footprint), extent=n,
            simd=False,
        )
