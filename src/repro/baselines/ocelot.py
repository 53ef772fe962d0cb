"""The Ocelot-like baseline: operator-at-a-time bulk processing.

Models MonetDB/Ocelot [13] as the paper characterizes it (Table 1: no
bandwidth-efficiency technique, bulk processing, GPU-optimized): every
operator reads its full inputs from memory and writes its full output
back.  On a CPU's ~34 GB/s this materialization tax is crushing for
high-output-cardinality queries (the paper's Q1 observation); on a GPU's
300 GB/s it mostly disappears (Figure 12 vs Figure 13) — both effects
fall out of the traffic accounting below with no special-casing.
"""

from __future__ import annotations

from repro.baselines.engine import BaselineEngine


class OcelotEngine(BaselineEngine):
    """Bulk execution: full materialization between operators.

    A bulk engine compacts eagerly after every filter and join, so every
    operator runs over the live rows.  Ocelot kernels are massively
    data-parallel (GPU-style), so they keep SIMD/warp efficiency — their
    cost is the memory traffic.
    """

    # -- traffic accounting: read everything, write everything ------------------

    def _bulk(self, label: str, read: int, written: int, elements: int,
              int_ops: int = 0, **extra) -> None:
        self.new_kernel()  # operator-at-a-time: every operator is a kernel
        self.emit(
            label=label,
            elements=elements,
            int_ops=int_ops or elements,
            bytes_read_seq=read,
            bytes_written_seq=written,
            extent=max(1, elements),
            barrier=True,
            **extra,
        )

    def on_scan(self, extent: int, live: int, width: int) -> None:
        self.emit(label="scan", elements=live, extent=live)

    def on_filter(self, extent: int, live: int, width: int, kept: int,
                  n_cols: int) -> None:
        n, hits = live, kept
        # one pass producing the selection vector + one pass per column to
        # compact the qualifying rows (classic MonetDB candidate lists)
        self._bulk(
            "filter.select", read=8 * n * n_cols, written=8 * hits, elements=n,
        )
        self._bulk(
            "filter.compact", read=n * width + 8 * hits,
            written=hits * width, elements=n,
        )

    def on_map(self, extent: int, live: int, width: int) -> None:
        self._bulk("map", read=8 * live, written=8 * live, elements=live)

    def on_build(self, extent: int, live: int, width: int, pulled: int) -> None:
        entry = pulled * 8 + 8
        self._bulk("join.build", read=live * entry, written=live * entry, elements=live)

    def on_probe(self, extent: int, live: int, width: int, build_live: int,
                 pulled: int) -> None:
        n = live
        self.emit(
            label="join.probe",
            elements=n,
            int_ops=2 * n,
            bytes_read_seq=8 * n,
            bytes_written_seq=n * pulled * 8,  # materialized join result
            random_reads=n,
            random_read_footprint=max(64, build_live * (pulled * 8 + 8)),
            extent=n,
            barrier=True,
        )

    def on_aggregate(self, extent: int, live: int, width: int, groups: int,
                     n_aggs: int) -> None:
        n = live
        self._bulk(
            "aggregate", read=8 * n * n_aggs, written=8 * groups * (n_aggs + 1),
            elements=n, int_ops=n * n_aggs,
            random_writes=n * n_aggs,
            random_write_footprint=max(64, groups * 8 * (n_aggs + 1)),
        )

    def on_compute(self, extent: int, live: int, width: int, per_row: int) -> None:
        # every scalar sub-expression is its own bulk operator
        n = live * per_row
        self._bulk("compute", read=16 * n, written=8 * n, elements=n)

    def on_gather(self, extent: int, live: int, width: int, footprint: int) -> None:
        n = live
        self.emit(
            label="gather", elements=n, int_ops=n,
            bytes_read_seq=8 * n, bytes_written_seq=8 * n,
            random_reads=n, random_read_footprint=max(64, footprint),
            extent=n, barrier=True,
        )
