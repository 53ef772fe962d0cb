"""Benchmark harness and per-figure experiment modules."""

from repro.bench.harness import BarSet, Series, SeriesSet

__all__ = ["BarSet", "Series", "SeriesSet"]
