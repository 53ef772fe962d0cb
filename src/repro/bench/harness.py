"""Benchmark harness: series containers and paper-style table printing.

Every experiment module in this package returns :class:`SeriesSet`
objects; the ``benchmarks/`` pytest-benchmark wrappers print them in the
layout of the corresponding paper figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def dataset_record(store, **extra) -> dict:
    """Provenance record for one generated dataset.

    Merges the store's own ``.meta`` (generator, seed, scale — stamped
    by e.g. :func:`repro.tpch.generate`) with caller extras; the single
    place the record shape is defined for every figure type.
    """
    return {**getattr(store, "meta", {}), **extra}


class _RecordsDatasets:
    """Mixin: ``meta["datasets"]`` provenance for figure containers."""

    def record_dataset(self, store, **extra) -> None:
        """Attach a dataset's provenance (its ``.meta`` seed record);
        exact-duplicate records (same dataset measured twice) collapse."""
        record = dataset_record(store, **extra)
        datasets = self.meta.setdefault("datasets", [])
        if record not in datasets:
            datasets.append(record)


@dataclass
class Series:
    """One line of a figure: a labelled sequence of (x, seconds) points."""

    label: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(float(x))
        self.ys.append(float(y))

    def y_at(self, x: float) -> float:
        return self.ys[self.xs.index(float(x))]

    @property
    def max_y(self) -> float:
        return max(self.ys)

    @property
    def min_y(self) -> float:
        return min(self.ys)


@dataclass
class SeriesSet(_RecordsDatasets):
    """All series of one figure panel, plus presentation metadata.

    ``meta`` records provenance — most importantly the RNG seed of every
    generated dataset the figure measured (see :meth:`record_dataset`),
    so a published number can be replayed exactly.
    """

    title: str
    x_label: str
    y_label: str
    series: dict[str, Series] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def line(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def winner_at(self, x: float) -> str:
        """Label of the fastest series at x (who wins — the figure's shape)."""
        best_label, best_y = None, float("inf")
        for label, series in self.series.items():
            y = series.y_at(x)
            if y < best_y:
                best_label, best_y = label, y
        return best_label

    def render(self, unit: str = "s", precision: int = 4) -> str:
        """A fixed-width table: one row per x, one column per series."""
        labels = list(self.series)
        xs = self.series[labels[0]].xs if labels else []
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        width = max(12, precision + 8)
        header = f"{self.x_label:>14} | " + " | ".join(f"{n:>{width}}" for n in labels)
        lines = [self.title, header, "-" * len(header)]
        for i, x in enumerate(xs):
            cells = " | ".join(
                f"{self.series[n].ys[i] * scale:>{width}.{precision}f}" for n in labels
            )
            lines.append(f"{x:>14g} | {cells}")
        lines.append(f"(values in {unit}{'' if unit == 's' else ''}; lower is better)")
        return "\n".join(lines)


@dataclass
class BarSet(_RecordsDatasets):
    """A bar-chart figure (the TPC-H comparisons): groups x systems."""

    title: str
    groups: list[str] = field(default_factory=list)          # e.g. query names
    systems: dict[str, dict[str, float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def set(self, system: str, group: str, value: float) -> None:
        self.systems.setdefault(system, {})[group] = value
        if group not in self.groups:
            self.groups.append(group)

    def value(self, system: str, group: str) -> float | None:
        return self.systems.get(system, {}).get(group)

    def render(self, unit: str = "ms", precision: int = 1) -> str:
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        names = list(self.systems)
        width = max(10, precision + 8)
        header = f"{'query':>10} | " + " | ".join(f"{n:>{width}}" for n in names)
        lines = [self.title, header, "-" * len(header)]
        for group in self.groups:
            cells = []
            for name in names:
                value = self.value(name, group)
                cells.append(
                    f"{'-':>{width}}" if value is None
                    else f"{value * scale:>{width}.{precision}f}"
                )
            lines.append(f"{group:>10} | " + " | ".join(cells))
        lines.append(f"(values in {unit}; lower is better)")
        return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
