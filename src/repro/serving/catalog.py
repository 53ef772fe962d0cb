"""The served catalog: named datasets, one shared engine per dataset.

A serving process owns a handful of :class:`~repro.storage.ColumnStore`s
("datasets").  Every session that opens against a dataset shares that
dataset's single :class:`~repro.relational.VoodooEngine` — this is what
makes the serving layer's steady state compile nothing: the plan cache
and the prepared queries live on the shared engine, so a query shape
prepared by one client is a warm hit for every other client.

The engine is built lazily on first use with the catalog's
:class:`~repro.relational.EngineConfig` (default: ``tracing=False`` so
served queries run the fused wall-clock kernels, not the priced
simulator).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServingError
from repro.relational import EngineConfig, VoodooEngine
from repro.storage import ColumnStore, Table


def micro_store(n: int, cards: int = 12, seed: int = 0) -> ColumnStore:
    """The ``--micro`` dataset: one ``facts`` table for selection and
    group-by queries (``k`` in ``[0, cards)``, two floats, ``w`` in
    ``[0, 100)``)."""
    rng = np.random.default_rng(seed)
    store = ColumnStore(meta={
        "generator": "repro.serving.catalog.micro_store",
        "seed": int(seed), "n": int(n), "cards": int(cards),
    })
    store.add(Table.from_arrays(
        "facts",
        k=rng.integers(0, cards, n).astype(np.int64),
        v1=rng.random(n),
        v2=rng.random(n),
        w=rng.integers(0, 100, n).astype(np.int64),
    ))
    return store


class Catalog:
    """Named ``ColumnStore``s with one lazily built engine per dataset.

    Not thread-safe by itself: the serving layer mutates it only from
    the event-loop thread (worker threads only *execute* through the
    already-built, internally locked engines).
    """

    def __init__(self, config: EngineConfig | None = None):
        #: engine configuration applied to every dataset's engine
        self.config = (config or EngineConfig(tracing=False)).resolved()
        self._stores: dict[str, ColumnStore] = {}
        self._engines: dict[str, VoodooEngine] = {}

    # -- registration ------------------------------------------------------

    def add(self, name: str, store: ColumnStore) -> None:
        """Register ``store`` under ``name`` (replacing drops the old
        dataset's engine and its caches)."""
        if name in self._engines:
            self._engines.pop(name).close()
        self._stores[name] = store

    def remove(self, name: str) -> None:
        if name in self._engines:
            self._engines.pop(name).close()
        self._stores.pop(name, None)

    # -- lookup ------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._stores)

    def __contains__(self, name: str) -> bool:
        return name in self._stores

    def store(self, name: str) -> ColumnStore:
        store = self._stores.get(name)
        if store is None:
            raise ServingError(
                f"unknown dataset {name!r}; catalog has {self.names()}"
            )
        return store

    def engine(self, name: str) -> VoodooEngine:
        """The dataset's shared engine, built on first use."""
        engine = self._engines.get(name)
        if engine is None:
            engine = VoodooEngine(self.store(name), config=self.config)
            self._engines[name] = engine
        return engine

    # -- observability -----------------------------------------------------

    def describe(self) -> dict:
        """What a client sees on ``GET /catalog``."""
        datasets = {}
        for name in self.names():
            store = self._stores[name]
            datasets[name] = {
                "tables": {table.name: len(table) for table in store.tables()},
                "engine": name in self._engines,
            }
        return {"datasets": datasets}

    def cache_info(self) -> dict:
        """Per-dataset engine cache counters (the zero-compile proof)."""
        return {
            name: engine.cache_info()
            for name, engine in sorted(self._engines.items())
        }

    def storage_info(self) -> dict:
        """Per-dataset segment/encoding/footprint summary with cumulative
        I/O counters (every registered store, engine built or not)."""
        return {
            name: self._stores[name].storage_report()
            for name in self.names()
        }

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()
