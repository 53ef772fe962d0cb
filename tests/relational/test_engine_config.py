"""EngineConfig: validation, the one constructor form, close semantics.

The engine is configured by one frozen, validated ``EngineConfig``.
These tests pin the contract: conflicts fail in ``validate()`` with the
historic messages, anything but ``config=`` is a plain ``TypeError``,
and ``close()`` is idempotent and terminal.
"""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, ExecutionOptions
from repro.errors import ExecutionError
from repro.relational import EngineConfig, VoodooEngine, parse_sql
from repro.storage import ColumnStore, Table


@pytest.fixture
def store() -> ColumnStore:
    rng = np.random.default_rng(3)
    store = ColumnStore()
    store.add(Table.from_arrays(
        "t",
        k=rng.integers(0, 8, 200).astype(np.int64),
        v=np.round(rng.uniform(0, 1, 200), 6),
    ))
    return store


def query(store):
    return parse_sql("SELECT SUM(v) AS s FROM t WHERE k < 5", store)


class TestValidation:
    def test_default_config_resolves(self):
        config = EngineConfig().resolved()
        assert config.grain == 4096          # cpu default
        assert config.tracing is True        # sequential

    def test_gpu_grain_default(self):
        config = EngineConfig(options=CompilerOptions(device="gpu")).resolved()
        assert config.grain == 256

    def test_parallel_resolves_untraced(self):
        config = EngineConfig(execution=ExecutionOptions(workers=2)).resolved()
        assert config.tracing is False
        assert config.parallel is True

    def test_bad_grain(self):
        with pytest.raises(ExecutionError, match="grain"):
            EngineConfig(grain=0).validate()

    def test_unknown_device_fails_at_build_time(self, store):
        """A device no profile answers to is a configuration error: the
        engine and the serving catalog refuse it when built, not at the
        first query (a server would send that to a client as 400)."""
        from repro.serving.catalog import Catalog

        config = EngineConfig(options=CompilerOptions(device="gpu2"))
        with pytest.raises(ExecutionError, match="unknown device 'gpu2'"):
            config.validate()
        with pytest.raises(ExecutionError, match="unknown device"):
            VoodooEngine(store, config=config)
        with pytest.raises(ExecutionError, match="unknown device"):
            Catalog(config=config)

    def test_tracing_parallel_conflict(self):
        with pytest.raises(ExecutionError, match="tracing"):
            EngineConfig(
                execution=ExecutionOptions(workers=2), tracing=True
            ).validate()

    def test_with_replaces_fields(self):
        config = EngineConfig(grain=64)
        assert config.with_(grain=128).grain == 128
        assert config.grain == 64            # frozen original untouched

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().grain = 7


class TestOneConstructorForm:
    def test_loose_keywords_are_a_type_error(self, store):
        with pytest.raises(TypeError, match="grain"):
            VoodooEngine(store, grain=64)
        with pytest.raises(TypeError, match="worker_count"):
            VoodooEngine(store, worker_count=2)

    def test_native_shorthand_sets_the_compiler_option(self):
        assert EngineConfig(native=True).resolved().options.native is True
        pinned = EngineConfig(options=CompilerOptions(native=True))
        assert pinned.resolved().options.native is True      # None leaves it
        assert pinned.with_(native=False).resolved().options.native is False


class TestCloseSemantics:
    def test_close_is_idempotent(self, store):
        engine = VoodooEngine(store)
        engine.query(query(store))
        engine.close()
        engine.close()                       # second close is a no-op
        assert engine.closed is True

    def test_execute_after_close_raises(self, store):
        engine = VoodooEngine(store)
        engine.close()
        with pytest.raises(ExecutionError, match="closed"):
            engine.query(query(store))

    def test_prepare_after_close_raises(self, store):
        engine = VoodooEngine(store)
        engine.close()
        with pytest.raises(ExecutionError, match="closed"):
            engine.prepare(query(store))

    def test_context_manager_closes(self, store):
        with VoodooEngine(store) as engine:
            engine.query(query(store))
        assert engine.closed is True
