"""The process-wide worker-pool registry: refcounting and sharing."""

import pytest

from repro.errors import ExecutionError
from repro.parallel.registry import PoolRegistry


@pytest.fixture
def registry() -> PoolRegistry:
    registry = PoolRegistry()
    yield registry
    registry.shutdown()


class TestLeasing:
    def test_same_shape_shares_one_pool(self, registry):
        a = registry.lease(2)
        b = registry.lease(2)
        assert a.executor is b.executor
        assert registry.stats()["live_pools"] == 1
        assert registry.stats()["leases_reused"] == 1

    def test_different_shapes_get_different_pools(self, registry):
        a = registry.lease(2)
        b = registry.lease(4)
        assert a.executor is not b.executor
        assert registry.stats()["live_pools"] == 2

    def test_pool_survives_until_last_release(self, registry):
        a = registry.lease(2)
        b = registry.lease(2)
        a.release()
        assert b.executor.submit(lambda: 7).result() == 7
        b.release()
        assert registry.stats()["live_pools"] == 0

    def test_release_is_idempotent(self, registry):
        a = registry.lease(2)
        b = registry.lease(2)
        a.release()
        a.release()                          # must not steal b's refcount
        assert registry.stats()["active_leases"] == 1
        assert b.executor.submit(lambda: 1).result() == 1

    def test_released_lease_refuses_access(self, registry):
        lease = registry.lease(2)
        lease.release()
        with pytest.raises(ExecutionError, match="released"):
            lease.executor

    def test_context_manager_releases(self, registry):
        with registry.lease(2) as lease:
            assert lease.executor.submit(lambda: 3).result() == 3
        assert registry.stats()["live_pools"] == 0

    def test_reclaimed_shape_builds_a_fresh_pool(self, registry):
        registry.lease(2).release()
        lease = registry.lease(2)
        assert lease.executor.submit(lambda: 9).result() == 9
        assert registry.stats()["pools_created"] == 2

    def test_pool_kind_argument_is_gone(self, registry):
        with pytest.raises(TypeError):
            registry.lease("thread", 2)

    def test_stats_name_pools_by_width(self, registry):
        registry.lease(2)
        registry.lease(2)
        registry.lease(4)
        assert registry.stats()["pools"] == {"chunks:2": 2, "chunks:4": 1}

    def test_roles_never_share_a_pool(self, registry):
        """A query waits on the chunks it submits, so the scheduler's
        pool and the chunk pool of the same width must be two pools."""
        chunks = registry.lease(2)
        queries = registry.lease(2, role="queries")
        assert chunks.executor is not queries.executor
        assert registry.stats()["pools"] == {"chunks:2": 1, "queries:2": 1}
        queries.release()
        assert registry.stats()["pools"] == {"chunks:2": 1}

    def test_bad_width_rejected(self, registry):
        with pytest.raises(ExecutionError, match="workers"):
            registry.lease(0)

    def test_shutdown_clears_everything(self, registry):
        registry.lease(2)
        registry.lease(4)
        registry.shutdown()
        assert registry.stats()["live_pools"] == 0
        assert registry.stats()["active_leases"] == 0


class TestEngineIntegration:
    def test_parallel_engines_share_the_registry_pool(self):
        """Two engines with the same execution shape lease one pool."""
        import numpy as np

        from repro.compiler import ExecutionOptions
        from repro.parallel import REGISTRY
        from repro.relational import EngineConfig, VoodooEngine, parse_sql
        from repro.storage import ColumnStore, Table
        from repro.testing import crossover

        store = ColumnStore()
        store.add(Table.from_arrays(
            "t", v=np.arange(20_000, dtype=np.float64)))
        q = "SELECT SUM(v) AS s FROM t"
        config = EngineConfig(execution=ExecutionOptions(workers=2))
        before = REGISTRY.stats()["live_pools"]
        # every plan pooled, a core per worker: both backends lease, on any host
        with crossover(0), VoodooEngine(store, config=config) as a, \
                VoodooEngine(store, config=config) as b:
            backend_a, backend_b = a._parallel_backend, b._parallel_backend
            backend_a._effective = backend_b._effective = 2
            assert a.query(parse_sql(q, store)).rows() == b.query(parse_sql(q, store)).rows()
            assert backend_a._lease.executor is backend_b._lease.executor
        assert REGISTRY.stats()["live_pools"] == before
