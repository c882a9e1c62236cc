"""Teardown ordering: every close is idempotent and exactly-once.

Teardown paths overlap in this codebase by design — context managers,
explicit ``close()`` calls, ``GuptService.close`` cascading into
``GuptRuntime.close`` cascading into the backends, ``__del__`` as a
last resort.  A double release of worker or node processes is a crash;
a *skipped* release is a leak.  These regression
tests pin the contract at every layer: closing twice is a no-op, the
expensive teardown happens exactly once, and — for the pool backend,
which is restartable by design — closing does not wedge the owner
against a later run.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import ComputationError
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote.backend import LocalNodeCluster
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest


def _table(num_records: int = 400) -> DataTable:
    values = np.random.default_rng(3).uniform(0.0, 100.0, size=num_records)
    return DataTable(values, column_names=["v"], input_ranges=[(0.0, 100.0)])


def _sharded_query(manager: ComputationManager) -> None:
    """One query through the manager's shard coordinator (forks its nodes)."""
    manager.run_sharded_collected(
        Mean(), _table().values, dataset="d", version=1, block_size=50,
        resampling_factor=1, plan_seed=0, output_dimension=1,
        fallback=np.zeros(1),
    )


class TestShardedBackendTeardown:
    def test_close_is_idempotent_and_terminal(self):
        manager = ComputationManager(backend="sharded", shards=2, max_workers=2)
        backend = manager.sharded_backend
        _sharded_query(manager)
        assert len(multiprocessing.active_children()) == 2
        manager.close()
        assert not multiprocessing.active_children()
        manager.close()  # second call: cheap no-op, no double release
        with pytest.raises(ComputationError, match="closed"):
            _sharded_query(manager)
        assert backend._closed

    def test_close_reaps_nodes_exactly_once(self, monkeypatch):
        stops = []
        original = LocalNodeCluster.stop
        monkeypatch.setattr(
            LocalNodeCluster, "stop",
            lambda cluster: (stops.append(cluster), original(cluster))[1],
        )
        manager = ComputationManager(backend="sharded", shards=2, max_workers=1)
        _sharded_query(manager)
        manager.close()
        manager.close()
        assert len(stops) == 1
        assert not multiprocessing.active_children()

    def test_context_manager_overlapping_explicit_close(self):
        with ComputationManager(
            backend="sharded", shards=2, max_workers=1
        ) as manager:
            _sharded_query(manager)
            manager.close()  # __exit__ will close again — must not raise
        assert not multiprocessing.active_children()

    def test_node_sees_eof_when_its_coordinator_end_closes(self):
        """Node 1 is forked after node 0 and inherits node 0's
        coordinator end; it must drop that copy, or node 0 would never
        see its coordinator go away."""
        manager = ComputationManager(backend="sharded", shards=2, max_workers=2)
        backend = manager.sharded_backend
        try:
            _sharded_query(manager)
            first = backend._cluster._children[0]
            backend._sessions[0].sock.close()
            first.join(timeout=5.0)
            assert first.exitcode is not None, "node 0 never saw EOF"
        finally:
            manager.close()
        assert not multiprocessing.active_children()

    def test_close_is_prompt_and_leaves_nothing_running(self):
        """After one query, close() returns within 100 ms, every node
        process is reaped, and no node or heartbeat thread survives."""
        manager = ComputationManager(backend="sharded", shards=2, max_workers=2)
        _sharded_query(manager)
        started = time.perf_counter()
        manager.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.1, f"close took {elapsed * 1000:.1f} ms"
        assert not multiprocessing.active_children()
        lingering = [
            t.name for t in threading.enumerate()
            if t.name.startswith(("shard-node", "remote-heartbeat"))
        ]
        assert not lingering, lingering


class TestComputationManagerTeardown:
    def test_sharded_manager_double_close(self):
        manager = ComputationManager(backend="sharded", shards=2, max_workers=2)
        backend = manager.sharded_backend
        _sharded_query(manager)
        manager.close()
        manager.close()
        assert backend._closed

    def test_pool_backend_survives_close_run_close(self):
        """The pool restarts transparently after close; the manager must
        not remember a close and skip the next one (that would leak the
        restarted workers)."""
        manager = ComputationManager(backend="pool", max_workers=1)

        def run_once():
            values = np.random.default_rng(0).uniform(0, 10, size=(40, 1))
            blocks = [values[i * 10 : (i + 1) * 10] for i in range(4)]
            batch = manager.run_blocks_collected(
                Mean(), 1, np.zeros(1), blocks=blocks
            )
            assert batch.succeeded.all()

        run_once()
        manager.close()
        run_once()  # transparently restarts the pool
        pool = manager._pool
        assert pool._workers, "pool did not restart"
        manager.close()  # second close must still stop the new workers
        assert not pool._workers


class TestRuntimeTeardown:
    def test_double_close_unhooks_exactly_once(self):
        manager = DatasetManager()
        manager.register("d", _table(), total_budget=10.0)
        hooks_before = len(manager._invalidation_hooks)
        runtime = GuptRuntime(manager, rng=0, backend="sharded", shards=2)
        runtime.run(
            "d", Mean(), TightRange((0.0, 100.0)), epsilon=0.5,
            block_size=50, rng=1,
        )
        assert len(manager._invalidation_hooks) > hooks_before
        runtime.close()
        assert len(manager._invalidation_hooks) == hooks_before
        runtime.close()  # idempotent: no double unhook, no error
        assert len(manager._invalidation_hooks) == hooks_before

    def test_close_without_any_query(self):
        manager = DatasetManager()
        manager.register("d", _table(), total_budget=10.0)
        runtime = GuptRuntime(manager, rng=0, backend="sharded", shards=2)
        runtime.close()
        runtime.close()


class TestServiceTeardown:
    def _service(self) -> GuptService:
        service = GuptService(rng=0, backend="sharded", shards=2, workers=2)
        owner = service.enroll(OWNER, "o")
        service.register_dataset(owner.token, "d", _table(), total_budget=10.0)
        return service

    def test_double_close_drains_scheduler_once(self, monkeypatch):
        service = self._service()
        analyst = service.enroll(ANALYST, "a")
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="d", program=Mean(),
                range_strategy=TightRange((0.0, 100.0)), epsilon=0.5, seed=1,
            ),
        )
        assert response.ok
        scheduler = service.scheduler
        closes = []
        original = scheduler.close
        monkeypatch.setattr(
            scheduler, "close",
            lambda drain=True: (closes.append(drain), original(drain=drain))[1],
        )
        service.close()
        service.close()
        assert closes == [True]

    def test_close_before_scheduler_exists(self):
        service = GuptService(rng=0)
        service.close()
        service.close()

    def test_context_exit_after_explicit_close(self):
        with self._service() as service:
            service.close()


class TestSchedulerTeardown:
    def test_double_close(self):
        scheduler = QueryScheduler(workers=2)
        scheduler.close()
        scheduler.close()
        assert scheduler._close_finished
