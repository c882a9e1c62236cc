"""Unit tests for the computation manager."""

import time

import numpy as np
import pytest

from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager

BLOCKS = [np.full((10, 1), float(i)) for i in range(5)]


def mean_program(block):
    return float(np.mean(block))


def shuffle_sensitive_program(block):
    """Output encodes the block index; early blocks finish last."""
    time.sleep((7 - block[0, 0]) * 0.004)
    return float(block[0, 0])


def always_fails_program(block):
    raise RuntimeError("boom")


def _run(manager, program, fallback, blocks=BLOCKS, output_dimension=1):
    """One run through the manager, outcomes in matrix form."""
    return manager.run_blocks_collected(
        program, output_dimension, fallback, blocks=blocks
    )


def _manager_for(backend: str, **kwargs) -> ComputationManager:
    return ComputationManager(backend=backend, max_workers=2, **kwargs)


class TestRunBlocks:
    def test_one_outcome_per_block_in_order(self):
        manager = ComputationManager()
        results = _run(manager, mean_program, np.array([0.0]))
        assert list(results.outputs[:, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_parallel_matches_serial(self):
        serial = ComputationManager(max_workers=1)
        parallel = ComputationManager(max_workers=4)
        a = _run(serial, mean_program, np.array([0.0]))
        b = _run(parallel, mean_program, np.array([0.0]))
        assert np.array_equal(a.outputs, b.outputs)

    def test_partial_failure_uses_fallback(self):
        def failing_on_even(block):
            if int(block[0, 0]) % 2 == 0:
                raise RuntimeError
            return float(np.mean(block))

        manager = ComputationManager()
        results = _run(manager, failing_on_even, np.array([-1.0]))
        assert list(results.outputs[:, 0]) == [-1.0, 1.0, -1.0, 3.0, -1.0]

    def test_total_failure_raises(self):
        def always_fails(block):
            raise RuntimeError

        manager = ComputationManager()
        with pytest.raises(ComputationError):
            _run(manager, always_fails, np.array([0.0]))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ComputationError):
            _run(ComputationManager(), mean_program, np.array([0.0]), [])

    def test_bad_output_dimension_rejected(self):
        with pytest.raises(ComputationError):
            _run(
                ComputationManager(), mean_program, np.array([0.0]),
                output_dimension=0,
            )

    def test_fallback_shape_mismatch_rejected(self):
        with pytest.raises(ComputationError):
            _run(ComputationManager(), mean_program, np.array([0.0, 1.0]))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ComputationManager(max_workers=0)


class TestParallelFanOut:
    """The ``max_workers > 1`` branch: ordering, failures, metrics."""

    def test_ordering_preserved_despite_skewed_latencies(self):
        # Early blocks sleep longest, so completion order inverts
        # submission order; the output rows must still follow block order.
        blocks = [np.full((4, 1), float(i)) for i in range(8)]

        def skewed(block):
            time.sleep((7 - block[0, 0]) * 0.005)
            return float(block[0, 0])

        manager = ComputationManager(max_workers=4)
        results = _run(manager, skewed, np.array([0.0]), blocks)
        assert list(results.outputs[:, 0]) == [float(i) for i in range(8)]

    def test_partial_failures_counted_and_substituted(self):
        def failing_on_even(block):
            if int(block[0, 0]) % 2 == 0:
                raise RuntimeError
            return float(np.mean(block))

        metrics = MetricsRegistry()
        manager = ComputationManager(max_workers=4, metrics=metrics)
        results = _run(manager, failing_on_even, np.array([-1.0]))
        assert list(results.outputs[:, 0]) == [-1.0, 1.0, -1.0, 3.0, -1.0]
        assert int((~results.succeeded).sum()) == 3
        assert metrics.counter("blocks.executed").value == 5
        assert metrics.counter("blocks.success").value == 2
        assert metrics.counter("blocks.fallback").value == 3
        assert metrics.gauge("blocks.pool_width").value == 4

    def test_raises_only_when_every_block_fails(self):
        def always_fails(block):
            raise RuntimeError

        manager = ComputationManager(max_workers=4)
        with pytest.raises(ComputationError):
            _run(manager, always_fails, np.array([0.0]))

        def one_survivor(block):
            if int(block[0, 0]) != 3:
                raise RuntimeError
            return 3.0

        results = _run(manager, one_survivor, np.array([0.0]))
        assert int(results.succeeded.sum()) == 1

    def test_per_block_latency_recorded_for_every_block(self):
        metrics = MetricsRegistry()
        manager = ComputationManager(max_workers=4, metrics=metrics)
        _run(manager, mean_program, np.array([0.0]))
        summary = metrics.histogram("blocks.latency_seconds").summary()
        assert summary["count"] == len(BLOCKS)
        assert summary["min"] >= 0.0


class TestBackendSelection:
    """Backend resolution and per-backend result-ordering guarantees."""

    def test_default_backend_tracks_worker_count(self):
        assert ComputationManager().backend == "serial"
        assert ComputationManager(max_workers=4).backend == "thread"
        with ComputationManager(backend="pool", max_workers=2) as manager:
            assert manager.backend == "pool"
            assert manager.pool is not None

    @pytest.mark.parametrize("backend", ["serial", "thread", "pool"])
    def test_result_ordering_is_block_order(self, backend):
        # Per-block outputs encode the block index while completion
        # order is inverted; every backend must return submission order.
        blocks = [np.full((4, 1), float(i)) for i in range(8)]
        with _manager_for(backend, batch_size=1) as manager:
            results = _run(manager, shuffle_sensitive_program, np.array([-1.0]), blocks)
        assert list(results.outputs[:, 0]) == [float(i) for i in range(8)]

    @pytest.mark.parametrize("backend", ["serial", "thread", "pool"])
    def test_all_blocks_failed_raises_on_every_backend(self, backend):
        with _manager_for(backend) as manager:
            with pytest.raises(ComputationError):
                _run(manager, always_fails_program, np.array([0.0]))

    @pytest.mark.parametrize("backend", ["thread", "pool"])
    def test_chunked_dispatch_matches_serial(self, backend):
        serial = ComputationManager()
        expected = _run(serial, mean_program, np.array([0.0]))
        with _manager_for(backend, batch_size=2) as manager:
            results = _run(manager, mean_program, np.array([0.0]))
        assert np.array_equal(results.outputs, expected.outputs)
