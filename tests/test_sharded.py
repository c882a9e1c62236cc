"""Sharded execution engine: determinism, combine protocol, self-healing.

The backend's core contract is that sharding is *execution geometry*,
not a statistical change: for a fixed logical shard count ``S`` (a
public plan parameter, like block size) every backend — serial, thread,
pool, vectorized, sharded at any physical worker count ``K`` — releases
bit-for-bit identical values under the same seed.  These tests pin that
matrix, the shard-major combine protocol underneath it, the degrade
paths (timing defense, unpicklable programs, explicit grouped plans),
and kill-and-replace self-healing of the forked local nodes.
"""

import multiprocessing

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.blocks import (
    draw_shard_local_plan,
    draw_sharded_plan,
    shard_block_counts,
    shard_offsets,
)
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime import computation_manager
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.shard import ShardQuerySpec
from repro.runtime.timing import TimingDefense

SEED = 424242
QUERY_SEED = 7
EPSILON = 0.5
BLOCK_SIZE = 50
NUM_RECORDS = 1_000


def crash_on_negative_mean(block):
    """Kills its host node on shard-0 data (see the self-heal test).

    Module-level so it pickles: a nested def would silently degrade the
    sharded fast path to the in-process chamber — and kill the test run.
    """
    if float(np.mean(block)) < 0:
        import os

        os._exit(13)
    return float(np.mean(block))


crash_on_negative_mean.output_dimension = 1


def plain_mean(block):
    return float(np.mean(block))


plain_mean.output_dimension = 1


def crash_once(block):
    """Kills its host node the first time any node runs it, then behaves
    like :func:`plain_mean` (the marker file remembers the crash)."""
    import os

    marker = os.environ["REPRO_TEST_CRASH_MARKER"]
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return plain_mean(block)


crash_once.output_dimension = 1


def slow_mean(block):
    """:func:`plain_mean`, slowed so each shard computes for ~0.5 s."""
    import time

    time.sleep(0.05)
    return plain_mean(block)


slow_mean.output_dimension = 1


def _values(num_records: int = NUM_RECORDS) -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(num_records, 1))


def _release(
    *,
    backend: str | None = None,
    workers: int | None = None,
    shards: int | None = None,
    nodes=None,
    computation: ComputationManager | None = None,
    metrics: MetricsRegistry | None = None,
    program=None,
    num_records: int = NUM_RECORDS,
):
    """One seeded query through a fresh runtime; the released tuple."""
    manager = DatasetManager()
    manager.register(
        "data", DataTable(_values(num_records), input_ranges=[(0.0, 100.0)]),
        total_budget=100.0,
    )
    if computation is not None:
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=SEED, metrics=metrics
        )
    else:
        runtime = GuptRuntime(
            manager, rng=SEED, backend=backend, workers=workers,
            shards=shards, nodes=nodes, metrics=metrics,
        )
    try:
        result = runtime.run(
            "data",
            program if program is not None else Mean(),
            TightRange((0.0, 100.0)),
            epsilon=EPSILON,
            block_size=BLOCK_SIZE,
            rng=QUERY_SEED,
        )
    finally:
        runtime.close()
    return tuple(float(v) for v in result.value), result.num_blocks


class TestDeterminismMatrix:
    def test_every_backend_agrees_at_fixed_shards(self):
        """serial/thread/pool/vectorized/sharded/remote: same bits at S=4."""
        releases = {
            "serial": _release(backend="serial", shards=4),
            "thread": _release(backend="thread", workers=2, shards=4),
            "pool": _release(backend="pool", workers=2, shards=4),
            "vectorized": _release(backend="vectorized", shards=4),
            "sharded-K1": _release(backend="sharded", workers=1, shards=4),
            "sharded-K2": _release(backend="sharded", workers=2, shards=4),
            "sharded-K4": _release(backend="sharded", workers=4, shards=4),
            "remote-N1": _release(backend="remote", nodes=1, shards=4),
            "remote-N2": _release(backend="remote", nodes=2, shards=4),
        }
        assert len(set(releases.values())) == 1, releases

    def test_worker_count_never_moves_bits(self):
        """K is deployment geometry: uneven shard/worker splits included."""
        releases = {
            k: _release(backend="sharded", workers=k, shards=6)
            for k in (1, 2, 3, 4, 6)
        }
        assert len(set(releases.values())) == 1, releases

    def test_node_count_never_moves_bits(self):
        """Remote node count N is deployment geometry, exactly like K."""
        releases = {
            n: _release(backend="remote", nodes=n, shards=6)
            for n in (1, 2, 3, 6)
        }
        releases["sharded"] = _release(backend="sharded", workers=2, shards=6)
        assert len(set(releases.values())) == 1, releases

    def test_remote_subprocess_nodes_agree(self):
        """Real node processes over TCP release the same bits as serial."""
        from repro.runtime.remote import RemoteShardBackend

        remote = RemoteShardBackend(
            shards=4, nodes=2, node_spawn="process", heartbeat_interval=None
        )
        try:
            computation = ComputationManager(
                backend="remote", max_workers=2, shards=4, sharded=remote
            )
            over_tcp = _release(computation=computation)
        finally:
            remote.close()
        assert over_tcp == _release(backend="serial", shards=4)

    def test_single_shard_matches_legacy_protocol(self):
        """S=1 is *defined* as the pre-sharding plan protocol."""
        assert _release(backend="serial") == _release(
            backend="sharded", workers=1, shards=1
        )

    def test_shard_count_is_a_public_plan_parameter(self):
        """Changing S redraws the plan — S reaches the released bits."""
        assert _release(backend="serial", shards=2) != _release(
            backend="serial", shards=4
        )

    def test_fast_path_actually_ran(self):
        metrics = MetricsRegistry()
        _release(backend="sharded", workers=2, shards=4, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["remote.queries"] == 1
        assert not any(k.startswith("sharded.fallbacks") for k in counters)
        # Nodes report one elapsed time per shard, not per block.
        assert "blocks.latency_seconds" not in metrics.snapshot()["histograms"]


class TestCombineProtocol:
    def test_combined_plan_is_shard_major_concatenation(self):
        combined = draw_sharded_plan(
            NUM_RECORDS, block_size=BLOCK_SIZE, resampling_factor=2,
            plan_seed=99, shards=3,
        )
        offsets = shard_offsets(NUM_RECORDS, 3)
        base = 0
        rebuilt = []
        for shard in range(3):
            local = draw_shard_local_plan(
                int(offsets[shard + 1] - offsets[shard]),
                BLOCK_SIZE, 2, plan_seed=99, shards=3, shard=shard,
            )
            rebuilt.extend(
                [int(offsets[shard]) + int(i) for i in block]
                for block in local.blocks
            )
            base += local.num_blocks
        assert [list(map(int, b)) for b in combined.blocks] == rebuilt

    def test_combined_stack_rows_match_worker_local_stacks(self):
        """The coordinator's combined stack splits, at the public
        per-shard block counts, into exactly the worker-local
        materializations — the equivalence the partials-only combine
        rests on."""
        values = _values(600)
        shards = 3
        combined_stacked = draw_sharded_plan(
            600, block_size=BLOCK_SIZE, plan_seed=5, shards=shards
        ).stack(values)
        counts = shard_block_counts(600, BLOCK_SIZE, 1, shards)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        assert bounds[-1] == combined_stacked.shape[0]
        offsets = shard_offsets(600, shards)
        for shard in range(shards):
            local_values = values[int(offsets[shard]) : int(offsets[shard + 1])]
            local_plan = draw_shard_local_plan(
                local_values.shape[0], BLOCK_SIZE, 1,
                plan_seed=5, shards=shards, shard=shard,
            )
            local_stacked = np.stack(
                [local_values[list(block)] for block in local_plan.blocks]
            )
            np.testing.assert_array_equal(
                combined_stacked[bounds[shard] : bounds[shard + 1]],
                local_stacked,
            )

    def test_shard_block_counts_partition_the_plan(self):
        counts = shard_block_counts(NUM_RECORDS, BLOCK_SIZE, 2, 3)
        combined = draw_sharded_plan(
            NUM_RECORDS, block_size=BLOCK_SIZE, resampling_factor=2,
            plan_seed=1, shards=3,
        )
        assert int(np.sum(counts)) == combined.num_blocks


class TestSelfHealing:
    def test_worker_killed_between_queries_heals_bit_identically(self):
        metrics = MetricsRegistry()
        manager = DatasetManager()
        manager.register(
            "data", DataTable(_values(), input_ranges=[(0.0, 100.0)]),
            total_budget=100.0,
        )
        computation = ComputationManager(
            backend="sharded", shards=4, max_workers=2, metrics=metrics
        )
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=SEED, metrics=metrics
        )
        try:
            def query(seed):
                result = runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)),
                    epsilon=EPSILON, block_size=BLOCK_SIZE, rng=seed,
                )
                return tuple(float(v) for v in result.value)

            before = query(11)
            node = computation.sharded_backend._cluster._children[0]
            node.kill()
            node.join(timeout=5.0)
            assert node.exitcode is not None
            after = query(11)
        finally:
            runtime.close()
        assert before == after
        counters = metrics.snapshot()["counters"]
        assert counters["remote.node_deaths"] >= 1
        # The replacement node needed its two shards re-pushed; the live
        # node's two were never sent again.
        assert counters["remote.segment_pushes"] == 4 + 2

    def test_crash_during_query_substitutes_fallback_rows(self):
        """A program that kills its worker on one shard's data: the query
        still completes, the dead shard resolving to fallback rows —
        the same data-independent outcome the pool backend gives killed
        blocks."""
        # Shard 0 owns the negative half; every block drawn from it
        # kills the worker (twice, after one heal-and-retry).
        values = np.concatenate(
            [np.full(500, -50.0), np.full(500, 50.0)]
        ).reshape(-1, 1)
        metrics = MetricsRegistry()
        manager = DatasetManager()
        manager.register(
            "data", DataTable(values, input_ranges=[(-100.0, 100.0)]),
            total_budget=100.0,
        )
        computation = ComputationManager(
            backend="sharded", shards=2, max_workers=2, metrics=metrics
        )
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=SEED, metrics=metrics
        )
        try:
            result = runtime.run(
                "data", crash_on_negative_mean, TightRange((-100.0, 100.0)),
                epsilon=EPSILON, block_size=100, rng=3,
            )
        finally:
            runtime.close()
        assert np.all(np.isfinite(result.value))
        counters = metrics.snapshot()["counters"]
        assert counters["remote.node_deaths"] >= 1
        assert counters["blocks.fallback"] >= 1
        assert counters["blocks.success"] >= 1


    def test_one_node_retries_a_crashed_query_on_a_fresh_fork(
        self, tmp_path, monkeypatch
    ):
        """K=1: the dead node's slot is re-dialed, which forks a fresh
        node; the retry answers every shard, bit-identically."""
        monkeypatch.setenv("REPRO_TEST_CRASH_MARKER", str(tmp_path / "crashed"))
        metrics = MetricsRegistry()
        healed = _release(
            backend="sharded", workers=1, shards=2,
            metrics=metrics, program=crash_once,
        )
        assert healed == _release(backend="serial", shards=2, program=plain_mean)
        counters = metrics.snapshot()["counters"]
        assert counters["remote.node_deaths"] == 1
        assert counters["blocks.fallback"] == 0


    def test_slow_shard_is_never_declared_wedged(self, monkeypatch):
        """A forked node sends nothing while it computes a shard.  That is
        busy, not wedged: its death would show up as EOF.  So a shard
        outlasting any liveness deadline still releases the serial bits."""
        deadline = 0.2
        metrics = MetricsRegistry()
        control = RemoteShardBackend(
            shards=2, nodes=1, node_spawn="fork", node_timeout=deadline,
            heartbeat_interval=None, metrics=metrics,
        )
        # The premise: a node held to the deadline is declared wedged,
        # and so is the fresh fork that retries its shards.
        try:
            with pytest.raises(ComputationError, match="every block"):
                _release(
                    computation=ComputationManager(
                        backend="sharded", sharded=control
                    ),
                    metrics=metrics, program=slow_mean,
                )
        finally:
            control.close()
        assert metrics.snapshot()["counters"]["remote.node_deaths"] >= 1

        def short_default(*args, node_timeout=deadline, **kwargs):
            return RemoteShardBackend(*args, node_timeout=node_timeout, **kwargs)

        monkeypatch.setattr(computation_manager, "RemoteShardBackend", short_default)
        metrics = MetricsRegistry()
        slow = _release(
            backend="sharded", workers=1, shards=2,
            metrics=metrics, program=slow_mean,
        )
        assert slow == _release(backend="serial", shards=2, program=plain_mean)
        counters = metrics.snapshot()["counters"]
        assert counters.get("remote.node_deaths", 0) == 0
        assert counters.get("blocks.fallback", 0) == 0


class TestDegrades:
    def test_unpicklable_program_degrades_bit_compatibly(self):
        def make_program():
            offset = 0.0  # closure => unpicklable across processes
            program = lambda block: float(np.mean(block)) + offset  # noqa: E731
            program.output_dimension = 1
            return program

        metrics = MetricsRegistry()
        sharded = _release(
            backend="sharded", workers=2, shards=3,
            metrics=metrics, program=make_program(),
        )
        serial = _release(backend="serial", shards=3, program=make_program())
        assert sharded == serial
        counters = metrics.snapshot()["counters"]
        assert counters['sharded.fallbacks{reason="unpicklable"}'] == 1
        assert counters.get("remote.queries", 0) == 0

    def test_timing_defense_degrades_bit_compatibly(self):
        metrics = MetricsRegistry()
        guarded = ComputationManager(
            backend="sharded", shards=3, max_workers=2,
            timing=TimingDefense(cycle_budget=30.0, pad=False),
            metrics=metrics,
        )
        sharded = _release(computation=guarded, metrics=metrics)
        serial = _release(backend="serial", shards=3)
        assert sharded == serial
        counters = metrics.snapshot()["counters"]
        assert counters['sharded.fallbacks{reason="timing_defense"}'] == 1

    def test_grouped_query_bypasses_fast_path(self):
        """group_by hands the engine an explicit plan; the sharded
        backend must answer it through the chamber path, identically to
        serial."""
        labels = np.repeat(np.arange(25), 40).astype(float)
        table = DataTable(
            np.column_stack([_values().ravel(), labels]),
            column_names=("x", "user"),
            input_ranges=[(0.0, 100.0), (0.0, 25.0)],
        )

        def grouped_release(backend):
            metrics = MetricsRegistry()
            manager = DatasetManager()
            manager.register("data", table, total_budget=100.0)
            runtime = GuptRuntime(
                manager, rng=SEED, backend=backend, workers=2, shards=2,
                metrics=metrics,
            )
            try:
                result = runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)),
                    epsilon=EPSILON, group_by="user", rng=9,
                )
            finally:
                runtime.close()
            return tuple(float(v) for v in result.value), metrics

        sharded_value, metrics = grouped_release("sharded")
        serial_value, _ = grouped_release("serial")
        assert sharded_value == serial_value
        assert metrics.snapshot()["counters"].get("remote.queries", 0) == 0


def _local_backend(shards: int, nodes: int) -> RemoteShardBackend:
    """A coordinator over forked local nodes, as ``backend="sharded"`` builds."""
    return RemoteShardBackend(
        shards=shards, nodes=nodes, node_spawn="fork", heartbeat_interval=None
    )


class TestValidation:
    def test_backend_rejects_bad_geometry(self):
        with pytest.raises(ComputationError):
            _local_backend(shards=0, nodes=1)
        with pytest.raises(ValueError):
            ComputationManager(backend="sharded", shards=2, max_workers=0)
        with pytest.raises(ComputationError):
            RemoteShardBackend(shards=2, nodes=1, resident_datasets=0)

    def test_workers_clamped_to_shards(self):
        """K > S forks no idle node: one node per shard, no more."""
        manager = ComputationManager(backend="sharded", shards=2, max_workers=8)
        try:
            assert manager.sharded_backend.nodes == 2
            manager.run_sharded_collected(
                Mean(), _values(100), dataset="d", version=1,
                block_size=10, resampling_factor=1, plan_seed=0,
                output_dimension=1, fallback=np.zeros(1),
            )
            assert len(multiprocessing.active_children()) == 2
        finally:
            manager.close()

    def test_spec_shard_mismatch_is_an_error(self):
        backend = _local_backend(shards=2, nodes=1)
        spec = ShardQuerySpec(
            dataset="d", version=1, num_records=100, block_size=10,
            resampling_factor=1, plan_seed=0, shards=3,
            output_dimension=1, fallback=(0.0,),
        )
        try:
            with pytest.raises(ComputationError, match="3 shards"):
                backend.run_sharded(b"", _values(100), spec)
        finally:
            backend.close()

    def test_manager_validates_shard_count(self):
        with pytest.raises(ValueError):
            ComputationManager(backend="sharded", shards=0)

    def test_manager_rejects_mismatched_prebuilt_backend(self):
        backend = _local_backend(shards=2, nodes=1)
        try:
            with pytest.raises(ValueError):
                ComputationManager(backend="sharded", shards=4, sharded=backend)
        finally:
            backend.close()

    def test_collected_requires_sharded_backend(self):
        manager = ComputationManager(backend="serial")
        with pytest.raises(ComputationError):
            manager.run_sharded_collected(
                Mean(), _values(100), dataset="d", version=1,
                block_size=10, resampling_factor=1, plan_seed=0,
                output_dimension=1, fallback=np.zeros(1),
            )

    def test_serial_backends_honor_the_shards_knob(self):
        manager = ComputationManager(backend="serial", shards=3)
        assert manager.plan_shards == 3
        assert manager.sharded_backend is None

    def test_sharded_default_is_one_shard_per_worker(self):
        manager = ComputationManager(backend="sharded", max_workers=3)
        try:
            assert manager.plan_shards == 3
            assert manager.sharded_backend.shards == 3
        finally:
            manager.close()


class TestFederatedDeterminism:
    """Curator-held rows: the node split is deployment geometry too.

    The same 600 rows are handed to 1, 2, 3 or 6 curator nodes (each
    holding a contiguous slice aligned on shard boundaries); every
    split — and the in-process engine holding all rows locally — must
    release bit-identical values at the same logical shard count.
    """

    SPLITS = {
        "one-curator": (600,),
        "two-curators": (300, 300),
        "three-curators": (200, 200, 200),
        "six-curators": (100,) * 6,
    }

    def _federated_release(self, split, secret=None):
        from repro.runtime.remote import ShardNodeServer

        values = _values(600)
        servers = []
        addresses = []
        base = 0
        try:
            for rows in split:
                server = ShardNodeServer(
                    curated={"data": values[base : base + rows]}, secret=secret
                )
                servers.append(server)
                addresses.append("{0}:{1}".format(*server.start()))
                base += rows
            runtime = GuptRuntime(
                DatasetManager(), rng=SEED, backend="remote",
                nodes=addresses, shards=6, node_secret=secret,
            )
            try:
                runtime.register_federated(
                    "data", total_budget=100.0, input_ranges=[(0.0, 100.0)]
                )
                result = runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)),
                    epsilon=EPSILON, block_size=BLOCK_SIZE, rng=QUERY_SEED,
                )
            finally:
                runtime.close()
            return tuple(float(v) for v in result.value), result.num_blocks
        finally:
            for server in servers:
                server.stop()

    def test_curator_split_never_moves_bits(self):
        releases = {
            name: self._federated_release(split)
            for name, split in self.SPLITS.items()
        }
        releases["in-process"] = _release(
            backend="sharded", workers=2, shards=6, num_records=600
        )
        assert len(set(releases.values())) == 1, releases

    def test_authenticated_curators_release_the_same_bits(self):
        """The auth handshake is transport, not plan: bits don't move."""
        authenticated = self._federated_release((300, 300), secret="s3cret")
        in_process = _release(
            backend="sharded", workers=2, shards=6, num_records=600
        )
        assert authenticated == in_process

    def test_misaligned_curator_split_is_refused(self):
        """A curator boundary off the shard grid can't silently re-shard."""
        from repro.exceptions import GuptError

        with pytest.raises((ComputationError, GuptError), match="federate|boundar|align|row counts"):
            self._federated_release((250, 350))
