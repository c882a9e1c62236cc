"""Seeded fault-injection matrix for the remote shard backend.

Every test in this file injects a deterministic failure — a node killed,
wedged, or slowed at an exact protocol state via the ``remote.node.*``
failpoints, or a coordinator-side send failure via ``remote.send.*`` —
and then asserts one of exactly two permitted outcomes:

* **bit-identical**: surviving nodes adopted the orphaned shards and
  replayed ``spawn(plan_seed, S)[s]``, so the released outputs equal a
  healthy run byte for byte; or
* **finite degrade**: no node could answer a shard, so its rows are the
  query's *data-independent* fallback and the query is flagged in
  telemetry.

A raised exception that could leak raw data is never a permitted
outcome.

Node-side failpoints count frames processed after the handshake
(strictly ordered on one connection), so ``@N`` targets an exact
protocol state.  For the victim node here (2 shards): hit 1-2 are its
SEGMENT frames, 3 the PLAN, 4 the EXECUTE, 5-6 fire just before each
outgoing PARTIAL.  Victims run as subprocesses (armed through the
``REPRO_FAILPOINTS`` environment), so a ``crash`` is a genuinely dead
peer and never takes the test process with it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.shard import ShardQuerySpec
from repro.testing import failpoints

from tests.shard_reference import reference_outputs

SRC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEED = 424242
SHARDS = 4
FALLBACK = -1.0  # outside the data range [0, 100]: fallback rows are unmistakable

SPEC = ShardQuerySpec(
    dataset="fault-data",
    version=1,
    num_records=400,
    block_size=20,
    resampling_factor=1,
    plan_seed=97,
    shards=SHARDS,
    output_dimension=1,
    fallback=(FALLBACK,),
    clamp_lo=(0.0,),
    clamp_hi=(100.0,),
)

PROGRAM = pickle.dumps(Mean())


def _values() -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(SPEC.num_records, 1))


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture(scope="module")
def baseline():
    """The healthy release, computed independently of the coordinator.

    The golden replays the combined plan block by block in this
    process, sharing no code with the nodes, so every bit-identical
    assertion below also checks the shard kernel itself, not just
    remote-vs-remote.
    """
    return reference_outputs(PROGRAM, _values(), SPEC)


def _spawn_victim(arming: str) -> tuple[subprocess.Popen, str]:
    """Start one subprocess shard node with ``REPRO_FAILPOINTS`` armed."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (SRC_PATH, os.environ.get("PYTHONPATH")) if p
        ),
        failpoints.ENV_VAR: arming,
    }
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "shard-node", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    parts = line.split()
    assert parts and parts[0] == "LISTENING", f"victim failed to start: {line!r}"
    return process, f"{parts[1]}:{parts[2]}"


def _run_with_victim(arming: str, node_timeout: float) -> tuple[np.ndarray, np.ndarray, MetricsRegistry]:
    """One query against [armed victim, healthy thread node]."""
    victim, victim_address = _spawn_victim(arming)
    metrics = MetricsRegistry()
    try:
        from repro.runtime.remote import ShardNodeServer

        healthy = ShardNodeServer()
        host, port = healthy.start()
        try:
            backend = RemoteShardBackend(
                shards=SHARDS,
                nodes=[victim_address, f"{host}:{port}"],
                metrics=metrics,
                heartbeat_interval=None,
                node_timeout=node_timeout,
            )
            try:
                _, batch = backend.run_sharded(PROGRAM, _values(), SPEC)
            finally:
                backend.close()
        finally:
            healthy.stop()
    finally:
        victim.kill()
        victim.wait(timeout=5.0)
    return batch.outputs, batch.succeeded, metrics


#: Protocol states of the victim node (2 shards), by failpoint hit count.
PROTOCOL_STATES = {
    "registration-first-segment": 1,
    "dispatch-plan": 3,
    "dispatch-execute": 4,
    "combine-before-first-partial": 5,
    "combine-between-partials": 6,
}


class TestNodeCrashMatrix:
    """kill -9 the victim at every protocol state: outputs never change."""

    @pytest.mark.parametrize("state", sorted(PROTOCOL_STATES))
    def test_crash_is_absorbed_bit_identically(self, state, baseline):
        hit = PROTOCOL_STATES[state]
        outputs, succeeded, metrics = _run_with_victim(
            f"remote.node.crash=crash@{hit}", node_timeout=10.0
        )
        np.testing.assert_array_equal(outputs, baseline)
        assert succeeded.all()
        assert metrics.counter("remote.node_deaths").value >= 1
        assert metrics.counter("remote.degraded_queries").value == 0
        reassigned = metrics.counter("remote.reassigned_shards").value
        if state == "combine-between-partials":
            # The victim delivered its first PARTIAL before dying: only
            # the second shard needs a new home.
            assert reassigned == 1
        elif state in ("dispatch-execute", "combine-before-first-partial"):
            # Dispatch demonstrably completed (the victim processed the
            # EXECUTE), so both its shards go through re-assignment.
            assert reassigned == 2
        else:
            # Early crashes race TCP buffering: the coordinator may see
            # the death during dispatch (shards adopted pre-assignment,
            # not counted as re-assigned) or during collect (counted).
            assert reassigned in (0, 2)


class TestNodeHangMatrix:
    """A wedged node (alive TCP, no frames) trips the liveness deadline."""

    @pytest.mark.parametrize(
        "state",
        ["registration-first-segment", "dispatch-execute", "combine-before-first-partial"],
    )
    def test_hang_is_absorbed_bit_identically(self, state, baseline):
        hit = PROTOCOL_STATES[state]
        outputs, succeeded, metrics = _run_with_victim(
            f"remote.node.hang=hang@{hit}", node_timeout=1.0
        )
        np.testing.assert_array_equal(outputs, baseline)
        assert succeeded.all()
        assert metrics.counter("remote.node_deaths").value >= 1
        assert metrics.counter("remote.reassigned_shards").value == 2
        assert metrics.counter("remote.degraded_queries").value == 0


class TestNodeSlowMatrix:
    """Slowness alone must never change bits or trigger re-assignment."""

    @pytest.mark.parametrize("state", ["dispatch-execute", "combine-between-partials"])
    def test_slow_node_changes_nothing(self, state, baseline):
        hit = PROTOCOL_STATES[state]
        outputs, succeeded, metrics = _run_with_victim(
            f"remote.node.slow=slow@{hit}",
            node_timeout=max(10.0, failpoints.SLOW_SECONDS * 40),
        )
        np.testing.assert_array_equal(outputs, baseline)
        assert succeeded.all()
        assert metrics.counter("remote.node_deaths").value == 0
        assert metrics.counter("remote.reassigned_shards").value == 0


class TestCoordinatorSendFaults:
    """Injected failures on the coordinator's own sends.

    Nodes are subprocesses here so the in-process failpoints hit *only*
    coordinator writes, keeping ``@N`` deterministic.  The coordinator's
    send sequence for two nodes is: HELLO(1), SEGMENT(2), SEGMENT(3),
    PLAN(4), EXECUTE(5) to node 0, then HELLO(6) ... EXECUTE(10) to
    node 1.
    """

    @pytest.mark.parametrize("site", ["remote.send.pre", "remote.send.torn", "remote.send.post"])
    @pytest.mark.parametrize("hit", [2, 4, 5], ids=["segment", "plan", "execute"])
    def test_send_fault_is_absorbed_bit_identically(self, site, hit, baseline):
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=2,
            node_spawn="process",
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=10.0,
        )
        try:
            failpoints.arm(site, "error", fire_on_hit=hit)
            _, batch = backend.run_sharded(PROGRAM, _values(), SPEC)
        finally:
            failpoints.reset()
            backend.close()
        np.testing.assert_array_equal(batch.outputs, baseline)
        assert batch.succeeded.all()
        assert metrics.counter("remote.degraded_queries").value == 0


class TestQuorumDegrade:
    """No node can answer: finite, data-independent fallback — no raise."""

    def test_unreachable_cluster_degrades_to_fallback(self, baseline):
        metrics = MetricsRegistry()
        # Nobody listens on these ports: every dial fails instantly.
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=["127.0.0.1:1", "127.0.0.1:2"],
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=1.0,
        )
        try:
            _, batch = backend.run_sharded(PROGRAM, _values(), SPEC)
        finally:
            backend.close()
        assert not batch.succeeded.any()
        np.testing.assert_array_equal(
            batch.outputs, np.full_like(batch.outputs, FALLBACK)
        )
        assert metrics.counter("remote.degraded_queries").value == 1
        assert metrics.counter("remote.fallback_shards").value == SHARDS

    def test_whole_cluster_crash_degrades_to_fallback(self, baseline):
        # Every node crashes on its first frame: dispatch, adoption and
        # retry all fail, and every shard resolves to fallback.
        metrics = MetricsRegistry()
        victims = [_spawn_victim("remote.node.crash=crash@1") for _ in range(2)]
        try:
            backend = RemoteShardBackend(
                shards=SHARDS,
                nodes=[address for _, address in victims],
                metrics=metrics,
                heartbeat_interval=None,
                node_timeout=5.0,
            )
            try:
                _, batch = backend.run_sharded(PROGRAM, _values(), SPEC)
            finally:
                backend.close()
        finally:
            for process, _ in victims:
                process.kill()
                process.wait(timeout=5.0)
        assert not batch.succeeded.any()
        np.testing.assert_array_equal(
            batch.outputs, np.full_like(batch.outputs, FALLBACK)
        )
        assert metrics.counter("remote.degraded_queries").value == 1
        assert metrics.counter("remote.fallback_shards").value == SHARDS


class TestRecoveryBetweenQueries:
    """Death between queries: heartbeat detection, re-dial, re-push."""

    def test_heartbeat_detects_dead_node(self):
        victim, victim_address = _spawn_victim("")  # healthy, no arming
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=[victim_address],
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=2.0,
        )
        try:
            _, batch = backend.run_sharded(PROGRAM, _values(), SPEC)
            assert batch.succeeded.all()
            assert backend.heartbeat_once() == [True]
            victim.kill()
            victim.wait(timeout=5.0)
            assert backend.heartbeat_once() == [False]
            assert metrics.counter("remote.node_deaths").value == 1
            # The dropped slot reports dead without re-dialing...
            assert backend.heartbeat_once() == [False]
        finally:
            backend.close()
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=5.0)

    def test_query_after_node_death_reconnects_and_repushes(self, baseline):
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=2,
            node_spawn="process",
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=10.0,
        )
        try:
            _, first = backend.run_sharded(PROGRAM, _values(), SPEC)
            assert first.succeeded.all()
            # Kill node 0 between queries; the next dispatch re-dials,
            # fails, and hands its shards to the survivor with a fresh
            # segment push.
            backend._cluster._processes[0].kill()
            backend._cluster._processes[0].wait(timeout=5.0)
            backend._drop_session(0)
            _, second = backend.run_sharded(PROGRAM, _values(), SPEC)
        finally:
            backend.close()
        np.testing.assert_array_equal(first.outputs, baseline)
        np.testing.assert_array_equal(second.outputs, baseline)
        assert second.succeeded.all()
        assert metrics.counter("remote.degraded_queries").value == 0


class TestSegmentEviction:
    """Dataset rotation past an LRU capacity must re-push, not degrade.

    ``session.held`` is a cache of pushes, not a lease: when either side
    evicts a dataset the coordinator must re-push instead of trusting
    node residency — silently substituting fallback rows for resident-
    looking shards would break bit-identity with the in-process engine.
    """

    def _rotation_specs(self, count: int):
        from dataclasses import replace

        return [replace(SPEC, dataset=f"rotate-{i}") for i in range(count)]

    def test_coordinator_eviction_forgets_pushes(self, baseline):
        # Coordinator LRU of 1, node LRU at its default of 4, rotating 5
        # datasets: both sides evict constantly, and every eviction must
        # translate into a fresh push on the dataset's return.
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=1,
            resident_datasets=1,
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=10.0,
        )
        values = _values()
        try:
            for _ in range(2):
                for spec in self._rotation_specs(5):
                    _, batch = backend.run_sharded(PROGRAM, values, spec)
                    np.testing.assert_array_equal(batch.outputs, baseline)
                    assert batch.succeeded.all()
        finally:
            backend.close()
        assert metrics.counter("remote.degraded_queries").value == 0
        assert metrics.counter("remote.fallback_shards").value == 0

    def test_node_side_eviction_triggers_repush_retry(self, baseline):
        # The inverse skew: the coordinator retains both datasets but
        # the node's segment LRU (capacity 1) evicted the first.  The
        # node's PARTIAL_MISSING(no_segment) must be taken as a cue to
        # re-push and re-execute, not as a shrug into fallback rows.
        from repro.runtime.remote import ShardNodeServer

        metrics = MetricsRegistry()
        node = ShardNodeServer(resident_datasets=1)
        host, port = node.start()
        values = _values()
        spec_a, spec_b = self._rotation_specs(2)
        try:
            backend = RemoteShardBackend(
                shards=SHARDS,
                nodes=[f"{host}:{port}"],
                resident_datasets=8,
                metrics=metrics,
                heartbeat_interval=None,
                node_timeout=10.0,
            )
            try:
                for spec in (spec_a, spec_b, spec_a):
                    _, batch = backend.run_sharded(PROGRAM, values, spec)
                    np.testing.assert_array_equal(batch.outputs, baseline)
                    assert batch.succeeded.all()
            finally:
                backend.close()
        finally:
            node.stop()
        # Every shard of the returning dataset was disclaimed once and
        # healed by a re-push — never a death, never a fallback.
        assert metrics.counter("remote.repushed_shards").value == SHARDS
        assert metrics.counter("remote.node_deaths").value == 0
        assert metrics.counter("remote.degraded_queries").value == 0


class TestPartialAssignmentGating:
    """Only the node a shard is assigned to may answer for it."""

    def _harness(self):
        from repro.core.blocks import shard_block_counts
        from repro.runtime.remote import wire

        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=["127.0.0.1:1", "127.0.0.1:2"],  # never dialed here
            metrics=MetricsRegistry(),
            heartbeat_interval=None,
        )
        counts = shard_block_counts(
            SPEC.num_records, SPEC.block_size, SPEC.resampling_factor, SPEC.shards
        )
        bases = np.zeros(SHARDS + 1, dtype=np.int64)
        np.cumsum(counts, out=bases[1:])
        total = int(bases[-1])
        state = {
            "bases": bases,
            "counts": counts,
            "outputs": np.full((total, SPEC.output_dimension), 123.0),
            "succeeded": np.zeros(total, dtype=bool),
            "filled": np.zeros(SHARDS, dtype=bool),
        }

        def partial_frame(shard: int):
            rows = int(counts[shard])
            body = (
                np.zeros((rows, SPEC.output_dimension)).tobytes() + b"\x01" * rows
            )
            return wire.Frame(
                kind=wire.PARTIAL,
                header={
                    "qid": 1,
                    "shard": shard,
                    "shape": [rows, SPEC.output_dimension],
                    "elapsed": 0.0,
                },
                body=body,
            )

        def apply(index, frame, pending):
            backend._apply_frame(
                index, frame, 1, SPEC, state["bases"], state["counts"],
                state["outputs"], state["succeeded"], state["filled"],
                pending, {}, (SPEC.dataset, SPEC.version),
                np.zeros((SPEC.num_records, 1)), set(), PROGRAM,
                MetricsRegistry(),
            )

        return backend, state, partial_frame, apply

    def test_partial_for_unassigned_shard_is_ignored(self):
        backend, state, partial_frame, apply = self._harness()
        try:
            # Node 0 owes shards {0, 1} but claims shard 2 (node 1's):
            # the claim must not clobber anything.
            apply(0, partial_frame(2), {0: {0, 1}, 1: {2, 3}})
            assert not state["filled"].any()
            assert (state["outputs"] == 123.0).all()
        finally:
            backend.close()

    def test_partial_from_non_owner_node_is_ignored(self):
        backend, state, partial_frame, apply = self._harness()
        try:
            # Node 1 owes nothing for shard 0; only node 0's answer lands.
            apply(1, partial_frame(0), {0: {0, 1}})
            assert not state["filled"].any()
            apply(0, partial_frame(0), {0: {0, 1}})
            assert state["filled"][0]
            assert (state["outputs"][: int(state["counts"][0])] == 0.0).all()
        finally:
            backend.close()


class TestHeartbeatIntegrity:
    """Heartbeat regressions: PONG replay and per-round accounting."""

    def test_replayed_pong_token_is_not_accepted(self):
        """A node replaying an old PONG must be dropped, not trusted.

        Every PING carries a fresh token and the PONG must echo exactly
        that token — a wedged node stuck re-sending its last answer (or
        a middlebox duplicating frames) can no longer vouch for a dead
        session by replaying a stale PONG.
        """
        import socket
        import threading

        from repro.runtime.remote import wire

        ready = threading.Event()
        box: dict = {}

        def replaying_node():
            listener = socket.create_server(("127.0.0.1", 0))
            box["address"] = listener.getsockname()
            ready.set()
            conn, _ = listener.accept()
            listener.close()
            try:
                hello = wire.read_frame(conn, timeout=5.0)
                assert hello.kind == wire.HELLO
                wire.send_frame(
                    conn,
                    wire.WELCOME,
                    {
                        "protocol": wire.REMOTE_PROTOCOL_VERSION,
                        "shards_held": 0,
                        "manifests": [],
                        "authenticated": False,
                    },
                )
                stale = None
                while True:
                    frame = wire.read_frame(conn, timeout=5.0)
                    if frame.kind != wire.PING:
                        break
                    if stale is None:
                        stale = frame.header["token"]
                    # Honest echo once, then replay the stale token.
                    wire.send_frame(conn, wire.PONG, {"token": stale})
            except (OSError, wire.FrameError):
                pass
            finally:
                conn.close()

        thread = threading.Thread(target=replaying_node, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=["{0}:{1}".format(*box["address"])],
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=2.0,
        )
        try:
            assert backend._session(0) is not None
            # Round 1: the echoed token matches (it *is* the fresh one).
            assert backend.heartbeat_once() == [True]
            # Round 2: the node replays round 1's token -> dropped.
            assert backend.heartbeat_once() == [False]
            assert backend._sessions[0] is None
            assert metrics.counter("remote.node_deaths").value == 1
        finally:
            backend.close()
            thread.join(timeout=5.0)

    def test_heartbeats_count_rounds_not_node_slots(self):
        """``remote.heartbeats`` tracks probing cadence, not cluster size."""
        from repro.runtime.remote import ShardNodeServer

        nodes = [ShardNodeServer(), ShardNodeServer()]
        addresses = ["{0}:{1}".format(*n.start()) for n in nodes]
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=addresses,
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=5.0,
        )
        try:
            # No session connected yet: the round sends no PING at all
            # and must not count as a heartbeat.
            assert backend.heartbeat_once() == [False, False]
            assert metrics.counter("remote.heartbeats").value == 0
            for index in range(2):
                assert backend._session(index) is not None
            for round_number in range(1, 4):
                assert backend.heartbeat_once() == [True, True]
                assert (
                    metrics.counter("remote.heartbeats").value == round_number
                ), "one increment per round, not one per node slot"
        finally:
            backend.close()
            for node in nodes:
                node.stop()


class TestCuratorDeath:
    """A dead curator degrades its shards to fallback — never an exception."""

    def test_curator_death_degrades_to_fallback_rows(self, baseline):
        from dataclasses import replace

        from repro.datasets.table import FederatedValues
        from repro.runtime.remote import ShardNodeServer

        values = _values()
        spec = replace(SPEC, dataset="curated-fault-data")
        # Two curators holding the halves: bases 0 and 200 both land on
        # shard_offsets(400, 4) boundaries, so each owns 2 whole shards.
        curators = [
            ShardNodeServer(curated={spec.dataset: values[:200]}),
            ShardNodeServer(curated={spec.dataset: values[200:]}),
        ]
        addresses = ["{0}:{1}".format(*c.start()) for c in curators]
        metrics = MetricsRegistry()
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=addresses,
            metrics=metrics,
            heartbeat_interval=None,
            node_timeout=5.0,
        )
        proxy = FederatedValues(spec.num_records, 1)
        try:
            geometry = backend.federate(spec.dataset)
            assert geometry["num_records"] == spec.num_records
            _, healthy = backend.run_sharded(PROGRAM, proxy, spec)
            assert healthy.succeeded.all()
            np.testing.assert_array_equal(healthy.outputs, baseline)
            # Kill the first curator between queries.  Its rows exist
            # nowhere else: the survivor cannot adopt them, and the
            # query must degrade those shards to fallback, not raise.
            curators[0].stop()
            _, degraded = backend.run_sharded(PROGRAM, proxy, spec)
        finally:
            backend.close()
            for curator in curators[1:]:
                curator.stop()
        assert degraded.succeeded.any(), "the survivor's shards still answer"
        assert not degraded.succeeded.all(), "the dead curator's shards cannot"
        np.testing.assert_array_equal(
            degraded.outputs[degraded.succeeded], baseline[degraded.succeeded]
        )
        np.testing.assert_array_equal(
            degraded.outputs[~degraded.succeeded],
            np.full_like(degraded.outputs[~degraded.succeeded], FALLBACK),
        )
        assert metrics.counter("remote.degraded_queries").value == 1
        assert metrics.counter("remote.fallback_shards").value == 2
