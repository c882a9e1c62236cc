"""Soak test: sustained seeded queries against a real multi-node cluster.

Runs a coordinator against ``repro shard-node`` subprocesses for a
wall-clock duration taken from ``REPRO_SOAK_SECONDS`` (default 2 so the
tier-1 run stays fast; the CI distributed job sets 30), alternating
between two query plans, and asserts *continuous* bit-identity: every
single release over the whole soak must equal an independent
block-by-block replay of the same plan, byte for byte.

Halfway through, one node is killed outright.  The cluster must carry
on — surviving nodes adopt the orphaned shards by replaying
``spawn(plan_seed, S)[s]`` — and the releases before and after the kill
must be indistinguishable.  No query may ever degrade to fallback rows
while at least one node survives.

Heartbeats run at a short interval throughout, so node death is also
detected on the background path, not just at dispatch time.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.shard import ShardQuerySpec

from tests.shard_reference import reference_outputs

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "2"))
SRC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEED = 20120520  # GUPT's SIGMOD year, mostly
SHARDS = 6
NODES = 3
PLAN_SEEDS = (271828, 314159)  # alternate between two distinct plans

PROGRAM = pickle.dumps(Mean())


def _spec(plan_seed: int) -> ShardQuerySpec:
    return ShardQuerySpec(
        dataset="soak-data",
        version=1,
        num_records=600,
        block_size=20,
        resampling_factor=1,
        plan_seed=plan_seed,
        shards=SHARDS,
        output_dimension=1,
        fallback=(-1.0,),  # outside [0, 100]: fallback rows are unmistakable
        clamp_lo=(0.0,),
        clamp_hi=(100.0,),
    )


def _values() -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(600, 1))


def _spawn_node() -> tuple[subprocess.Popen, str]:
    """One healthy ``repro shard-node`` subprocess on an ephemeral port.

    Anti-flake convention (see DESIGN.md): the node binds port 0 and
    announces ``LISTENING host port`` strictly after the listener is up;
    we block on that line instead of racing a pre-picked port.
    """
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (SRC_PATH, os.environ.get("PYTHONPATH")) if p
        ),
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
    assert parts and parts[0] == "LISTENING", f"node failed to start: {line!r}"
    return process, f"{parts[1]}:{parts[2]}"


def test_remote_cluster_soak_with_mid_soak_node_kill():
    values = _values()
    baselines = {
        plan_seed: reference_outputs(PROGRAM, values, _spec(plan_seed))
        for plan_seed in PLAN_SEEDS
    }

    nodes = [_spawn_node() for _ in range(NODES)]
    metrics = MetricsRegistry()
    queries = 0
    killed = False
    try:
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=[address for _, address in nodes],
            metrics=metrics,
            heartbeat_interval=0.25,
            node_timeout=10.0,
        )
        try:
            deadline = time.monotonic() + SOAK_SECONDS
            halfway = time.monotonic() + SOAK_SECONDS / 2.0
            while True:
                # A short idle gap between queries: realistic traffic,
                # and it leaves windows where the dispatch lock is free
                # so the background heartbeat (which skips rounds while
                # a query is in flight) actually gets to probe.
                time.sleep(0.02)
                plan_seed = PLAN_SEEDS[queries % len(PLAN_SEEDS)]
                _, batch = backend.run_sharded(PROGRAM, values, _spec(plan_seed))
                queries += 1
                assert batch.succeeded.all(), (
                    f"query {queries} degraded (killed={killed})"
                )
                np.testing.assert_array_equal(
                    batch.outputs, baselines[plan_seed],
                    err_msg=f"query {queries} drifted (killed={killed})",
                )
                now = time.monotonic()
                if not killed and now >= halfway:
                    nodes[0][0].kill()
                    nodes[0][0].wait(timeout=10.0)
                    killed = True
                # Run at least one query on each side of the kill even if
                # the clock has already expired (slow CI machines).
                if now >= deadline and killed and queries >= 4:
                    break
        finally:
            backend.close()
    finally:
        for process, _ in nodes:
            process.kill()
        for process, _ in nodes:
            process.wait(timeout=10.0)

    counters = metrics.snapshot()["counters"]
    assert queries >= 4
    assert killed, "soak never reached the kill point"
    assert counters.get("remote.node_deaths", 0) >= 1
    # Adoption evidence: the dead node's shards were re-pushed to the
    # survivors, so strictly more than S segment pushes crossed the wire.
    # (remote.reassigned_shards only counts deaths detected mid-collect;
    # here the heartbeat thread usually wins that race.)
    assert counters.get("remote.segment_pushes", 0) > SHARDS
    assert counters.get("remote.degraded_queries", 0) == 0
    assert counters.get("remote.fallback_shards", 0) == 0
    # The heartbeat thread was alive the whole soak.
    assert counters.get("remote.heartbeats", 0) >= 1


def _spawn_curator(
    tmp_path, name: str, rows: np.ndarray, dataset: str, secret: str
) -> tuple[subprocess.Popen, str]:
    """One authenticated curator subprocess loading its own ``--data``."""
    data_path = os.path.join(str(tmp_path), f"{name}.npy")
    np.save(data_path, rows)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (SRC_PATH, os.environ.get("PYTHONPATH")) if p
        ),
    }
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "shard-node", "127.0.0.1:0",
            "--data", data_path, "--dataset", dataset, "--secret", secret,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    parts = line.split()
    assert parts and parts[0] == "LISTENING", f"curator failed to start: {line!r}"
    return process, f"{parts[1]}:{parts[2]}"


def test_two_curator_soak_stays_bit_identical_and_pushes_nothing(tmp_path):
    """Sustained queries against two authenticated curator subprocesses.

    The curators load their own rows from disk (``--data``), authenticate
    the coordinator (``--secret``), and answer partials for their own
    halves.  Every release over the soak must equal an independent
    replay of the plan byte for byte, and — the curator-mode boundary —
    not a single segment push may cross the wire for the whole soak.
    """
    from repro.datasets.table import FederatedValues

    secret = "soak-secret"
    dataset = "soak-fed"
    values = _values()
    baselines = {
        plan_seed: reference_outputs(PROGRAM, values, _spec(plan_seed))
        for plan_seed in PLAN_SEEDS
    }

    curators = [
        _spawn_curator(tmp_path, "north", values[:300], dataset, secret),
        _spawn_curator(tmp_path, "south", values[300:], dataset, secret),
    ]
    metrics = MetricsRegistry()
    proxy = FederatedValues(600, 1)
    queries = 0
    try:
        backend = RemoteShardBackend(
            shards=SHARDS,
            nodes=[address for _, address in curators],
            metrics=metrics,
            heartbeat_interval=0.25,
            node_timeout=10.0,
            secret=secret,
        )
        try:
            geometry = backend.federate(dataset)
            assert geometry["node_rows"] == (300, 300)
            deadline = time.monotonic() + SOAK_SECONDS
            while True:
                time.sleep(0.02)
                plan_seed = PLAN_SEEDS[queries % len(PLAN_SEEDS)]
                spec = _spec(plan_seed)
                spec = type(spec)(**{**spec.__dict__, "dataset": dataset})
                _, batch = backend.run_sharded(PROGRAM, proxy, spec)
                queries += 1
                assert batch.succeeded.all(), f"query {queries} degraded"
                np.testing.assert_array_equal(
                    batch.outputs, baselines[plan_seed],
                    err_msg=f"query {queries} drifted",
                )
                if time.monotonic() >= deadline and queries >= 4:
                    break
        finally:
            backend.close()
    finally:
        for process, _ in curators:
            process.kill()
        for process, _ in curators:
            process.wait(timeout=10.0)

    counters = metrics.snapshot()["counters"]
    assert queries >= 4
    # The curator-mode wire boundary, held for the whole soak: the
    # coordinator pushed nothing, ever.
    assert counters.get("remote.segment_pushes", 0) == 0
    assert counters.get("remote.degraded_queries", 0) == 0
    assert counters.get("remote.fallback_shards", 0) == 0
    assert counters.get("remote.node_deaths", 0) == 0
    assert counters.get("remote.heartbeats", 0) >= 1
