"""Bench: remote shard execution — the TCP transport's cost and scaling.

Sweeps node counts for the remote backend (in-thread nodes and real
``repro shard-node`` subprocesses) against the in-process sharded and
vectorized baselines at a fixed public shard count, and writes
``BENCH_remote.json``.

Two claims are asserted:

* releases are bit-for-bit identical across every transport and node
  count at the same ``S`` — the network is execution geometry, exactly
  like worker count;
* segment residency amortizes: after the cold query pushes each shard's
  rows once, warm queries move only plans, programs and ``(l_s, p)``
  partials, so ``remote.segment_pushes`` stays at ``S`` across repeats.

``REMOTE_SCALE=smoke`` shrinks the sweep for CI.  TCP on one box is
strictly overhead versus the socketpairs of the sharded backend's
forked nodes — the interesting numbers are the per-query wire cost
(warm remote vs warm sharded) and the cold-vs-warm gap (segment push
amortization), both recorded in the report; no speedup is asserted.
"""

import os
import time

import numpy as np
from common import write_bench

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import RemoteShardBackend

SEED = 90210
QUERY_SEED = 1234
BLOCK_SIZE = 100
EPSILON = 0.5
REPEATS = 3


def _manager(num_records: int) -> DatasetManager:
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.0, 100.0, size=(num_records, 1))
    manager = DatasetManager()
    manager.register(
        "bench",
        DataTable(values, input_ranges=[(0.0, 100.0)]),
        total_budget=1000.0,
    )
    return manager


def _time_query(runtime: GuptRuntime) -> tuple[float, tuple[float, ...]]:
    started = time.perf_counter()
    result = runtime.run(
        "bench",
        Mean(),
        TightRange((0.0, 100.0)),
        epsilon=EPSILON,
        block_size=BLOCK_SIZE,
        rng=QUERY_SEED,
    )
    return time.perf_counter() - started, tuple(float(v) for v in result.value)


def _run_config(num_records: int, label: str, shards: int, *,
                backend: str | None = None, workers: int | None = None,
                nodes: int | None = None, node_spawn: str | None = None) -> dict:
    registry = MetricsRegistry()
    manager = _manager(num_records)
    remote = None
    if node_spawn == "process":
        remote = RemoteShardBackend(
            shards=shards, nodes=nodes, node_spawn="process",
            metrics=registry, heartbeat_interval=None,
        )
        computation = ComputationManager(
            backend="remote", shards=shards, max_workers=nodes or 1,
            sharded=remote, metrics=registry,
        )
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=SEED, metrics=registry
        )
    else:
        runtime = GuptRuntime(
            manager, rng=SEED, backend=backend, workers=workers,
            shards=shards, nodes=nodes, metrics=registry,
        )
    try:
        cold_seconds, cold_value = _time_query(runtime)
        warm_seconds, warm_value = min(
            (_time_query(runtime) for _ in range(REPEATS)), key=lambda t: t[0]
        )
    finally:
        runtime.close()
        if remote is not None:
            remote.close()
    assert cold_value == warm_value, "repeat queries changed the release"
    counters = registry.snapshot()["counters"]
    if backend == "remote" or node_spawn == "process":
        assert counters.get("remote.queries", 0) >= 1 + REPEATS
        assert counters.get("remote.degraded_queries", 0) == 0
        # Residency: rows crossed the wire exactly once per shard.
        assert counters.get("remote.segment_pushes", 0) == shards
    return {
        "transport": label,
        "nodes": nodes,
        "workers": workers,
        "shards": shards,
        "records": num_records,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "value": list(cold_value),
    }


def test_remote_scaling():
    smoke = os.environ.get("REMOTE_SCALE", "full") == "smoke"
    if smoke:
        num_records, shards, node_counts = 2_000, 4, [1, 2]
    else:
        num_records, shards, node_counts = 1_000_000, 8, [1, 2, 4]

    rows = [
        _run_config(num_records, "vectorized", shards, backend="vectorized"),
        _run_config(
            num_records, "sharded-K2", shards, backend="sharded", workers=2
        ),
    ]
    for n in node_counts:
        rows.append(
            _run_config(
                num_records, f"remote-thread-N{n}", shards,
                backend="remote", nodes=n,
            )
        )
    rows.append(
        _run_config(
            num_records, "remote-process-N2", shards,
            nodes=2, node_spawn="process",
        )
    )

    for row in rows:
        print(
            f"\n{row['transport']:>18} n={row['records']:>8} S={row['shards']} "
            f"cold {row['cold_seconds'] * 1e3:8.1f} ms  "
            f"warm {row['warm_seconds'] * 1e3:8.1f} ms  "
            f"value={row['value'][0]:.6f}"
        )

    values = {tuple(r["value"]) for r in rows}
    assert len(values) == 1, f"transports disagree: {values}"

    warm = {r["transport"]: r["warm_seconds"] for r in rows}
    best_remote = min(v for k, v in warm.items() if k.startswith("remote"))
    wire_overhead = best_remote / warm["sharded-K2"]
    amortization = {
        r["transport"]: r["cold_seconds"] / r["warm_seconds"]
        for r in rows if r["transport"].startswith("remote")
    }

    write_bench(
        "remote",
        "smoke" if smoke else "full",
        bench="remote_scaling",
        payload={
            "results": rows,
            "identical_released_values": True,
            "wire_overhead_vs_sharded": wire_overhead,
            "cold_over_warm_by_transport": amortization,
        },
        params={
            "block_size": BLOCK_SIZE,
            "epsilon": EPSILON,
            "shards": shards,
            "records": num_records,
            "node_counts": node_counts,
            "repeats": REPEATS,
            "seed": SEED,
            "query_seed": QUERY_SEED,
        },
    )
    print(f"\nwire overhead (best warm remote / warm sharded): {wire_overhead:.2f}x")
