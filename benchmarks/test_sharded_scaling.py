"""Bench: sharded execution engine — scaling past one process.

The sharded backend splits a registered dataset into ``S`` contiguous
logical shards owned by ``K`` forked local node processes (reached over
socketpairs), plans and executes blocks shard-locally, and ships only
the clamped ``(l_s, p)`` block-output partials back to the coordinator.  This bench sweeps
worker counts at a fixed public shard count against the single-process
baselines and writes ``BENCH_sharded.json``.

Two claims are asserted:

* releases are bit-for-bit identical across backends at the same ``S``
  and across every worker count ``K`` (logical shards are the public
  plan parameter; physical workers never touch the released bits);
* at full scale (1e7 records, S=8) on a host with >= 8 cores, the warm
  sharded query at the best ``K`` beats the single-process vectorized
  fast path by >= 3x.

``SHARDED_SCALE=smoke`` shrinks the sweep for CI and skips the speedup
assertion, which is meaningless on starved CI cores (the envelope's
``host.cpu_count`` records what the numbers were bounded by).
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

SEED = 90210
QUERY_SEED = 1234
BLOCK_SIZE = 100
EPSILON = 0.5
REPEATS = 3
SPEEDUP_FLOOR = 3.0


def _build_runtime(num_records: int, backend: str, workers: int | None,
                   shards: int, registry: MetricsRegistry) -> GuptRuntime:
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.0, 100.0, size=(num_records, 1))
    manager = DatasetManager()
    manager.register(
        "bench",
        DataTable(values, input_ranges=[(0.0, 100.0)]),
        total_budget=1000.0,
    )
    return GuptRuntime(
        manager, rng=SEED, backend=backend, workers=workers,
        shards=shards, metrics=registry,
    )


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


def _run_config(num_records: int, backend: str, workers: int | None,
                shards: int) -> dict:
    registry = MetricsRegistry()
    runtime = _build_runtime(num_records, backend, workers, shards, registry)
    try:
        cold_seconds, cold_value = _time_query(runtime)
        warm_seconds, warm_value = min(
            (_time_query(runtime) for _ in range(REPEATS)), key=lambda t: t[0]
        )
    finally:
        runtime.close()
    assert cold_value == warm_value, "cache state changed the release"
    counters = registry.snapshot()["counters"]
    if backend == "sharded":
        # Prove the partials-only fast path ran — no silent degrade.
        assert counters.get("remote.queries", 0) >= 1 + REPEATS
        assert not any(k.startswith("sharded.fallbacks") for k in counters)
    return {
        "backend": backend,
        "workers": workers,
        "shards": shards,
        "records": num_records,
        "blocks": (num_records // shards) // BLOCK_SIZE * shards,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "value": list(cold_value),
    }


def test_sharded_scaling():
    smoke = os.environ.get("SHARDED_SCALE", "full") == "smoke"
    if smoke:
        record_counts, shards, worker_counts = [2_000], 4, [1, 2]
        configs = [("serial", None), ("vectorized", None)]
    else:
        # The issue-scale configuration: 1e7 records, 8 logical shards.
        # Serial per-block dispatch is omitted (1e5 chamber round-trips
        # adds nothing to the comparison that matters: sharded vs the
        # single-process vectorized fast path).
        record_counts, shards, worker_counts = [10_000_000], 8, [1, 2, 4, 8]
        configs = [("vectorized", None)]
    configs += [("sharded", k) for k in worker_counts]

    rows = []
    for num_records in record_counts:
        for backend, workers in configs:
            row = _run_config(num_records, backend, workers, shards)
            rows.append(row)
            label = backend if workers is None else f"{backend}-K{workers}"
            print(
                f"\n{label:>12} n={num_records:>8} S={shards} "
                f"cold {row['cold_seconds'] * 1e3:8.1f} ms  "
                f"warm {row['warm_seconds'] * 1e3:8.1f} ms  "
                f"value={row['value'][0]:.6f}"
            )

    # Bit-identical releases across every backend and worker count at
    # each size: the logical shard count S is the only execution knob
    # that reaches the released bits, and it is held fixed.
    for num_records in record_counts:
        values = {tuple(r["value"]) for r in rows if r["records"] == num_records}
        assert len(values) == 1, f"backends disagree at n={num_records}: {values}"

    speedups = {}
    for num_records in record_counts:
        at_n = {
            (r["backend"], r["workers"]): r["warm_seconds"]
            for r in rows if r["records"] == num_records
        }
        best_sharded = min(
            v for (backend, _), v in at_n.items() if backend == "sharded"
        )
        speedups[str(num_records)] = at_n[("vectorized", None)] / best_sharded

    write_bench(
        "sharded",
        "smoke" if smoke else "full",
        bench="sharded_scaling",
        payload={
            "results": rows,
            "sharded_speedup_vs_vectorized": speedups,
            "identical_released_values": True,
        },
        params={
            "block_size": BLOCK_SIZE,
            "epsilon": EPSILON,
            "shards": shards,
            "seed": SEED,
            "query_seed": QUERY_SEED,
        },
    )
    print(f"\nbest sharded speedup vs single-process vectorized: {speedups}")

    # The >= 3x claim needs real cores; on a starved host the sweep
    # still proves bit-identity and the envelope records cpu_count.
    if not smoke and (os.cpu_count() or 1) >= 8:
        at_max = max(record_counts)
        assert speedups[str(at_max)] >= SPEEDUP_FLOOR, (
            f"sharded only {speedups[str(at_max)]:.2f}x faster than "
            f"vectorized at n={at_max}"
        )
