"""Bench: vectorized fast path vs per-block chamber dispatch.

The vectorized backend answers a batch-capable query with one NumPy
call over the stacked ``(l, beta, d)`` materialization instead of ``l``
chamber round-trips.  This bench times the same seeded mean query on
the ``serial`` and ``vectorized`` backends — the first (cold) run and
the best of ``REPEATS`` warm repeats, each drawing and gathering its
plan afresh — and writes ``BENCH_vectorized.json``.

Two claims are asserted:

* releases are bit-for-bit identical across backends and repeats
  (same seed -> same plan draw, same block outputs, same noise draw);
* at n >= 1e5 records the warm vectorized query is >= 10x faster than
  serial per-block dispatch.

``VECTORIZED_SCALE=smoke`` shrinks the sweep for CI and skips the 10x
assertion, which needs realistic record counts to be meaningful.
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

SEED = 31337
QUERY_SEED = 777
BLOCK_SIZE = 100
EPSILON = 0.5
REPEATS = 3


def _build_runtime(num_records: int, backend: str, registry: MetricsRegistry):
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.0, 100.0, size=(num_records, 1))
    manager = DatasetManager()
    manager.register(
        "bench",
        DataTable(values, input_ranges=[(0.0, 100.0)]),
        total_budget=1000.0,
    )
    return GuptRuntime(manager, rng=SEED, backend=backend, metrics=registry)


def _time_query(runtime) -> tuple[float, tuple[float, ...]]:
    started = time.perf_counter()
    result = runtime.run(
        "bench",
        Mean(),
        TightRange((0.0, 100.0)),
        epsilon=EPSILON,
        block_size=BLOCK_SIZE,
        rng=QUERY_SEED,
    )
    seconds = time.perf_counter() - started
    return seconds, tuple(float(v) for v in result.value)


def _run_backend(num_records: int, backend: str) -> dict:
    registry = MetricsRegistry()
    runtime = _build_runtime(num_records, backend, registry)
    try:
        cold_seconds, cold_value = _time_query(runtime)
        warm_seconds, warm_value = min(
            (_time_query(runtime) for _ in range(REPEATS)), key=lambda t: t[0]
        )
    finally:
        runtime.close()
    assert cold_value == warm_value, "a repeat changed the release"
    counters = registry.snapshot()["counters"]
    if backend == "vectorized":
        # Prove the fast path actually ran — not a silent chamber fallback.
        assert counters.get("vectorized.batches", 0) >= 1 + REPEATS
    return {
        "backend": backend,
        "records": num_records,
        "blocks": num_records // BLOCK_SIZE,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "value": list(cold_value),
    }


def test_vectorized_dispatch():
    smoke = os.environ.get("VECTORIZED_SCALE", "full") == "smoke"
    record_counts = [2_000] if smoke else [10_000, 100_000]

    rows = []
    for num_records in record_counts:
        for backend in ("serial", "vectorized"):
            row = _run_backend(num_records, backend)
            rows.append(row)
            print(
                f"\n{backend:>12} n={num_records:>7} "
                f"cold {row['cold_seconds'] * 1e3:8.1f} ms  "
                f"warm {row['warm_seconds'] * 1e3:8.1f} ms  "
                f"value={row['value'][0]:.6f}"
            )

    # Bit-identical releases across backends at every size.
    for num_records in record_counts:
        values = {tuple(r["value"]) for r in rows if r["records"] == num_records}
        assert len(values) == 1, f"backends disagree at n={num_records}: {values}"

    speedups = {}
    for num_records in record_counts:
        at_n = {r["backend"]: r["warm_seconds"] for r in rows if r["records"] == num_records}
        speedups[str(num_records)] = at_n["serial"] / at_n["vectorized"]

    write_bench(
        "vectorized",
        "smoke" if smoke else "full",
        bench="vectorized_dispatch",
        payload={
            "results": rows,
            "warm_speedup_vs_serial": speedups,
            "identical_released_values": True,
        },
        params={
            "block_size": BLOCK_SIZE,
            "epsilon": EPSILON,
            "seed": SEED,
            "query_seed": QUERY_SEED,
        },
    )
    print(f"\nwarm vectorized speedup vs serial: {speedups}")

    if not smoke:
        at_max = max(record_counts)
        assert at_max >= 100_000
        assert speedups[str(at_max)] >= 10.0, (
            f"vectorized only {speedups[str(at_max)]:.1f}x faster than serial "
            f"at n={at_max}"
        )
