"""The traced run's per-layer split.

Timers wrap public functions of each layer from the outside, patching
each name where the caller looks it up, and restore the originals when
the traced phase ends.  Counters and histograms the program already
keeps come from the ``MetricsRegistry`` handed to the service through
``metrics=``.  Every per-layer figure is a total over the traced phase
divided by the queries answered in it; timings of nested layers
overlap (``aging.block_outputs_ms`` runs inside
``block_size.search_ms``), so the figures are a split, not a sum.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


def _timed_targets():
    """``(owner, attribute, metric)`` for every wrapped layer function."""
    from repro.accounting.journal import BudgetJournal
    from repro.accounting.manager import BudgetReservation, RegisteredDataset
    from repro.core import gupt, sample_aggregate
    from repro.core.aging import AgedData
    from repro.core.block_size import BlockSizeSearch
    from repro.core.blocks import BlockPlan
    from repro.runtime.computation_manager import ComputationManager
    from repro.server.client import GuptClient

    return [
        (GuptClient, "submit", "http.submit_ms"),
        (GuptClient, "result", "http.result_ms"),
        (RegisteredDataset, "reserve", "budget.reserve_ms"),
        (BudgetReservation, "commit", "budget.commit_ms"),
        (BudgetJournal, "append", "journal.append_ms"),
        (BlockSizeSearch, "search", "block_size.search_ms"),
        # Looked up as a module global by GuptRuntime._resolve_epsilon.
        (gupt, "estimate_epsilon", "budget_estimation.estimate_ms"),
        (AgedData, "block_outputs", "aging.block_outputs_ms"),
        # Looked up as a module global by SampleAggregateEngine.
        (sample_aggregate, "draw_sharded_plan", "blocks.draw_ms"),
        (BlockPlan, "stack", "blocks.stack_ms"),
        (ComputationManager, "run_blocks_collected", "computation.run_blocks_ms"),
        (ComputationManager, "run_sharded_collected", "shard.run_ms"),
    ]


class LayerTimers:
    """Wall time spent inside each wrapped function, summed over calls."""

    def __init__(self):
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attribute, metric in _timed_targets():
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{owner}.{attribute} is not a plain function")
            self.seconds[metric] = 0.0
            setattr(owner, attribute, self._wrap(original, metric))
            self._patched.append((owner, attribute, original))

    def remove(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, metric: str):
        lock = self._lock
        totals = self.seconds

        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                with lock:
                    totals[metric] += elapsed

        return timed


def _total(section: dict, name: str, field: str | None = None) -> float:
    """Sum of every labelled series of ``name`` in one snapshot section."""
    total = 0.0
    for key, value in section.items():
        if key == name or key.startswith(name + "{"):
            total += value[field] if field else value
    return total


def registry_totals(snapshot: dict) -> dict[str, float]:
    """The program counters and histogram sums the split reads."""
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    totals = {
        name: _total(counters, name)
        for name in (
            "http.requests", "journal.fsyncs", "plan_cache.hits",
            "plan_cache.misses", "plan_cache.evictions", "vectorized.fallbacks",
            "sharded.fallbacks", "shard.dataset_pushes",
        )
    }
    for name in (
        "scheduler.wait_seconds", "scheduler.run_seconds",
        "shard.dispatch_seconds", "runtime.resolve.seconds",
        "runtime.sample.seconds", "runtime.range_estimation.seconds",
        "runtime.aggregate.seconds",
    ):
        totals[name] = _total(histograms, name, "sum")
    return totals


def per_layer_metrics(
    before: dict[str, float],
    after: dict[str, float],
    timers: LayerTimers,
    answered: int,
) -> dict[str, float]:
    """Per-answer layer figures from registry totals around the traced phase."""
    if answered < 1:
        raise ValueError("the traced phase answered no query")
    delta = {name: after[name] - before[name] for name in after}
    per_answer = {name: value / answered for name, value in delta.items()}
    lookups = delta["plan_cache.hits"] + delta["plan_cache.misses"]
    metrics = {
        metric: seconds * 1000.0 / answered
        for metric, seconds in timers.seconds.items()
    }
    metrics.update({
        "http.requests_per_answer": per_answer["http.requests"],
        "scheduler.wait_ms": per_answer["scheduler.wait_seconds"] * 1000.0,
        "scheduler.run_ms": per_answer["scheduler.run_seconds"] * 1000.0,
        "journal.fsyncs_per_answer": per_answer["journal.fsyncs"],
        "runtime.resolve_ms": per_answer["runtime.resolve.seconds"] * 1000.0,
        "runtime.sample_ms": per_answer["runtime.sample.seconds"] * 1000.0,
        "runtime.range_estimation_ms":
            per_answer["runtime.range_estimation.seconds"] * 1000.0,
        "runtime.aggregate_ms": per_answer["runtime.aggregate.seconds"] * 1000.0,
        "plan_cache.hit_ratio":
            delta["plan_cache.hits"] / lookups if lookups else 0.0,
        "plan_cache.evictions_per_answer": per_answer["plan_cache.evictions"],
        "vectorized.fallbacks_per_answer": per_answer["vectorized.fallbacks"],
        "shard.dispatch_ms": per_answer["shard.dispatch_seconds"] * 1000.0,
        # A level, not a rate: segment pushes the measured service made
        # since it was built (set-up included).
        "shard.dataset_pushes": after["shard.dataset_pushes"],
        "sharded.fallbacks_per_answer": per_answer["sharded.fallbacks"],
    })
    return metrics
