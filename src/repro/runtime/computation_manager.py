"""The computation manager: fans block executions out to chambers.

In the paper the computation manager is split into a *server* component
(receives the analyst's job, talks to the dataset manager) and a *client*
component on each cluster node (instantiates chambers, pipes data in,
collects outputs, forbids any other communication).  This module keeps
that separation: :class:`ComputationManager` is the server-side object
the GUPT runtime calls; each block execution goes through a
:class:`~repro.runtime.sandbox.ExecutionChamber` (or a pooled worker
process) which plays the client role.

Three execution backends trade isolation strength against dispatch cost:

``serial``
    One chamber call per block on the calling thread.  Zero dispatch
    overhead; keeps single-threaded benchmarks honest.
``thread``
    A thread pool over the configured chamber.  Blocks are submitted in
    *chunks* (not one future per block) so executor bookkeeping is
    amortized; block programs are numpy-heavy and release the GIL, so
    threads parallelize them on one machine.
``pool``
    :class:`~repro.runtime.pool.PoolChamberBackend` — persistent worker
    processes, the program pickled once per query, blocks shipped
    zero-copy through shared memory and dispatched in batches.  Real
    process isolation at a small fraction of fork-per-block cost; the
    backend for realistic block counts.  Programs the pickle module
    cannot ship fall back to the serial chamber path (counted in
    ``pool.unpicklable_fallbacks``).
``vectorized``
    The fast path of :mod:`repro.runtime.vectorized`: a program that
    declares a batch form (``run_batch``) runs over the whole stacked
    block array in one numpy call — zero per-block dispatch.  Programs
    without a batch form, ragged block lists, batch calls that raise,
    and queries under an active timing defense all degrade transparently
    to the chamber path (serial at one worker, chunked threads
    otherwise), counted per reason in ``vectorized.fallbacks``.
``sharded``
    The shard coordinator, :class:`~repro.runtime.remote.RemoteShardBackend`,
    over ``min(K, S)`` local node processes forked on first use, each
    serving one end of a socketpair.  The dataset is split into ``S``
    contiguous logical shards; each node receives its shards' rows as
    ``SEGMENT`` frames, plans and executes its blocks locally and ships
    back only its ``(l_s, p)`` partial of clamped block outputs.  The
    logical shard count is a *public plan parameter* (``plan_shards``):
    every backend of a manager configured with ``shards=S`` draws the
    same S-sharded combined plan, so releases are bit-identical whether
    the shards run in-process or on nodes.  Queries the shard protocol
    cannot carry — an active timing defense, unpicklable programs,
    explicit (grouped) plans — degrade to the combined-plan chamber
    path, counted per reason in ``sharded.fallbacks``.
``remote``
    The same coordinator over TCP shard-node processes (an existing
    cluster, or nodes it spawns), speaking the framed binary protocol
    of :mod:`repro.runtime.remote.wire`.  Same shard-local plans, same
    partials-only combine, same degrade reasons, so releases stay
    bit-identical to every in-process backend at the same ``S``, for
    any node count and across single-node failures.

The manager is also an instrumentation point (see
:mod:`repro.observability`): per-block latency, success/fallback/kill
counts and the pool width.  Recorded latency is the wall-clock of the
whole chamber call *including* any timing-defense padding, so whenever
the defense is on, the histogram observes the padded, data-independent
duration — never the program's raw compute time.
"""

from __future__ import annotations

import math
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry, get_registry
from repro.core.blocks import ShardPlanSummary
from repro.runtime.pool import PoolChamberBackend
from repro.runtime.sandbox import (
    AnalystProgram,
    BlockExecution,
    ExecutionChamber,
    InProcessChamber,
)
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.shard import ShardQuerySpec
from repro.runtime.timing import TimingDefense
from repro.runtime.vectorized import (
    BatchOutputs,
    run_batch_blocks,
    stack_blocks,
    supports_batch,
)

BACKENDS = ("serial", "thread", "pool", "vectorized", "sharded", "remote")

#: Backends that execute the sharded plan protocol natively (shard-local
#: planning, partials-only combine) rather than through chambers.
SHARD_PROTOCOL_BACKENDS = ("sharded", "remote")

#: Logical shard count when the sharded backend is selected without an
#: explicit ``shards``: one logical shard per worker.  Deliberately a
#: pure function of configuration — never of ``os.cpu_count()`` — since
#: the shard count is a plan parameter that released bits depend on.
DEFAULT_SHARDS_PER_WORKER = 1


class ComputationManager:
    """Executes an analyst program over many blocks through chambers.

    Parameters
    ----------
    chamber:
        The isolation boundary used by the ``serial`` and ``thread``
        backends (and the pool backend's unpicklable-program fallback).
        Defaults to an unbudgeted :class:`InProcessChamber`.
    max_workers:
        Fan-out width: thread-pool threads or pool worker processes.
    metrics:
        Registry receiving block-level telemetry; ``None`` uses the
        process default.
    backend:
        ``"serial"``, ``"thread"``, ``"pool"`` or ``"vectorized"``;
        ``None`` selects ``serial`` when ``max_workers == 1`` and
        ``thread`` otherwise (the pre-backend behavior, so existing
        callers are unchanged).
    batch_size:
        Blocks per dispatch chunk for the thread and pool backends;
        ``None`` picks ``ceil(blocks / (4 * workers))`` per run.
    pool:
        A pre-built :class:`PoolChamberBackend` to use for the ``pool``
        backend (e.g. one shared across managers); ``None`` constructs
        one on demand from ``max_workers``/``timing``/``batch_size``.
    timing:
        Cycle-budget policy for an auto-constructed pool backend.
    shards:
        Logical shard count ``S`` of the sharded plan protocol — a
        *public plan parameter* that applies to **every** backend: a
        manager with ``shards=4`` draws 4-sharded combined plans whether
        it executes them serially, through threads, the pool, the
        vectorized path, or shard nodes.  That is what makes the
        determinism matrix possible — fix ``shards`` and vary the
        backend, and the released bits do not move.  Defaults to ``1``
        (the legacy single-plan protocol, bit-compatible with earlier
        releases) except under ``backend="sharded"``, where it defaults
        to one logical shard per worker.
    sharded:
        A pre-built :class:`~repro.runtime.remote.RemoteShardBackend`
        for the ``sharded``/``remote`` backends; ``None`` constructs one
        on demand.  Its logical shard count must agree with ``shards``
        when both are given.
    nodes:
        For ``backend="remote"``: where the shard nodes are — a list of
        ``(host, port)`` / ``"host:port"`` addresses for an existing
        cluster, an int to spawn that many in-process nodes, or
        ``None`` to spawn one per worker.  Ignored by other backends.
    node_secret:
        For ``backend="remote"``: the shared node-authentication secret
        handed to an auto-constructed :class:`RemoteShardBackend`
        (ignored when ``sharded`` is pre-built — configure that backend
        directly).
    """

    def __init__(
        self,
        chamber: ExecutionChamber | None = None,
        max_workers: int = 1,
        metrics: MetricsRegistry | None = None,
        backend: str | None = None,
        batch_size: int | None = None,
        pool: PoolChamberBackend | None = None,
        timing: TimingDefense | None = None,
        shards: int | None = None,
        sharded: RemoteShardBackend | None = None,
        nodes: int | list | None = None,
        node_secret: str | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if backend is None:
            backend = "serial" if max_workers == 1 else "thread"
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for auto)")
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1 (or None for the default)")
        self._chamber = chamber or InProcessChamber(timing=timing, metrics=metrics)
        self._timing = timing
        self._max_workers = max_workers
        self._metrics = metrics
        self._backend = backend
        self._batch_size = batch_size
        self._pool = pool
        self._owns_pool = pool is None
        if backend == "pool" and self._pool is None:
            self._pool = PoolChamberBackend(
                workers=max_workers,
                timing=timing,
                batch_size=batch_size,
                metrics=metrics,
            )
        self._sharded = sharded
        self._owns_sharded = sharded is None
        if sharded is not None:
            if shards is not None and sharded.shards != shards:
                raise ValueError(
                    f"shards={shards} disagrees with the provided sharded "
                    f"backend's {sharded.shards} logical shards"
                )
            self._plan_shards = sharded.shards
        elif backend in SHARD_PROTOCOL_BACKENDS:
            self._plan_shards = (
                shards
                if shards is not None
                else max(1, DEFAULT_SHARDS_PER_WORKER * max_workers)
            )
            if backend == "remote":
                self._sharded = RemoteShardBackend(
                    shards=self._plan_shards,
                    nodes=nodes if nodes is not None else max_workers,
                    metrics=metrics,
                    secret=node_secret,
                )
            else:
                # K local nodes, never more than there are shards to own.
                # A forked node's death shows up as EOF on its socketpair,
                # so no liveness deadline cuts a slow shard short.
                self._sharded = RemoteShardBackend(
                    shards=self._plan_shards,
                    nodes=min(max_workers, self._plan_shards),
                    metrics=metrics,
                    node_spawn="fork",
                    node_timeout=None,
                    heartbeat_interval=None,
                )
        else:
            self._plan_shards = shards if shards is not None else 1

    @property
    def chamber(self) -> ExecutionChamber:
        return self._chamber

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def pool(self) -> PoolChamberBackend | None:
        return self._pool

    @property
    def sharded_backend(self) -> RemoteShardBackend | None:
        """The shard coordinator: over forked local nodes or TCP nodes."""
        return self._sharded

    @property
    def plan_shards(self) -> int:
        """Logical shard count S of every plan this manager draws.

        A public plan parameter (like block size): released bits are a
        function of it, and of nothing else about the deployment —
        physical worker counts and backend choice never move them.
        """
        return self._plan_shards

    def federate(self, name: str) -> dict:
        """Register ``name`` as a federated dataset from node manifests.

        Only the remote backend can serve federated datasets — the rows
        live on curator nodes, so there is nothing for an in-process
        backend to execute against.  Returns the geometry dict from
        :meth:`RemoteShardBackend.federate` (``num_records``,
        ``num_dimensions``, ``node_rows``).
        """
        fn = getattr(self._sharded, "federate", None)
        if self._backend != "remote" or fn is None:
            raise ComputationError(
                "federated datasets require the remote backend "
                f"(this manager runs {self._backend!r})"
            )
        return fn(name)

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent.

        Teardown paths overlap (``GuptRuntime.close``, context managers,
        test fixtures), so closing twice must be safe: the pool backend
        tears down only the workers it currently has (a second close
        finds none), and the shard coordinator ends its sessions and
        reaps its nodes exactly once behind its own guard.
        Backends passed in by the caller are never closed here — they
        stay the caller's to close.
        """
        if self._pool is not None and self._owns_pool:
            self._pool.close()
        if self._sharded is not None and self._owns_sharded:
            self._sharded.close()

    def __enter__(self) -> "ComputationManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_blocks_collected(
        self,
        program: AnalystProgram,
        output_dimension: int,
        fallback: np.ndarray,
        blocks: Sequence[np.ndarray] | None = None,
        stacked: np.ndarray | None = None,
    ) -> BatchOutputs:
        """Run ``program`` on every block; the ``(l, p)`` outputs in order.

        The result is the output matrix plus a success mask.  On the
        vectorized fast path that matrix is handed through *directly*
        from the fused batch call, so no per-block Python objects are
        built at all; the other backends run chambers and collect.

        ``stacked``, when given, is the ``(l, block_size, d)`` stacked
        view of the plan (as produced by :meth:`BlockPlan.stack`); the
        vectorized backend consumes it directly.  ``blocks`` may be
        omitted when ``stacked`` covers the whole plan; the per-block
        list is then materialized only if a chamber path needs it.

        Raises :class:`ComputationError` only when *every* block failed,
        which signals a systemic problem (wrong output dimension, program
        that always crashes) rather than a data-dependent one.  Partial
        failures are kept as fallback outputs — turning them into errors
        would create the exact side channel the chambers exist to close.
        """
        fallback = self._validate_shape(output_dimension, fallback)
        if self._backend == "vectorized":
            # Empty input is a caller error, not a plan-shape degrade:
            # raise before _try_batch so the telemetry never counts a
            # vectorized fallback for a query that had nothing to run.
            if stacked is None and not blocks:
                raise ComputationError("no blocks to execute")
            metrics = self._metrics or get_registry()
            metrics.gauge("blocks.pool_width").set(self._max_workers)
            batch = self._try_batch(
                metrics, program, blocks, output_dimension, fallback, stacked
            )
            if batch is not None:
                succeeded = int(batch.succeeded.sum())
                self._count_outcomes(
                    metrics, batch.num_blocks, succeeded, killed=0
                )
                if succeeded == 0:
                    raise ComputationError(self._all_failed_message(output_dimension))
                return batch
        # Chamber/pool path (including a counted vectorized degrade).
        if blocks is None:
            blocks = [] if stacked is None else list(stacked)
        return self._run_blocks_impl(program, blocks, output_dimension, fallback)

    def run_sharded_collected(
        self,
        program: AnalystProgram,
        values: np.ndarray,
        *,
        dataset: str,
        version: int,
        block_size: int,
        resampling_factor: int,
        plan_seed: int,
        output_dimension: int,
        fallback: np.ndarray,
        clamp_ranges: tuple[tuple[float, ...], tuple[float, ...]] | None = None,
    ) -> tuple[ShardPlanSummary, BatchOutputs] | None:
        """Run one query through the shard nodes, or ``None`` to degrade.

        The sharded fast path: shard-local planning and execution,
        partials-only combine, same telemetry and all-blocks-failed
        error as :meth:`run_blocks_collected`.  Returns ``None`` — after
        counting the reason in ``sharded.fallbacks`` — when the shard
        protocol cannot carry the query (an active timing defense, whose
        per-block kill-and-pad semantics the fused shard execution
        cannot reproduce, or a program pickle cannot ship to a node);
        the caller then replays the *same* S-sharded plan through the
        chamber path, so a degrade never moves released bits.

        ``clamp_ranges`` is the optional ``(lows, highs)`` pair of
        declared per-dimension output bounds; when given, nodes clamp
        block outputs before they cross the shard boundary
        (aggregation clamps to the same bounds again, so the release is
        untouched).
        """
        if self._backend not in SHARD_PROTOCOL_BACKENDS or self._sharded is None:
            raise ComputationError("manager is not configured for sharded execution")
        metrics = self._metrics or get_registry()

        def degrade(reason: str) -> None:
            metrics.counter("sharded.fallbacks", reason=reason).inc()
            return None

        chamber_timing = getattr(self._chamber, "timing", None)
        if (self._timing is not None and self._timing.enabled) or (
            chamber_timing is not None and chamber_timing.enabled
        ):
            return degrade("timing_defense")
        try:
            program_bytes = pickle.dumps(program)
        except Exception:
            return degrade("unpicklable")

        fallback = self._validate_shape(output_dimension, fallback)
        clamp_lo = clamp_hi = None
        if clamp_ranges is not None:
            clamp_lo = tuple(float(v) for v in clamp_ranges[0])
            clamp_hi = tuple(float(v) for v in clamp_ranges[1])
        spec = ShardQuerySpec(
            dataset=dataset,
            version=int(version),
            num_records=int(values.shape[0]),
            block_size=int(block_size),
            resampling_factor=int(resampling_factor),
            plan_seed=int(plan_seed),
            shards=self._plan_shards,
            output_dimension=int(output_dimension),
            fallback=tuple(float(v) for v in fallback),
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
        )
        metrics.gauge("blocks.pool_width").set(self._max_workers)
        summary, batch = self._sharded.run_sharded(program_bytes, values, spec)
        succeeded = int(batch.succeeded.sum())
        self._count_outcomes(metrics, batch.num_blocks, succeeded, killed=0)
        if succeeded == 0:
            raise ComputationError(self._all_failed_message(output_dimension))
        return summary, batch

    def _run_blocks_impl(
        self, program, blocks, output_dimension, fallback
    ) -> BatchOutputs:
        """The chamber/pool path: run each block, collect to matrix form."""
        blocks = list(blocks)
        if not blocks:
            raise ComputationError("no blocks to execute")

        metrics = self._metrics or get_registry()
        metrics.gauge("blocks.pool_width").set(self._max_workers)

        if self._backend == "pool":
            results = self._run_pool(
                metrics, program, blocks, output_dimension, fallback
            )
        else:
            # Serial/thread — and the vectorized backend's degraded path,
            # whose fallback reason _try_batch has already counted.
            results = self._run_chambers(
                metrics, program, blocks, output_dimension, fallback
            )

        succeeded = sum(1 for r in results if r.succeeded)
        killed = sum(1 for r in results if r.killed)
        self._count_outcomes(metrics, len(results), succeeded, killed)

        if succeeded == 0:
            raise ComputationError(self._all_failed_message(output_dimension))
        return BatchOutputs(
            outputs=np.vstack([r.output for r in results]),
            succeeded=np.fromiter(
                (r.succeeded for r in results), dtype=bool, count=len(results)
            ),
            elapsed=float(sum(r.elapsed for r in results)),
        )

    @staticmethod
    def _validate_shape(output_dimension: int, fallback) -> np.ndarray:
        if output_dimension < 1:
            raise ComputationError("output dimension must be >= 1")
        fallback = np.asarray(fallback, dtype=float).ravel()
        if fallback.size != output_dimension:
            raise ComputationError(
                f"fallback has {fallback.size} dims, expected {output_dimension}"
            )
        return fallback

    @staticmethod
    def _count_outcomes(metrics, executed: int, succeeded: int, killed: int) -> None:
        metrics.counter("blocks.executed").inc(executed)
        metrics.counter("blocks.success").inc(succeeded)
        metrics.counter("blocks.fallback").inc(executed - succeeded)
        metrics.counter("blocks.killed").inc(killed)

    @staticmethod
    def _all_failed_message(output_dimension: int) -> str:
        return (
            "analyst program failed on every block; check that it returns "
            f"a finite vector of dimension {output_dimension}"
        )

    # -- vectorized backend ----------------------------------------------
    def _try_batch(
        self, metrics, program, blocks, output_dimension, fallback, stacked
    ) -> BatchOutputs | None:
        """The fused batch call, or ``None`` after counting the reason."""

        def degrade(reason: str) -> None:
            metrics.counter("vectorized.fallbacks", reason=reason).inc()
            return None

        if not supports_batch(program):
            return degrade("no_batch_form")
        # Per-block kill-and-pad semantics cannot apply to one fused call;
        # an active cycle budget (on the manager or its chamber) forces
        # the chamber path so the timing defense is never silently lost.
        chamber_timing = getattr(self._chamber, "timing", None)
        if (self._timing is not None and self._timing.enabled) or (
            chamber_timing is not None and chamber_timing.enabled
        ):
            return degrade("timing_defense")
        if stacked is None and blocks is not None:
            stacked = stack_blocks(blocks)
        if stacked is None:
            return degrade("ragged_blocks")

        started = time.perf_counter()
        batch = run_batch_blocks(program, stacked, output_dimension, fallback)
        if batch is None:
            return degrade("batch_error")
        metrics.counter("vectorized.batches").inc()
        metrics.histogram("vectorized.batch_seconds").observe(
            time.perf_counter() - started
        )
        metrics.histogram("vectorized.blocks_per_batch").observe(batch.num_blocks)
        return batch

    # -- chamber backends (serial / thread) ------------------------------
    def _run_chambers(
        self, metrics, program, blocks, output_dimension, fallback
    ) -> list[BlockExecution]:
        # Latencies batch locally and flush in one histogram update, so
        # the per-block cost is a clock read and a list append.
        durations: list[float] = []

        def timed_run(block: np.ndarray) -> BlockExecution:
            started = time.perf_counter()
            execution = self._chamber.run_block(
                program, block, output_dimension, fallback
            )
            durations.append(time.perf_counter() - started)
            return execution

        if self._backend == "serial" or self._max_workers == 1:
            results = [timed_run(block) for block in blocks]
        else:
            # Chunked submission: one future per batch of blocks, not one
            # per block, so executor overhead stays flat in block count.
            batch_size = self._batch_size or max(
                1, math.ceil(len(blocks) / (4 * self._max_workers))
            )
            batches = [
                blocks[i : i + batch_size] for i in range(0, len(blocks), batch_size)
            ]

            def run_batch(batch: list[np.ndarray]) -> list[BlockExecution]:
                return [timed_run(block) for block in batch]

            with ThreadPoolExecutor(max_workers=self._max_workers) as executor:
                results = [
                    execution
                    for batch_results in executor.map(run_batch, batches)
                    for execution in batch_results
                ]
        metrics.histogram("blocks.latency_seconds").observe_many(durations)
        return results

    # -- pool backend ----------------------------------------------------
    def _run_pool(
        self, metrics, program, blocks, output_dimension, fallback
    ) -> list[BlockExecution]:
        try:
            program_bytes = pickle.dumps(program)
        except Exception:
            # Closures/lambdas cannot cross a process boundary; degrade
            # to the serial chamber path rather than refusing the query.
            metrics.counter("pool.unpicklable_fallbacks").inc()
            return self._run_chambers(
                metrics, program, blocks, output_dimension, fallback
            )
        return self._pool.run_blocks(
            program,
            blocks,
            output_dimension,
            fallback,
            program_bytes=program_bytes,
        )
