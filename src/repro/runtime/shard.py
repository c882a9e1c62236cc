"""Sharded execution: scale sample-and-aggregate past one process.

Sample-and-aggregate makes block outputs iid clamped summaries, so the
expensive phase — planning, materializing and executing blocks — can be
partitioned across *shard-owning* worker processes while only block
outputs ever cross the shard boundary (the Lin/Wang/Rane observation
about sampling-based DP analysis over partitioned data, applied to one
box).  :class:`ShardedExecutionBackend` extends the pre-forked
shared-memory machinery of :mod:`repro.runtime.pool`:

* **Contiguous shard ownership.**  A registered dataset is pushed once
  per ``(name, version)`` into a shared-memory segment; each persistent
  worker owns the contiguous row range(s) of its logical shards and maps
  them zero-copy, read-only.  Subsequent queries ship only public plan
  parameters — no record data moves after registration.
* **Shard-local planning and execution.**  Each shard draws its own
  block plan from ``spawn(plan_seed, S)[s]`` (the protocol of
  :func:`repro.core.blocks.draw_sharded_plan`), gathers its stacked
  materialization, and runs the program — vectorized ``run_batch`` when the program declares one, per-block
  fresh-instance execution otherwise — entirely inside the worker.
* **Partials-only combine.**  The only payload a worker ever sends back
  is the ``(l_s, p)`` matrix of block outputs (clamped to the declared
  output ranges when the query has them), the success mask, and timing
  scalars.  The coordinator concatenates partials in deterministic
  shard order — reproducing the single-process block order exactly —
  and hands the combined matrix to the unchanged aggregation phase.
  Raw records never flow worker → coordinator
  (``tests/test_shard_privacy.py`` pins the message schema).
* **Bit-identical releases.**  The plan is a pure function of
  ``(plan_seed, S)`` and the combine is order-deterministic, so a seeded
  query releases the same bits through this backend as through
  ``serial``/``thread``/``pool``/``vectorized`` replaying the same
  sharded plan — and the same bits for any *physical* worker count
  ``K <= S``, since workers only decide where shards run, never what
  they contain.
* **Kill-and-replace self-healing.**  A worker that dies mid-query is
  replaced, its dataset segments re-attached, and its shards re-planned
  and re-executed — safe because shard plans are deterministic, so the
  retry computes the identical partial.

Telemetry (all release-safe: worker/shard geometry, counts, wall-clock —
never block outputs or records): ``shard.workers``, ``shard.shards``,
``shard.queries``, ``shard.dataset_pushes``, ``shard.worker_restarts``,
``shard.dispatch_seconds``, ``shard.partial_rows``.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import multiprocessing

import numpy as np

from repro.core.blocks import (
    ShardPlanSummary,
    draw_shard_local_plan,
    shard_block_counts,
    shard_offsets,
)
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry, get_registry
from repro.runtime.pool import WorkerHandle, silence_shm_tracking
from repro.runtime.vectorized import (
    BatchOutputs,
    run_batch_blocks,
    run_stacked_serial,
    supports_batch,
)

#: Datasets resident in shard workers at once (coordinator-side LRU of
#: shared-memory segments; worker caches follow the forget messages).
DEFAULT_RESIDENT_DATASETS = 4


@dataclass(frozen=True)
class ShardQuerySpec:
    """Public parameters of one sharded query — everything a worker needs.

    Every field is either analyst-chosen or public geometry; none is a
    function of record values.  ``clamp_lo``/``clamp_hi`` are the
    declared per-dimension output ranges (when the strategy knows them
    before sampling), letting workers clamp block outputs *before* they
    cross the shard boundary; ``None`` defers clamping to aggregation
    (GUPT-loose, which estimates ranges from the raw outputs).
    """

    dataset: str
    version: int
    num_records: int
    block_size: int
    resampling_factor: int
    plan_seed: int
    shards: int
    output_dimension: int
    fallback: tuple[float, ...]
    clamp_lo: tuple[float, ...] | None = None
    clamp_hi: tuple[float, ...] | None = None


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def execute_shard_rows(
    local_values: np.ndarray,
    spec: ShardQuerySpec,
    shard: int,
    program_bytes: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Plan, materialize and run one logical shard; returns its partial.

    ``local_values`` is exactly the shard's contiguous row slice (the
    caller slices from a full segment, or a remote node holds only this
    slice to begin with).  The shard-local plan is a pure function of
    ``(plan_seed, shards, shard)``, so every executor of this function —
    an in-process shard worker, a remote node, a degrade replay —
    computes the identical partial.  The returned outputs are already
    clamped when the spec carries ranges.
    """
    plan = draw_shard_local_plan(
        int(local_values.shape[0]),
        spec.block_size,
        spec.resampling_factor,
        spec.plan_seed,
        spec.shards,
        shard,
    )
    if plan.num_blocks == 0:  # empty shard: no full block fits
        return (
            np.empty((0, spec.output_dimension), dtype=float),
            np.empty(0, dtype=bool),
            0.0,
        )

    stacked = plan.stack(local_values)
    fallback = np.asarray(spec.fallback, dtype=float)
    program = pickle.loads(program_bytes)
    batch: BatchOutputs | None = None
    if supports_batch(program):
        batch = run_batch_blocks(program, stacked, spec.output_dimension, fallback)
    if batch is None:
        batch = run_stacked_serial(
            program_bytes, stacked, spec.output_dimension, fallback
        )
    outputs = batch.outputs
    if spec.clamp_lo is not None:
        # Clamp before anything crosses the shard boundary.  Aggregation
        # clamps to the same ranges again (idempotent), so released bits
        # are untouched; the boundary payload is narrowed to exactly the
        # clamped summaries the release is computed from.
        outputs = np.clip(
            outputs,
            np.asarray(spec.clamp_lo, dtype=float),
            np.asarray(spec.clamp_hi, dtype=float),
        )
    return outputs, batch.succeeded, batch.elapsed


def _execute_shard(
    values: np.ndarray,
    spec: ShardQuerySpec,
    shard: int,
    program_bytes: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Slice one shard out of the full segment and execute it."""
    offsets = shard_offsets(spec.num_records, spec.shards)
    local_values = values[int(offsets[shard]) : int(offsets[shard + 1])]
    return execute_shard_rows(local_values, spec, shard, program_bytes)


def _shard_worker(conn) -> None:
    """Worker loop: attach datasets once, answer shard-execution requests.

    Message protocol (worker -> coordinator replies carry *only* block
    outputs, masks and scalars — the privacy-boundary tests pin this):

    * ``("dataset", dskey, name, shape, dtype)`` — attach a segment.
    * ``("forget", dskey)`` — drop an attached segment (eviction).
    * ``("query", qid, spec, shard_list, program_bytes)`` — execute the
      listed logical shards; reply one
      ``("partial", qid, shard, outputs, succeeded, elapsed)`` each,
      then ``("query-done", qid)``.
    * ``("shutdown",)`` — exit.
    """
    silence_shm_tracking()
    segments: dict = {}  # dskey -> (SharedMemory, ndarray)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "dataset":
            _, dskey, name, shape, dtype = message
            old = segments.pop(dskey, None)
            if old is not None:
                old[0].close()
            segment = shared_memory.SharedMemory(name=name)
            values = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
            values.setflags(write=False)
            segments[dskey] = (segment, values)
            continue
        if kind == "forget":
            entry = segments.pop(message[1], None)
            if entry is not None:
                entry[0].close()
            continue
        # ("query", qid, spec, shard_list, program_bytes)
        _, qid, spec, shard_list, program_bytes = message
        entry = segments.get((spec.dataset, spec.version))
        for shard in shard_list:
            if entry is None:
                # Coordinator pushed the dataset before dispatch; missing
                # it means the worker restarted mid-setup.  Report the
                # shard as empty-handed; the coordinator substitutes
                # fallback rows rather than hanging.
                conn.send(("partial-missing", qid, shard))
                continue
            outputs, succeeded, elapsed = _execute_shard(
                entry[1], spec, shard, program_bytes
            )
            conn.send(("partial", qid, shard, outputs, succeeded, elapsed))
        conn.send(("query-done", qid))
    for segment, _ in segments.values():
        try:
            segment.close()
        except BufferError:  # pragma: no cover - program stashed a view
            pass
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _DatasetSegment:
    """Coordinator-owned shared-memory copy of one registered dataset."""

    __slots__ = ("key", "shm", "shape", "dtype")

    def __init__(self, key: tuple[str, int], values: np.ndarray):
        values = np.ascontiguousarray(values, dtype=float)
        self.key = key
        self.shape = values.shape
        self.dtype = values.dtype.str
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, values.nbytes))
        destination = np.ndarray(values.shape, dtype=values.dtype, buffer=self.shm.buf)
        destination[...] = values

    def descriptor(self, dskey) -> tuple:
        return ("dataset", dskey, self.shm.name, self.shape, self.dtype)

    def release(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ShardedExecutionBackend:
    """K persistent workers owning S contiguous logical shards.

    Parameters
    ----------
    shards:
        Logical shard count S — a *public plan parameter*: released bits
        depend on it (like block size), and on nothing else about the
        deployment.
    workers:
        Physical worker processes K (default S; clamped to S).  Worker
        ``w`` owns the contiguous logical shards
        ``[w * S // K, (w + 1) * S // K)``.  Changing K redistributes
        shards across processes without moving any shard boundary, so
        releases are bit-identical across worker counts.
    resident_datasets:
        Coordinator-side LRU bound on datasets kept resident in shared
        memory at once.
    metrics:
        Registry receiving the backend's release-safe telemetry.
    message_observer:
        Test hook: called with every worker -> coordinator message (the
        privacy-boundary suite asserts nothing but block outputs, masks
        and public scalars ever appears there).
    """

    def __init__(
        self,
        shards: int,
        workers: int | None = None,
        resident_datasets: int = DEFAULT_RESIDENT_DATASETS,
        start_method: str = "fork",
        metrics: MetricsRegistry | None = None,
        message_observer: Callable[[tuple], None] | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1 (or None for one per shard)")
        if resident_datasets < 1:
            raise ValueError("resident_datasets must be >= 1")
        self._shards = int(shards)
        self._num_workers = min(int(workers) if workers is not None else shards, shards)
        self._resident_datasets = resident_datasets
        self._context = multiprocessing.get_context(start_method)
        self._metrics = metrics
        self._message_observer = message_observer
        self._workers: list[WorkerHandle] = []
        self._segments: OrderedDict[tuple[str, int], _DatasetSegment] = OrderedDict()
        self._qids = iter(range(1, 2**62))
        self._closed = False
        # One query at a time: the dispatch protocol is stateful (shard
        # assignment, per-query partial collection); concurrent callers
        # (scheduler workers sharing one backend) serialize here, and
        # parallelism comes from the shard workers underneath.
        self._dispatch_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    @property
    def shards(self) -> int:
        return self._shards

    @property
    def workers(self) -> int:
        return self._num_workers

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _worker_shards(self, slot: int) -> list[int]:
        """Contiguous logical shards owned by worker ``slot``."""
        start = slot * self._shards // self._num_workers
        end = (slot + 1) * self._shards // self._num_workers
        return list(range(start, end))

    def _spawn_worker(self) -> WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_shard_worker, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return WorkerHandle(process=process, conn=parent_conn)

    def _ensure_started(self) -> None:
        if self._workers:
            return
        if self._closed:
            raise ComputationError("sharded backend is closed")
        self._workers = [self._spawn_worker() for _ in range(self._num_workers)]
        registry = self._registry()
        registry.gauge("shard.workers").set(self._num_workers)
        registry.gauge("shard.shards").set(self._shards)
        registry.counter("shard.worker_restarts").inc(0)

    def close(self) -> None:
        """Stop the workers and free every dataset segment — exactly once.

        Safe to call any number of times (teardown paths overlap:
        context managers, ``GuptRuntime.close``, ``__del__``); only the
        first call touches processes or shared memory.
        """
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                worker.stop()
            self._workers = []
            for segment in self._segments.values():
                segment.release()
            self._segments.clear()

    def __enter__(self) -> "ShardedExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dataset residency ----------------------------------------------
    def invalidate(self, dataset: str) -> int:
        """Drop every resident segment of ``dataset`` (re-registration)."""
        with self._dispatch_lock:
            stale = [k for k in self._segments if k[0] == dataset]
            for key in stale:
                self._evict_locked(key)
        return len(stale)

    def _evict_locked(self, dskey: tuple[str, int]) -> None:
        segment = self._segments.pop(dskey, None)
        if segment is None:
            return
        for worker in self._workers:
            try:
                worker.send(("forget", dskey))
            except (OSError, ValueError):  # pragma: no cover - dead worker
                pass
        segment.release()

    def _ensure_dataset_locked(self, dskey, values: np.ndarray) -> _DatasetSegment:
        segment = self._segments.get(dskey)
        if segment is not None:
            self._segments.move_to_end(dskey)
            return segment
        segment = _DatasetSegment(dskey, values)
        self._segments[dskey] = segment
        while len(self._segments) > self._resident_datasets:
            self._evict_locked(next(iter(self._segments)))
        registry = self._registry()
        registry.counter("shard.dataset_pushes").inc()
        for worker in self._workers:
            self._push_dataset(worker, dskey, segment)
        return segment

    def _push_dataset(self, worker, dskey, segment) -> bool:
        try:
            worker.send(segment.descriptor(dskey))
            return True
        except (OSError, ValueError):
            return False

    # -- dispatch --------------------------------------------------------
    def run_sharded(
        self,
        program_bytes: bytes,
        values: np.ndarray,
        spec: ShardQuerySpec,
    ) -> tuple[ShardPlanSummary, BatchOutputs]:
        """Execute one query across the shards; combined partials, in order.

        ``values`` is the registered dataset's full matrix — used only to
        (re)materialize the shared-memory segment on first touch of this
        ``(dataset, version)``; afterwards queries move no record data.
        """
        if spec.shards != self._shards:
            raise ComputationError(
                f"query spec wants {spec.shards} shards, backend has {self._shards}"
            )
        with self._dispatch_lock:
            if self._closed:
                raise ComputationError("sharded backend is closed")
            self._ensure_started()
            return self._run_locked(program_bytes, values, spec)

    def _run_locked(self, program_bytes, values, spec) -> tuple:
        registry = self._registry()
        started = time.perf_counter()
        dskey = (spec.dataset, spec.version)
        self._ensure_dataset_locked(dskey, values)

        counts = shard_block_counts(
            spec.num_records, spec.block_size, spec.resampling_factor, spec.shards
        )
        bases = np.zeros(spec.shards + 1, dtype=np.int64)
        np.cumsum(counts, out=bases[1:])
        total_blocks = int(bases[-1])
        if total_blocks == 0:
            raise ComputationError(
                f"block size {spec.block_size} leaves no full block in any of "
                f"{spec.shards} shards of {spec.num_records} records"
            )
        fallback = np.asarray(spec.fallback, dtype=float)
        outputs = np.empty((total_blocks, spec.output_dimension), dtype=float)
        succeeded = np.zeros(total_blocks, dtype=bool)
        filled = np.zeros(spec.shards, dtype=bool)
        elapsed_total = 0.0

        qid = next(self._qids)
        pending: dict[int, list[int]] = {}  # slot -> shards awaited
        for slot in range(self._num_workers):
            owned = self._worker_shards(slot)
            if owned:
                pending[slot] = owned
        retried: set[int] = set()
        for slot in list(pending):
            if not self._dispatch(slot, qid, spec, pending[slot], program_bytes):
                self._heal(slot, qid, spec, pending, program_bytes, retried, registry)

        while pending:
            for slot in list(pending):
                state = self._collect(
                    slot, qid, spec, bases, counts, fallback,
                    outputs, succeeded, filled, registry,
                )
                if state == "done":
                    del pending[slot]
                elif state == "dead":
                    self._heal(
                        slot, qid, spec, pending, program_bytes, retried, registry
                    )
                else:
                    elapsed_total += state

        # A shard whose worker kept failing resolves to fallback rows
        # (killed-worker semantics, mirroring the pool backend): the
        # outcome is data-independent and the query stays answerable.
        for shard in range(spec.shards):
            if not filled[shard] and counts[shard]:
                outputs[bases[shard] : bases[shard + 1]] = fallback

        registry.counter("shard.queries").inc()
        registry.histogram("shard.dispatch_seconds").observe(
            time.perf_counter() - started
        )
        registry.histogram("shard.partial_rows").observe(total_blocks)
        summary = ShardPlanSummary(
            num_records=spec.num_records,
            block_size=spec.block_size,
            resampling_factor=spec.resampling_factor,
            num_blocks=total_blocks,
            shards=spec.shards,
        )
        batch = BatchOutputs(
            outputs=outputs, succeeded=succeeded, elapsed=elapsed_total
        )
        return summary, batch

    def _dispatch(self, slot, qid, spec, shard_list, program_bytes) -> bool:
        try:
            self._workers[slot].send(
                ("query", qid, spec, list(shard_list), program_bytes)
            )
            return True
        except (OSError, ValueError):
            return False

    def _collect(
        self, slot, qid, spec, bases, counts, fallback,
        outputs, succeeded, filled, registry,
    ):
        """Drain one worker until its query-done marker; returns state.

        ``"done"`` when the worker finished its shard list, ``"dead"``
        on EOF (triggers heal), otherwise the elapsed seconds gathered
        from the partials consumed so far.
        """
        conn = self._workers[slot].conn
        elapsed = 0.0
        try:
            while True:
                message = conn.recv()
                if self._message_observer is not None:
                    self._message_observer(message)
                kind = message[0]
                if kind == "query-done" and message[1] == qid:
                    return "done"
                if kind == "partial-missing" and message[1] == qid:
                    continue  # left unfilled; healed or fallback-substituted
                if kind != "partial" or message[1] != qid:
                    continue  # stale message from a healed predecessor
                _, _, shard, partial, mask, seconds = message
                expected = int(counts[shard])
                partial = np.asarray(partial, dtype=float)
                if partial.shape != (expected, spec.output_dimension):
                    continue  # malformed partial: treated as missing
                base = int(bases[shard])
                outputs[base : base + expected] = partial
                succeeded[base : base + expected] = np.asarray(mask, dtype=bool)
                filled[shard] = True
                elapsed += float(seconds)
                if not conn.poll(0.5):
                    # Stay responsive to other workers while this one is
                    # still computing; the outer loop revisits us.
                    return elapsed
        except (EOFError, OSError):
            return "dead"

    def _heal(
        self, slot, qid, spec, pending, program_bytes, retried, registry
    ) -> None:
        """Kill-and-replace one worker and re-dispatch its shard list.

        Deterministic shard plans make the retry compute the identical
        partial, so healing never perturbs released bits.  One retry per
        slot per query; a second failure leaves the shards to the
        fallback substitution in ``_run_locked``.
        """
        self._workers[slot].kill()
        replacement = self._spawn_worker()
        self._workers[slot] = replacement
        registry.counter("shard.worker_restarts").inc()
        for dskey, segment in self._segments.items():
            self._push_dataset(replacement, dskey, segment)
        shard_list = pending.get(slot)
        if shard_list is None:
            return
        if slot in retried or not self._dispatch(
            slot, qid, spec, shard_list, program_bytes
        ):
            del pending[slot]
            return
        retried.add(slot)


__all__ = [
    "ShardedExecutionBackend",
    "ShardQuerySpec",
    "DEFAULT_RESIDENT_DATASETS",
    "execute_shard_rows",
]
