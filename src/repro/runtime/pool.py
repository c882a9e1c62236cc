"""Persistent worker-pool execution backend with zero-copy block dispatch.

:class:`SubprocessChamber` pays one ``fork`` per block, so at realistic
block counts (Figure 6 runs hundreds) chamber overhead — not the analyst
program — dominates wall-clock.  :class:`PoolChamberBackend` removes that
overhead while keeping the §6 chamber guarantees:

* **Persistent workers.**  A fixed set of worker processes is forked
  once and reused across blocks and queries; per-block cost drops from a
  process launch to one IPC round-trip, amortized further by batching.
* **Pickle-once program dispatch.**  The analyst program is serialized
  once per query and broadcast to the workers; each block still runs
  against a *fresh* ``pickle.loads`` instance, so instance state cannot
  carry across blocks (state-attack defense, same property the fork
  start method gives :class:`SubprocessChamber`).
* **Zero-copy block payloads.**  Blocks at or above a size threshold are
  written once into a :mod:`multiprocessing.shared_memory` segment; the
  pipe carries only a ``(name, offset, shape, dtype)`` descriptor and
  the worker maps the payload without deserializing it.  Small blocks
  fall back to plain pickling, where shm setup would cost more than it
  saves.  Workers see every block **read-only**: a program that mutates
  its input fails that block (and gets the fallback), which also closes
  the "scribble on the shared segment" channel between blocks.
* **Kill-and-replace self-healing.**  When the timing defense is on, a
  worker that blows its cycle budget is terminated and a replacement is
  forked; the hung block is substituted with the constant fallback
  (killed semantics) and the rest of its batch is re-dispatched.  A
  worker that dies outright (e.g. the program segfaults the
  interpreter) is replaced the same way.  Post-hoc budget checks use
  the same :meth:`TimingDefense.exceeded` rule as the chambers, and
  padding runs *inside* the worker so the parent's dispatch loop never
  sleeps.
* **Output-only channel.**  The result message — status, output vector,
  elapsed/padded seconds — is the only thing that crosses back to the
  parent, exactly the chamber contract.

Telemetry (all release-safe: worker counts, batch geometry, restart
counts and wall-clock dispatch timings, never block outputs):
``pool.workers``, ``pool.batch_size``, ``pool.worker_restarts``,
``pool.dispatch_seconds``.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _wait_connections
from typing import Sequence

import numpy as np

from repro.observability import MetricsRegistry, get_registry
from repro.runtime.sandbox import (
    AnalystProgram,
    BlockExecution,
    _coerce_output,
    _record_chamber_metrics,
)
from repro.runtime.timing import TimingDefense

#: Blocks smaller than this many bytes ship as plain pickles; shm setup
#: only pays for itself once the payload dwarfs the descriptor.
DEFAULT_SHM_THRESHOLD_BYTES = 2048


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _attach_block(descriptor, segments: dict) -> np.ndarray:
    """Materialize one block from its wire descriptor (read-only)."""
    kind = descriptor[0]
    if kind == "pickle":
        block = descriptor[1]
    else:  # ("shm", name, offset, shape, dtype_str)
        _, name, offset, shape, dtype = descriptor
        segment = segments.get(name)
        if segment is None:
            # Attaching (create=False) does not register with the
            # resource tracker on Python 3.10+, so the parent — which
            # created the segment — stays its sole owner and unlinks it
            # once the batch completes.
            segment = shared_memory.SharedMemory(name=name)
            segments[name] = segment
        block = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
    block.setflags(write=False)
    return block


def _run_one_block(program_bytes: bytes, block: np.ndarray, timing: TimingDefense):
    """Fresh-instance execution of one block; returns a result message body."""
    started = time.perf_counter()
    try:
        instance = pickle.loads(program_bytes)
        payload = np.asarray(instance(block), dtype=float)
        status = "ok"
    except Exception:  # noqa: BLE001 - any failure becomes fallback
        payload = None
        status = "error"
    elapsed = time.perf_counter() - started
    padded = timing.pad_to_budget(elapsed)
    return status, payload, elapsed, padded


def _silence_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting segments.

    Since 3.9 ``SharedMemory`` registers with the resource tracker on
    *attach*, not just create.  Workers only ever attach — the parent
    owns every segment's unlink — so a worker-side tracker would pile
    up registrations it can never balance and spew "leaked
    shared_memory" warnings at shutdown.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


def _pool_worker(conn, timing: TimingDefense) -> None:
    """Worker loop: receive a program once, then batches of blocks."""
    _silence_shm_tracking()
    program_bytes: bytes | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "program":
            program_bytes = message[1]
            continue
        # ("batch", [(index, descriptor), ...])
        segments: dict = {}
        try:
            for index, descriptor in message[1]:
                block = _attach_block(descriptor, segments)
                status, payload, elapsed, padded = _run_one_block(
                    program_bytes, block, timing
                )
                del block
                conn.send(("result", index, status, payload, elapsed, padded))
            conn.send(("batch-done",))
        finally:
            for segment in segments.values():
                try:
                    segment.close()
                except BufferError:
                    # The program stashed a view of the block; the mmap
                    # stays alive until the worker drops it or dies —
                    # the parent's unlink already freed the name.
                    pass
    try:
        conn.close()
    except OSError:
        pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: object

    def send(self, message) -> None:
        self.conn.send(message)

    def stop(self, graceful: bool = True) -> None:
        if graceful and self.process.is_alive():
            try:
                self.conn.send(("shutdown",))
            except (OSError, ValueError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.join(timeout=0.5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()


@dataclass
class _BatchState:
    """Parent-side bookkeeping for one in-flight batch on one worker."""

    items: list  # [(global_index, block), ...] in dispatch order
    shm: shared_memory.SharedMemory | None
    dispatched_at: float
    deadline: float | None
    completed: set = field(default_factory=set)
    done: bool = False

    def undone(self) -> list:
        return [(i, b) for i, b in self.items if i not in self.completed]

    def release(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


class PoolChamberBackend:
    """A persistent pool of chamber workers with batched block dispatch.

    Parameters
    ----------
    workers:
        Number of persistent worker processes (>= 1).
    timing:
        Cycle-budget policy; the budget is enforced in the worker
        (post-hoc ``exceeded`` + in-worker padding) and backstopped by a
        parent-side deadline that kills and replaces a hung worker.
    batch_size:
        Blocks per dispatch message; ``None`` picks
        ``ceil(blocks / (4 * workers))`` so each worker sees a few
        batches per query (amortizes IPC, keeps scheduling dynamic).
    shm_threshold_bytes:
        Minimum block payload size routed through shared memory.
    start_method:
        Multiprocessing start method; ``fork`` (Linux) keeps worker
        startup cheap and inherits loaded modules.
    metrics:
        Registry receiving the pool's release-safe telemetry; ``None``
        uses the process default.
    """

    def __init__(
        self,
        workers: int = 2,
        timing: TimingDefense | None = None,
        batch_size: int | None = None,
        shm_threshold_bytes: int = DEFAULT_SHM_THRESHOLD_BYTES,
        start_method: str = "fork",
        metrics: MetricsRegistry | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for auto)")
        self._num_workers = workers
        self._timing = timing or TimingDefense(cycle_budget=None)
        self._batch_size = batch_size
        self._shm_threshold = shm_threshold_bytes
        self._context = multiprocessing.get_context(start_method)
        self._metrics = metrics
        self._workers: list[_WorkerHandle] = []
        self._program_bytes: bytes | None = None
        # The dispatch protocol is stateful (program broadcast, busy
        # slots, per-batch shm segments), so concurrent queries — e.g.
        # scheduler workers sharing one pool — serialize here.  Block
        # parallelism still comes from the worker processes underneath.
        self._dispatch_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._num_workers

    @property
    def timing(self) -> TimingDefense:
        return self._timing

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_pool_worker, args=(child_conn, self._timing), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, conn=parent_conn)

    def _ensure_started(self) -> None:
        if self._workers:
            return
        self._workers = [self._spawn_worker() for _ in range(self._num_workers)]
        registry = self._registry()
        registry.gauge("pool.workers").set(self._num_workers)
        # Materialize the restart counter at zero so snapshots always
        # carry it, restarts or not.
        registry.counter("pool.worker_restarts").inc(0)

    def close(self) -> None:
        """Shut the pool down; the next run transparently restarts it."""
        with self._dispatch_lock:
            for worker in self._workers:
                worker.stop()
            self._workers = []
            self._program_bytes = None

    def __enter__(self) -> "PoolChamberBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------
    def run_blocks(
        self,
        program: AnalystProgram,
        blocks: Sequence[np.ndarray],
        output_dimension: int,
        fallback: np.ndarray,
        program_bytes: bytes | None = None,
    ) -> list[BlockExecution]:
        """Run ``program`` on every block; one outcome per block, in order.

        ``program_bytes`` lets a caller that already pickled the program
        (to test picklability) avoid serializing it twice.
        """
        fallback = np.asarray(fallback, dtype=float).ravel()
        if program_bytes is None:
            program_bytes = pickle.dumps(program)
        with self._dispatch_lock:
            return self._run_blocks_locked(
                blocks, output_dimension, fallback, program_bytes
            )

    def _run_blocks_locked(
        self, blocks, output_dimension, fallback, program_bytes
    ) -> list[BlockExecution]:
        self._ensure_started()
        registry = self._registry()

        batch_size = self._batch_size or max(
            1, math.ceil(len(blocks) / (4 * self._num_workers))
        )
        registry.gauge("pool.batch_size").set(batch_size)
        self._broadcast_program(program_bytes, registry)

        indexed = list(enumerate(blocks))
        pending: deque = deque(
            indexed[i : i + batch_size] for i in range(0, len(indexed), batch_size)
        )
        results: dict[int, BlockExecution] = {}
        latencies: list[float] = []
        busy: dict[int, _BatchState] = {}  # worker slot -> in-flight batch

        while pending or busy:
            # Hand batches to idle workers.
            for slot, worker in enumerate(self._workers):
                if slot in busy or not pending:
                    continue
                batch = pending.popleft()
                state = self._dispatch(worker, batch)
                if state is None:  # dead worker: replace, requeue batch
                    pending.appendleft(batch)
                    self._replace_worker(slot, registry)
                    continue
                busy[slot] = state

            if not busy:
                continue

            timeout = None
            if self._timing.enabled:
                now = time.perf_counter()
                timeout = max(
                    0.0,
                    min(s.deadline for s in busy.values() if s.deadline is not None)
                    - now,
                )
            conn_to_slot = {self._workers[slot].conn: slot for slot in busy}
            ready = _wait_connections(list(conn_to_slot), timeout)

            for conn in ready:
                slot = conn_to_slot[conn]
                state = busy[slot]
                alive = self._drain(
                    slot, state, results, latencies, output_dimension, fallback, registry
                )
                if state.done:
                    self._finish_batch(state, registry)
                    del busy[slot]
                elif not alive:
                    self._handle_worker_failure(
                        slot, busy.pop(slot), results, latencies, pending,
                        fallback, registry, killed=False,
                    )

            if self._timing.enabled:
                now = time.perf_counter()
                for slot in list(busy):
                    state = busy[slot]
                    if state.deadline is not None and now > state.deadline:
                        self._handle_worker_failure(
                            slot, busy.pop(slot), results, latencies, pending,
                            fallback, registry, killed=True,
                        )

        registry.histogram("blocks.latency_seconds").observe_many(latencies)
        return [results[i] for i in range(len(indexed))]

    # -- helpers ---------------------------------------------------------
    def _broadcast_program(self, program_bytes: bytes, registry) -> None:
        self._program_bytes = program_bytes
        for slot, worker in enumerate(self._workers):
            try:
                worker.send(("program", program_bytes))
            except (OSError, ValueError):
                self._replace_worker(slot, registry)

    def _deadline(self) -> float | None:
        if not self._timing.enabled:
            return None
        budget = self._timing.cycle_budget
        # Slack absorbs IPC latency and unpickling; the post-hoc
        # ``exceeded`` check is the precise enforcement, this deadline
        # only catches blocks that never come back at all.
        return time.perf_counter() + budget + max(0.1, 0.5 * budget)

    def _pack(self, batch) -> tuple[shared_memory.SharedMemory | None, list]:
        arrays = [
            (index, np.ascontiguousarray(np.asarray(block, dtype=float)))
            for index, block in batch
        ]
        shm_bytes = sum(a.nbytes for _, a in arrays if a.nbytes >= self._shm_threshold)
        segment = None
        if shm_bytes > 0:
            segment = shared_memory.SharedMemory(create=True, size=shm_bytes)
        descriptors = []
        offset = 0
        for index, array in arrays:
            if segment is not None and array.nbytes >= self._shm_threshold:
                destination = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=segment.buf, offset=offset
                )
                destination[...] = array
                descriptors.append(
                    (index, ("shm", segment.name, offset, array.shape, array.dtype.str))
                )
                offset += array.nbytes
            else:
                descriptors.append((index, ("pickle", array)))
        return segment, descriptors

    def _dispatch(self, worker: _WorkerHandle, batch) -> _BatchState | None:
        segment, descriptors = self._pack(batch)
        try:
            worker.send(("batch", descriptors))
        except (OSError, ValueError):
            if segment is not None:
                segment.close()
                segment.unlink()
            return None
        return _BatchState(
            items=list(batch),
            shm=segment,
            dispatched_at=time.perf_counter(),
            deadline=self._deadline(),
        )

    def _drain(
        self, slot, state, results, latencies, output_dimension, fallback, registry
    ) -> bool:
        """Consume every queued message from one worker; False on EOF."""
        conn = self._workers[slot].conn
        try:
            while conn.poll():
                message = conn.recv()
                if message[0] == "batch-done":
                    state.done = True
                    continue
                _, index, status, payload, elapsed, padded = message
                killed = self._timing.exceeded(elapsed)
                output = None
                if status == "ok" and not killed:
                    output = _coerce_output(payload, output_dimension)
                if output is None:
                    results[index] = BlockExecution(
                        output=np.array(fallback, dtype=float),
                        succeeded=False,
                        killed=killed,
                        elapsed=elapsed,
                    )
                else:
                    results[index] = BlockExecution(
                        output=output, succeeded=True, killed=False, elapsed=elapsed
                    )
                state.completed.add(index)
                state.deadline = self._deadline()
                _record_chamber_metrics(self._metrics, killed=killed, padded=padded)
                latencies.append(elapsed + padded)
        except (EOFError, OSError):
            return False
        return True

    def _finish_batch(self, state: _BatchState, registry) -> None:
        registry.histogram("pool.dispatch_seconds").observe(
            time.perf_counter() - state.dispatched_at
        )
        state.release()

    def _handle_worker_failure(
        self, slot, state, results, latencies, pending, fallback, registry, killed
    ) -> None:
        """A worker hung (killed=True) or died: substitute, requeue, heal.

        The block the worker was on gets the constant fallback — with
        killed semantics when the cycle budget ran out, plain failure
        when the worker crashed.  Blocks behind it in the batch are
        re-dispatched untouched.
        """
        undone = state.undone()
        if undone:
            first_index = undone[0][0]
            elapsed = (
                float(self._timing.cycle_budget)
                if killed and self._timing.enabled
                else 0.0
            )
            results[first_index] = BlockExecution(
                output=np.array(fallback, dtype=float),
                succeeded=False,
                killed=killed,
                elapsed=elapsed,
            )
            _record_chamber_metrics(self._metrics, killed=killed, padded=0.0)
            latencies.append(elapsed)
            remainder = undone[1:]
            if remainder:
                pending.appendleft(remainder)
        registry.histogram("pool.dispatch_seconds").observe(
            time.perf_counter() - state.dispatched_at
        )
        state.release()
        self._replace_worker(slot, registry)

    def _replace_worker(self, slot: int, registry) -> None:
        self._workers[slot].kill()
        replacement = self._spawn_worker()
        if self._program_bytes is not None:
            try:
                replacement.send(("program", self._program_bytes))
            except (OSError, ValueError):  # pragma: no cover - spawn raced
                pass
        self._workers[slot] = replacement
        registry.counter("pool.worker_restarts").inc()


__all__ = [
    "PoolChamberBackend",
    "DEFAULT_SHM_THRESHOLD_BYTES",
]
