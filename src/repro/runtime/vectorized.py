"""The vectorized block-execution fast path.

Sample-and-aggregate normally pays one chamber dispatch per block: for
the trivially vectorizable programs of the paper's Table 1 workloads
(mean, sum, count, variance) that dispatch cost — pickle round-trips,
per-block bookkeeping, ``l`` separate numpy reductions — dwarfs the
arithmetic.  An analyst program may therefore *declare a batch form*:

* ``program(block)`` — the black-box per-block contract, unchanged;
* ``program.run_batch(stacked)`` — the same computation over all blocks
  at once, taking the ``(l, block_size, d)`` stacked block array and
  returning the full ``(l, p)`` output matrix in one numpy call.

**Equivalence argument.**  The fast path changes only *who iterates*:
``run_batch`` must be the vectorization of ``__call__`` (numpy's
reductions over one axis of a stacked array visit each block's values
in the same order as the per-block call, so for the built-in estimators
the outputs are bit-identical), the stacked array rows are exactly the
blocks the plan materializes, and every per-block semantic is preserved
downstream: a row that is malformed or non-finite is substituted with
the constant in-range fallback (``succeeded=False``) exactly as a
failed chamber execution would be, and a batch call that raises falls
back to the chamber path wholesale.  Noise draws never happen here, so
a seeded query releases the same bits through ``vectorized`` as through
``serial``/``thread``/``pool``.

**What the fast path does not do.**  It runs the declared batch form
in-process without a chamber, so it must not weaken any chamber
defense it cannot reproduce:

* *state attack* — ``run_batch`` sees all blocks in one call anyway, so
  per-block instance freshness is vacuous; the program instance is
  still pickle-round-tripped once per query so no state survives
  *across* queries, and the batch call only ever receives a *read-only*
  view of the stacked blocks, so a batch form that mutates its input
  cannot corrupt the blocks the chamber path falls back to.
* *timing attack* — per-block kill-and-pad semantics cannot be applied
  to a single fused call, so whenever a cycle budget is configured the
  manager transparently degrades to the chamber path (counted in
  ``vectorized.fallbacks``).
"""

from __future__ import annotations

import copy
import pickle
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.runtime.sandbox import _coerce_output


@dataclass(frozen=True)
class BatchOutputs:
    """All block outcomes in matrix form.

    The fast path's native product — and the collected form of a
    chamber run.  Keeping outcomes as one ``(l, p)`` matrix plus a
    success mask (instead of ``l`` execution records) is what lets a
    vectorized query stay O(1) in Python-object work.
    """

    outputs: np.ndarray  # (l, p); malformed rows already substituted
    succeeded: np.ndarray  # (l,) bool mask
    elapsed: float  # wall-clock of the whole batch

    @property
    def num_blocks(self) -> int:
        return int(self.outputs.shape[0])


@runtime_checkable
class VectorizedProgram(Protocol):
    """An analyst program that also declares a batch form."""

    def __call__(self, block: np.ndarray) -> "float | np.ndarray":
        """The per-block contract every backend understands."""
        ...  # pragma: no cover - protocol declaration

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        """All block outputs at once: ``(l, block_size, d) -> (l, p)``."""
        ...  # pragma: no cover - protocol declaration


def supports_batch(program) -> bool:
    """Whether ``program`` declares a usable batch form."""
    return callable(getattr(program, "run_batch", None))


def stack_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray | None:
    """Stack uniform blocks into one ``(l, block_size, d)`` array.

    Callers that hold a plan-materialized stacked view should pass it
    through instead; this is the fallback for ad-hoc block lists.
    Returns ``None`` when block shapes are ragged (grouped plans).
    """
    if not blocks:
        return None
    first = blocks[0].shape
    if any(b.shape != first for b in blocks):
        return None
    return np.stack(blocks)


def _fresh_instance(program):
    """One fresh program instance per query (state-carryover defense)."""
    try:
        return pickle.loads(pickle.dumps(program))
    except Exception:
        try:
            return copy.deepcopy(program)
        except Exception:
            return program


def run_batch_blocks(
    program,
    stacked: np.ndarray,
    output_dimension: int,
    fallback: np.ndarray,
) -> BatchOutputs | None:
    """Execute the batch form; one well-formed outcome per block.

    Returns ``None`` when the batch call cannot be used at all (it
    raised, or returned something that is not an ``(l, p)`` matrix) —
    the caller then falls back to per-block chamber execution, so a
    broken batch form degrades to the slow path rather than refusing
    the query.  Individual malformed *rows* do not abort the batch:
    they get the constant fallback substitution, mirroring per-block
    chamber failures.
    """
    fallback = np.asarray(fallback, dtype=float).ravel()
    num_blocks = int(stacked.shape[0])
    instance = _fresh_instance(program)
    # The program sees a read-only view: a batch form that mutates its
    # input raises here and degrades to the chamber path, which then
    # runs on the blocks exactly as they were gathered.
    readonly = stacked.view()
    readonly.flags.writeable = False
    started = time.perf_counter()
    try:
        raw = instance.run_batch(readonly)
    except Exception:
        return None
    elapsed = time.perf_counter() - started

    try:
        matrix = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        return None
    if matrix.ndim == 1 and output_dimension == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.shape != (num_blocks, output_dimension):
        return None

    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        matrix = np.where(finite[:, None], matrix, fallback)
    elif matrix.base is not None:
        # Detach from whatever the program returned a view into (e.g.
        # the cached stacked array) before it escapes to aggregation.
        matrix = matrix.copy()
    return BatchOutputs(outputs=matrix, succeeded=finite, elapsed=elapsed)


def run_stacked_serial(
    program_bytes: bytes,
    stacked: np.ndarray,
    output_dimension: int,
    fallback: np.ndarray,
) -> BatchOutputs:
    """Per-block execution over a stacked array, collected in matrix form.

    The shard nodes' slow path: a program with no usable batch form
    runs block-by-block against a *fresh* ``pickle.loads`` instance per
    block — the same instance-freshness guarantee the chambers give, so
    no state can carry between blocks — with the chamber's malformed-
    output rule (fallback substitution, ``succeeded=False``).  Outputs
    are bit-identical to the serial chamber path for deterministic
    programs: same block values, same per-block call.
    """
    fallback = np.asarray(fallback, dtype=float).ravel()
    num_blocks = int(stacked.shape[0])
    outputs = np.empty((num_blocks, output_dimension), dtype=float)
    succeeded = np.zeros(num_blocks, dtype=bool)
    started = time.perf_counter()
    for i in range(num_blocks):
        # A writable per-block copy, matching the chamber path's contract
        # for frozen cached materializations: a program that mutates its
        # input scribbles on the copy, never on the shared stack — and
        # succeeds exactly when it would under the serial chamber.
        block = np.array(stacked[i])
        try:
            raw = pickle.loads(program_bytes)(block)
        except Exception:  # noqa: BLE001 - any failure becomes fallback
            raw = None
        vector = None if raw is None else _coerce_output(raw, output_dimension)
        if vector is None:
            outputs[i] = fallback
        else:
            outputs[i] = vector
            succeeded[i] = True
    return BatchOutputs(
        outputs=outputs,
        succeeded=succeeded,
        elapsed=time.perf_counter() - started,
    )
