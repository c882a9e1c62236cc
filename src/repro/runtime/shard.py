"""The shard protocol: public query parameters and the shard kernel.

Sample-and-aggregate makes block outputs iid clamped summaries, so the
expensive phase — planning, materializing and executing blocks — can be
partitioned across shard-owning nodes while only block outputs ever
cross the shard boundary (the Lin/Wang/Rane observation about
sampling-based DP analysis over partitioned data).  This module holds
the two pieces every executor of that protocol shares:

* :class:`ShardQuerySpec` — everything a node needs to run one query,
  all of it analyst-chosen or public geometry;
* :func:`execute_shard_rows` — plan, materialize and run one logical
  shard from ``spawn(plan_seed, S)[s]`` (the protocol of
  :func:`repro.core.blocks.draw_sharded_plan`), returning only its
  clamped ``(l_s, p)`` partial, success mask and elapsed time.

The coordinator that distributes shards, combines partials in shard
order and heals dead nodes is
:class:`repro.runtime.remote.RemoteShardBackend`: over TCP shard-node
processes (``backend="remote"``) or over local nodes forked on first
use and reached through socketpairs (``backend="sharded"``).  Because
shard plans are pure functions of ``(plan_seed, S, shard)`` and the
combine is ordered by shard index, a seeded release is bit-identical
for any node count and across any heal.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import draw_shard_local_plan
from repro.runtime.vectorized import (
    BatchOutputs,
    run_batch_blocks,
    run_stacked_serial,
    supports_batch,
)

#: Datasets resident at once, coordinator-side and on each node (the
#: two LRUs run on the same schedule).
DEFAULT_RESIDENT_DATASETS = 4


@dataclass(frozen=True)
class ShardQuerySpec:
    """Public parameters of one sharded query — everything a node needs.

    Every field is either analyst-chosen or public geometry; none is a
    function of record values.  ``clamp_lo``/``clamp_hi`` are the
    declared per-dimension output ranges (when the strategy knows them
    before sampling), letting nodes clamp block outputs *before* they
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


def execute_shard_rows(
    local_values: np.ndarray,
    spec: ShardQuerySpec,
    shard: int,
    program_bytes: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Plan, materialize and run one logical shard; returns its partial.

    ``local_values`` is exactly the shard's contiguous row slice (a node
    holds only this slice, pushed to it or curated by it).  The
    shard-local plan is a pure function of ``(plan_seed, shards,
    shard)``, so every executor of this function — any node, a healed
    replacement, an adopting sibling — computes the identical partial.  The returned outputs are already
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


__all__ = [
    "ShardQuerySpec",
    "DEFAULT_RESIDENT_DATASETS",
    "execute_shard_rows",
]
