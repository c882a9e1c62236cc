"""An independent golden for shard-protocol outputs.

The fault matrix and the soaks compare every coordinator release with
the outputs a healthy run *must* produce.  Those expected outputs are
computed here from first principles — the combined plan of
``draw_sharded_plan``, one gather, one program call per block, the
declared clamp — sharing no code with the coordinator, the nodes or
``execute_shard_rows``.  A bug in the shard kernel therefore cannot
hide by also being in the golden.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.core.blocks import draw_sharded_plan
from repro.runtime.shard import ShardQuerySpec


def reference_outputs(
    program_bytes: bytes, values: np.ndarray, spec: ShardQuerySpec
) -> np.ndarray:
    """The ``(l, p)`` block outputs a healthy sharded run of ``spec`` yields."""
    plan = draw_sharded_plan(
        spec.num_records,
        block_size=spec.block_size,
        resampling_factor=spec.resampling_factor,
        plan_seed=spec.plan_seed,
        shards=spec.shards,
    )
    stacked = plan.stack(np.asarray(values, dtype=float))
    program = pickle.loads(program_bytes)
    outputs = np.array(
        [
            np.asarray(program(block), dtype=float).reshape(spec.output_dimension)
            for block in stacked
        ]
    )
    assert np.isfinite(outputs).all(), "the golden run must succeed on every block"
    if spec.clamp_lo is not None:
        outputs = np.clip(
            outputs,
            np.asarray(spec.clamp_lo, dtype=float),
            np.asarray(spec.clamp_hi, dtype=float),
        )
    return outputs
