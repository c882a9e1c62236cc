"""User-level privacy: grouped block partitioning (§8.1).

Record-level differential privacy protects single rows; when several
rows belong to the same user, an adversary can still learn about the
user from their other rows.  The paper lists user-level privacy as the
natural strengthening.  Under sample-and-aggregate the fix is purely a
partitioning change: place *all* rows of a user in the same block, so
that adding or removing an entire user still moves at most one block
output per resampling round — the same sensitivity the noise is already
calibrated for.

:func:`grouped_plan` builds such a plan.  Blocks are balanced greedily
by row count (largest group into the currently smallest block), so the
per-block workloads stay comparable even with skewed user activity.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockPlan
from repro.exceptions import GuptError
from repro.mechanisms.rng import RandomSource, as_generator


def grouped_plan(
    groups,
    num_blocks: int,
    resampling_factor: int = 1,
    rng: RandomSource = None,
) -> BlockPlan:
    """Draw a block plan that never splits a group across blocks.

    Parameters
    ----------
    groups:
        Length-n array of group (user) identifiers, one per record.
    num_blocks:
        Number of blocks per resampling round; must not exceed the
        number of distinct groups.
    resampling_factor:
        gamma >= 1 independent rounds, exactly as in record-level
        partitioning; one *user* then influences at most gamma blocks.
    """
    labels = np.asarray(groups)
    if labels.ndim != 1 or labels.size == 0:
        raise GuptError("groups must be a non-empty 1-D array")
    if num_blocks < 1:
        raise GuptError(f"num_blocks must be >= 1, got {num_blocks}")
    if resampling_factor < 1:
        raise GuptError(f"resampling factor must be >= 1, got {resampling_factor}")

    unique, inverse = np.unique(labels, return_inverse=True)
    if num_blocks > unique.size:
        raise GuptError(
            f"cannot spread {unique.size} groups over {num_blocks} blocks"
        )
    rows_per_group: list[np.ndarray] = [
        np.flatnonzero(inverse == g) for g in range(unique.size)
    ]
    generator = as_generator(rng)

    blocks: list[np.ndarray] = []
    for _ in range(resampling_factor):
        order = generator.permutation(unique.size)
        # Greedy balanced assignment: biggest group first, into the block
        # with the fewest rows so far.
        by_size = sorted(order, key=lambda g: -rows_per_group[g].size)
        bins: list[list[np.ndarray]] = [[] for _ in range(num_blocks)]
        loads = np.zeros(num_blocks, dtype=int)
        for group in by_size:
            target = int(loads.argmin())
            bins[target].append(rows_per_group[group])
            loads[target] += rows_per_group[group].size
        for rows in bins:
            blocks.append(np.sort(np.concatenate(rows)))

    # Block sizes vary with group sizes; report the typical size for
    # metadata purposes.  Blocks that all came out the same size keep
    # the rectangular index matrix the stacked execution path gathers.
    typical = int(round(labels.size / num_blocks))
    uniform = len({block.size for block in blocks}) == 1
    return BlockPlan(
        num_records=int(labels.size),
        block_size=max(1, typical),
        resampling_factor=resampling_factor,
        blocks=np.vstack(blocks) if uniform else tuple(blocks),
    )
