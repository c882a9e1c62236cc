"""GUPT's core: the sample-and-aggregate runtime and its optimizers.

* :mod:`repro.core.blocks` — block partitioning and gamma-resampling.
* :mod:`repro.core.aggregation` — clamp, average, add Laplace noise.
* :mod:`repro.core.range_estimation` — GUPT-tight / -loose / -helper.
* :mod:`repro.core.sample_aggregate` — Algorithm 1 with GUPT's extensions.
* :mod:`repro.core.aging` — the aging-of-sensitivity model (§3.3).
* :mod:`repro.core.block_size` — optimal block size via aged data (§4.3).
* :mod:`repro.core.budget_estimation` — accuracy goal -> epsilon (§5.1).
* :mod:`repro.core.budget_distribution` — epsilon across queries (§5.2).
* :mod:`repro.core.gupt` — the :class:`GuptRuntime` facade.
"""

from repro.core.blocks import BlockPlan, blocks_per_round
from repro.core.aggregation import NoisyAverageAggregator, OutputRange
from repro.core.range_estimation import (
    HelperRange,
    LooseOutputRange,
    RangeStrategy,
    TightRange,
)
from repro.core.sample_aggregate import SampleAggregateEngine, SampleAggregateResult
from repro.core.aging import AgedData, split_by_age
from repro.core.block_size import BlockSizeSearch, BlockSizeChoice
from repro.core.budget_estimation import AccuracyGoal, estimate_epsilon
from repro.core.budget_distribution import BudgetDistributor, QuerySpec
from repro.core.gupt import GuptRuntime
from repro.core.session import GuptSession, PlannedQuery
from repro.core.user_level import grouped_plan
from repro.core.result import GuptResult

__all__ = [
    "AccuracyGoal",
    "AgedData",
    "BlockPlan",
    "BlockSizeChoice",
    "BlockSizeSearch",
    "BudgetDistributor",
    "GuptResult",
    "GuptRuntime",
    "GuptSession",
    "HelperRange",
    "LooseOutputRange",
    "NoisyAverageAggregator",
    "OutputRange",
    "PlannedQuery",
    "QuerySpec",
    "RangeStrategy",
    "SampleAggregateEngine",
    "SampleAggregateResult",
    "TightRange",
    "blocks_per_round",
    "estimate_epsilon",
    "grouped_plan",
    "split_by_age",
]
