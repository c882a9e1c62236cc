"""Integration-grade tests for the GuptRuntime facade."""

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.budget_estimation import AccuracyGoal
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import HelperRange, LooseOutputRange, TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import (
    GuptError,
    InvalidPrivacyParameter,
    PrivacyBudgetExhausted,
)
from repro.observability import MetricsRegistry


@pytest.fixture
def manager(rng):
    manager = DatasetManager()
    ages = rng.normal(40, 10, size=5000).clip(0, 150)
    manager.register(
        "census",
        DataTable(ages, column_names=["age"], input_ranges=[(0.0, 150.0)]),
        total_budget=50.0,
        aged_fraction=0.2,
        rng=0,
    )
    return manager


@pytest.fixture
def runtime(manager):
    return GuptRuntime(manager, rng=7)


class TestBasicRun:
    def test_tight_range_query(self, runtime, manager):
        result = runtime.run("census", Mean(), TightRange((0.0, 150.0)), epsilon=5.0)
        live_mean = manager.get("census").table.values.mean()
        assert result.scalar() == pytest.approx(live_mean, abs=3.0)

    def test_budget_charged_exactly(self, runtime, manager):
        runtime.run("census", Mean(), TightRange((0.0, 150.0)), epsilon=2.0)
        assert manager.get("census").budget.spent == pytest.approx(2.0)

    def test_ledger_records_query_name(self, runtime, manager):
        runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
            query_name="avg-age",
        )
        assert manager.get("census").ledger.by_query() == {"avg-age": 1.0}

    def test_unknown_dataset_rejected(self, runtime):
        with pytest.raises(GuptError):
            runtime.run("missing", Mean(), TightRange((0.0, 1.0)), epsilon=1.0)

    def test_budget_exhaustion_blocks_query(self, rng):
        manager = DatasetManager()
        manager.register("tiny", DataTable(rng.uniform(size=100)), total_budget=1.0)
        runtime = GuptRuntime(manager, rng=0)
        runtime.run("tiny", Mean(), TightRange((0.0, 1.0)), epsilon=1.0)
        with pytest.raises(PrivacyBudgetExhausted):
            runtime.run("tiny", Mean(), TightRange((0.0, 1.0)), epsilon=0.5)

    def test_epsilon_and_accuracy_mutually_exclusive(self, runtime):
        with pytest.raises(GuptError):
            runtime.run("census", Mean(), TightRange((0.0, 150.0)))
        with pytest.raises(GuptError):
            runtime.run(
                "census", Mean(), TightRange((0.0, 150.0)),
                epsilon=1.0, accuracy=AccuracyGoal(rho=0.9, delta=0.1),
            )

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("inf")])
    def test_invalid_epsilon_rejected(self, runtime, epsilon):
        with pytest.raises(InvalidPrivacyParameter):
            runtime.run("census", Mean(), TightRange((0.0, 150.0)), epsilon=epsilon)


class TestBudgetSplits:
    def test_tight_spends_everything_on_noise(self, runtime):
        result = runtime.run("census", Mean(), TightRange((0.0, 150.0)), epsilon=2.0)
        assert result.epsilon_noise == pytest.approx(2.0)
        assert result.epsilon_range == 0.0

    def test_loose_splits_theorem1(self, runtime):
        result = runtime.run(
            "census", Mean(), LooseOutputRange((0.0, 150.0)), epsilon=2.0
        )
        assert result.epsilon_noise == pytest.approx(1.0)
        assert result.epsilon_range == pytest.approx(1.0)
        assert result.epsilon_total == pytest.approx(2.0)

    def test_helper_splits_theorem1(self, runtime):
        result = runtime.run(
            "census", Mean(), HelperRange(lambda r: [r[0]]), epsilon=2.0
        )
        assert result.epsilon_noise == pytest.approx(1.0)
        assert result.epsilon_range == pytest.approx(1.0)

    def test_loose_range_lies_within_declared(self, runtime):
        result = runtime.run(
            "census", Mean(), LooseOutputRange((0.0, 150.0)), epsilon=10.0
        )
        assert 0.0 <= result.output_ranges[0].lo <= result.output_ranges[0].hi <= 150.0

    def test_loose_estimate_is_accurate_at_high_epsilon(self, runtime, manager):
        result = runtime.run(
            "census", Mean(), LooseOutputRange((0.0, 150.0)), epsilon=40.0
        )
        live_mean = manager.get("census").table.values.mean()
        assert result.scalar() == pytest.approx(live_mean, abs=3.0)

    def test_helper_uses_dataset_input_ranges(self, runtime, manager):
        result = runtime.run(
            "census", Mean(), HelperRange(lambda r: [r[0]]), epsilon=20.0
        )
        live_mean = manager.get("census").table.values.mean()
        # Quartile range of ages surrounds the mean.
        assert result.output_ranges[0].lo < live_mean < result.output_ranges[0].hi


class TestBlockSizeModes:
    def test_explicit_block_size(self, runtime):
        result = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0, block_size=40
        )
        assert result.block_size == 40
        assert result.num_blocks == 4000 // 40

    def test_default_is_n_to_the_0_6(self, runtime):
        result = runtime.run("census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0)
        assert result.block_size == round(4000**0.6)

    def test_auto_uses_aged_data(self, runtime):
        result = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
            block_size="auto",
        )
        # Mean has no estimation error: the optimizer must pick tiny blocks.
        assert result.block_size <= 5

    def test_auto_without_aged_data_rejected(self, rng):
        manager = DatasetManager()
        manager.register("plain", DataTable(rng.uniform(size=200)), total_budget=10.0)
        runtime = GuptRuntime(manager, rng=0)
        with pytest.raises(GuptError):
            runtime.run(
                "plain", Mean(), TightRange((0.0, 1.0)), epsilon=1.0,
                block_size="auto",
            )

    def test_auto_with_helper_rejected(self, runtime):
        with pytest.raises(GuptError):
            runtime.run(
                "census", Mean(), HelperRange(lambda r: [r[0]]), epsilon=1.0,
                block_size="auto",
            )

    def test_unknown_mode_rejected(self, runtime):
        with pytest.raises(GuptError):
            runtime.run(
                "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
                block_size="magic",
            )

    def test_oversized_block_rejected(self, runtime):
        with pytest.raises(GuptError):
            runtime.run(
                "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
                block_size=10**6,
            )


class TestAccuracyGoals:
    def test_accuracy_goal_derives_epsilon(self, runtime):
        result = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)),
            accuracy=AccuracyGoal(rho=0.9, delta=0.1), block_size=50,
        )
        assert result.epsilon_was_estimated
        assert result.epsilon_total > 0

    def test_stricter_goal_costs_more(self, manager):
        def derived(rho):
            runtime = GuptRuntime(manager, rng=0)
            return runtime.run(
                "census", Mean(), TightRange((0.0, 150.0)),
                accuracy=AccuracyGoal(rho=rho, delta=0.1), block_size=50,
            ).epsilon_total

        assert derived(0.95) > derived(0.8)

    def test_accuracy_goal_without_aged_rejected(self, rng):
        manager = DatasetManager()
        manager.register("plain", DataTable(rng.uniform(size=200)), total_budget=10.0)
        runtime = GuptRuntime(manager, rng=0)
        with pytest.raises(GuptError):
            runtime.run(
                "plain", Mean(), TightRange((0.0, 1.0)),
                accuracy=AccuracyGoal(rho=0.9, delta=0.1),
            )

    def test_accuracy_goal_grossed_up_for_loose(self, manager):
        tight_runtime = GuptRuntime(manager, rng=0)
        tight = tight_runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)),
            accuracy=AccuracyGoal(rho=0.9, delta=0.1), block_size=50,
        )
        loose_runtime = GuptRuntime(manager, rng=0)
        loose = loose_runtime.run(
            "census", Mean(), LooseOutputRange((0.0, 150.0)),
            accuracy=AccuracyGoal(rho=0.9, delta=0.1), block_size=50,
        )
        # Loose must charge double: half its budget goes to the range.
        assert loose.epsilon_total == pytest.approx(2 * tight.epsilon_total, rel=0.01)
        assert loose.epsilon_noise == pytest.approx(tight.epsilon_noise, rel=0.01)


class TestOutputDimension:
    def test_inferred_from_program_attribute(self, runtime):
        result = runtime.run(
            "census",
            Mean(),  # has output_dimension = 1
            TightRange((0.0, 150.0)),
            epsilon=1.0,
        )
        assert result.value.shape == (1,)

    def test_explicit_override(self, runtime):
        result = runtime.run(
            "census",
            lambda block: [block.mean(), block.std()],
            TightRange([(0.0, 150.0), (0.0, 75.0)]),
            epsilon=2.0,
            output_dimension=2,
        )
        assert result.value.shape == (2,)

    def test_plain_callable_defaults_to_one(self, runtime):
        result = runtime.run(
            "census", lambda block: float(block.mean()),
            TightRange((0.0, 150.0)), epsilon=1.0,
        )
        assert result.value.shape == (1,)

    def test_invalid_dimension_rejected(self, runtime):
        with pytest.raises(GuptError):
            runtime.run(
                "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
                output_dimension=0,
            )


class TestResampling:
    def test_gamma_recorded(self, runtime):
        result = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
            block_size=100, resampling_factor=3,
        )
        assert result.resampling_factor == 3
        assert result.num_blocks == 3 * (4000 // 100)

    def test_gamma_does_not_change_noise_scale(self, runtime):
        plain = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0, block_size=100
        )
        resampled = runtime.run(
            "census", Mean(), TightRange((0.0, 150.0)), epsilon=1.0,
            block_size=100, resampling_factor=4,
        )
        assert resampled.noise_scales[0] == pytest.approx(plain.noise_scales[0])


class TestPlansDrawnFresh:
    """Every query draws and gathers its own plan (Algorithm 1)."""

    @staticmethod
    def _runtime(table, **kwargs):
        manager = DatasetManager()
        manager.register("d", table, total_budget=100.0)
        return GuptRuntime(manager, rng=0, **kwargs)

    @staticmethod
    def _uniform_table():
        values = np.random.default_rng(5).uniform(1.0, 10.0, size=(96, 1))
        return DataTable(values, column_names=("x",))

    def test_seeded_release_independent_of_backend(self):
        released = {}
        for backend in ("serial", "thread", "vectorized"):
            with self._runtime(self._uniform_table(), backend=backend) as runtime:
                released[backend] = runtime.run(
                    "d", Mean(), TightRange((0.0, 10.0)), epsilon=0.5,
                    block_size=8, rng=42,
                ).scalar()
        assert released["serial"] == released["thread"] == released["vectorized"]

    def test_mutating_program_cannot_corrupt_the_next_querys_release(self):
        # A program that reads its block and then zeroes it in place
        # only ever touches this query's own gather: the next query with
        # the same seed releases the same bits, and the registered
        # records are untouched.
        class ReadThenZero:
            output_dimension = 1

            def __call__(self, block):
                out = float(np.mean(block))
                block[...] = 0.0
                return out

        table = self._uniform_table()
        before = table.values.copy()
        with self._runtime(table, backend="vectorized") as runtime:
            first, second = (
                runtime.run(
                    "d", ReadThenZero(), TightRange((0.0, 10.0)), epsilon=0.5,
                    block_size=8, rng=42,
                ).scalar()
                for _ in range(2)
            )
            assert first == second
            assert np.array_equal(
                runtime.dataset_manager.get("d").table.values, before
            )

    @pytest.mark.parametrize(
        "group_sizes, ragged",
        [([8] * 12, False), ([30, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 16], True)],
        ids=["uniform", "ragged"],
    )
    def test_grouped_plans_run_on_every_backend(self, group_sizes, ragged):
        # Equal groups balance into a rectangular index matrix (the
        # stacked path); one oversized group leaves a ragged plan, which
        # the vectorized backend runs block by block.
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(len(group_sizes)), group_sizes).astype(float)
        table = DataTable(
            np.column_stack([rng.uniform(0, 10, size=labels.size), labels]),
            column_names=("x", "user"),
        )
        released = {}
        registry = MetricsRegistry()
        for backend in ("serial", "vectorized"):
            with self._runtime(table, backend=backend, metrics=registry) as runtime:
                released[backend] = runtime.run(
                    "d", Mean(), TightRange((0.0, 10.0)), epsilon=0.5,
                    block_size=16, group_by="user", rng=42,
                ).scalar()
        assert released["serial"] == released["vectorized"]
        counters = registry.snapshot()["counters"]
        assert ('vectorized.fallbacks{reason="ragged_blocks"}' in counters) == ragged
