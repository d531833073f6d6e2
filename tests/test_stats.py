"""Tests for repro.utils.stats (replication statistics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.stats import (
    LatencyWindow,
    aggregate,
    bootstrap_ci,
    paired_sign_test,
    percentile,
    replicate,
)

floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    def test_matches_numpy_inverted_cdf(self):
        rng = np.random.default_rng(7)
        for n in range(1, 601):
            samples = rng.random(n).tolist()
            for q in (0.5, 0.9, 0.99):
                expected = float(
                    np.quantile(samples, q, method="inverted_cdf")
                )
                assert percentile(samples, q) == expected, (n, q)

    def test_small_windows_are_not_one_rank_low(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([float(v) for v in range(50)], 0.99) == 49.0
        assert percentile([7.0], 0.99) == 7.0

    def test_edges(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([2.0, 1.0], 0.0) == 1.0
        assert percentile([2.0, 1.0], 1.0) == 2.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLatencyWindow:
    @pytest.mark.parametrize(
        "window, samples",
        [
            (512, [0.3, 0.1, 0.2]),  # all kept: the median is the middle
            (2, [5.0, 1.0, 3.0]),  # the oldest sample slides out
            (4, [float(v) for v in range(10)]),
        ],
    )
    def test_counts_are_cumulative_quantiles_windowed(self, window, samples):
        latency = LatencyWindow(window)
        assert latency.snapshot() == {}
        for seconds in samples:
            latency.record("solve", seconds)
        latency.record("stats", 1.0)
        kept = samples[-window:]
        assert latency.snapshot() == {
            "solve": {
                "count": len(samples),
                "mean": sum(kept) / len(kept),
                "p50": percentile(kept, 0.50),
                "p99": percentile(kept, 0.99),
            },
            "stats": {"count": 1, "mean": 1.0, "p50": 1.0, "p99": 1.0},
        }

    def test_snapshot_matches_percentile_on_random_windows(self):
        rng = np.random.default_rng(11)
        for window in (1, 2, 7, 64, 512):
            latency = LatencyWindow(window)
            samples = rng.random(int(rng.integers(1, 3 * window + 2))).tolist()
            for seconds in samples:
                latency.record("solve", seconds)
            kept = samples[-window:]
            snapshot = latency.snapshot()["solve"]
            for key, q in (("p50", 0.50), ("p99", 0.99)):
                assert snapshot[key] == percentile(kept, q), (window, key)
                assert percentile(sorted(kept), q, presorted=True) == (
                    percentile(kept, q)
                )


class TestAggregate:
    def test_basic_statistics(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.count == 3
        assert agg.mean == pytest.approx(2.0)
        assert agg.std == pytest.approx(1.0)
        assert agg.minimum == 1.0
        assert agg.maximum == 3.0

    def test_single_value_has_zero_std(self):
        agg = aggregate([5.0])
        assert agg.std == 0.0
        assert agg.mean == 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_str_is_printable(self):
        text = str(aggregate([0.1, 0.2]))
        assert "±" in text and "n=2" in text

    @given(st.lists(floats, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_bounds_invariants(self, values):
        agg = aggregate(values)
        eps = 1e-9 * (1.0 + abs(agg.mean))
        assert agg.minimum - eps <= agg.mean <= agg.maximum + eps
        assert agg.std >= 0.0
        assert agg.count == len(values)


class TestBootstrapCI:
    def test_interval_contains_mean_for_symmetric_data(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=10.0, scale=1.0, size=60)
        low, high = bootstrap_ci(data, seed=1)
        assert low <= float(data.mean()) <= high

    def test_single_value_collapses(self):
        assert bootstrap_ci([3.5]) == (3.5, 3.5)

    def test_wider_confidence_widens_interval(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=40)
        narrow = bootstrap_ci(data, confidence=0.5, seed=3)
        wide = bootstrap_ci(data, confidence=0.99, seed=3)
        assert wide[0] <= narrow[0] and wide[1] >= narrow[1]

    def test_custom_statistic(self):
        data = [1.0, 2.0, 100.0]
        low, high = bootstrap_ci(
            data, statistic=np.median, seed=0, resamples=500
        )
        assert low >= 1.0 and high <= 100.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], resamples=0)

    @given(st.lists(floats, min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_interval_within_data_range(self, values):
        low, high = bootstrap_ci(values, seed=7, resamples=200)
        assert low >= min(values) - 1e-9
        assert high <= max(values) + 1e-9
        assert low <= high


class TestPairedSignTest:
    def test_clear_winner_small_p(self):
        first = [1.0] * 10
        second = [0.0] * 10
        assert paired_sign_test(first, second) == pytest.approx(2**-10)

    def test_clear_loser_large_p(self):
        assert paired_sign_test([0.0] * 8, [1.0] * 8) == pytest.approx(1.0)

    def test_all_ties_inconclusive(self):
        assert paired_sign_test([1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_balanced_differences_near_half(self):
        first = [1.0, 0.0, 1.0, 0.0]
        second = [0.0, 1.0, 0.0, 1.0]
        p = paired_sign_test(first, second)
        # P[X >= 2], X ~ Bin(4, 1/2) = 11/16.
        assert p == pytest.approx(11.0 / 16.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            paired_sign_test([1.0], [1.0, 2.0])

    @given(
        st.lists(floats, min_size=1, max_size=25),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_p_value_in_unit_interval(self, values, seed):
        rng = np.random.default_rng(seed)
        other = rng.normal(size=len(values)).tolist()
        p = paired_sign_test(values, other)
        assert 0.0 <= p <= 1.0


class TestReplicate:
    def test_runs_every_seed(self):
        seen = []
        values = replicate(lambda s: seen.append(s) or float(s), [3, 1, 4])
        assert seen == [3, 1, 4]
        assert values == [3.0, 1.0, 4.0]

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 0.0, [])
