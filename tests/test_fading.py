"""Fading-factor estimator: validation, reductions, bounds, fixpoints."""

from __future__ import annotations

import math
import random

import pytest

from conftest import bits
from impurity_stream import EntropyState, FadingEstimator, GiniState, plog2p


def feed(estimator, labels):
    for label in labels:
        estimator.observe(label)
    return estimator


class TestConstruction:
    @pytest.mark.parametrize("alpha", [1.0, 0.97, 0.5, 1e-6])
    def test_accepts_valid_factors(self, alpha):
        est = FadingEstimator(alpha)
        assert est.metrics() == (0.0, 0.0)
        assert est.n == 0

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, float("nan")])
    def test_rejects_out_of_range_factors(self, alpha):
        with pytest.raises(ValueError):
            FadingEstimator(alpha)


class TestObserve:
    def test_pure_pair_stays_zero(self):
        est = FadingEstimator(0.5)
        est.observe("a")
        assert est.metrics() == (0.0, 0.0)
        est.observe("a")
        assert est.metrics() == (0.0, 0.0)

    def test_two_class_split_after_two_events(self):
        # the faded terms multiply a zero, so any factor gives the exact split
        est = feed(FadingEstimator(0.5), ["a", "b"])
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.5, abs=1e-12)
        assert entropy_value == pytest.approx(1.0, abs=1e-12)

    def test_counts_stay_unweighted(self):
        est = feed(FadingEstimator(0.5), ["a", "b", "a"])
        assert est.counts == {"a": 2, "b": 1}
        assert est.n == 3

    def test_no_fading_matches_exact_metrics(self):
        est = feed(FadingEstimator(1.0), ["a", "a", "b"])
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.4444444444444444, abs=1e-12)
        assert entropy_value == pytest.approx(0.9182958340544896, abs=1e-12)


class TestInlinedRecurrence:
    @pytest.mark.parametrize("alpha", [1.0, 0.999, 0.5])
    def test_bit_identical_to_published_recurrence(self, alpha):
        """observe() equals the recurrence written with plog2p, bit for bit."""
        rng = random.Random(int(alpha * 1000))
        stream = rng.choices(range(40), weights=[1.0 / (r + 1) for r in range(40)], k=20_000)
        est = FadingEstimator(alpha)
        counts = {}
        n, g, h = 0, 0.0, 0.0
        for label in stream:
            n_i = counts.get(label, 0)
            new_n = n + 1
            g = 1.0 - (n * n * (1.0 - alpha * g) + 2.0 * n_i + 1.0) / (new_n * new_n)
            old_part = (n / new_n) * (alpha * h - math.log2(n / new_n)) if n else 0.0
            h = old_part - plog2p((n_i + 1) / new_n) + plog2p(n_i / new_n)
            n = new_n
            counts[label] = n_i + 1

            est.observe(label)
            assert est.g.hex() == g.hex()
            assert est.h.hex() == h.hex()
        assert est.n == n
        assert est.counts == counts

    @pytest.mark.parametrize(
        "raw",
        [float("nan"), -0.0, 0.0, -1e-17, 1e-17, 0.25, 1.0, 1.0 + 1e-15, 7.5]
        + [float("inf"), float("-inf")],
    )
    def test_clamp_matches_min_max(self, raw):
        """metrics() clamps like min/max: NaN and -0.0 report +0.0."""
        est = FadingEstimator(0.9)
        est.g = est.h = raw
        gini_value, entropy_value = est.metrics()
        assert bits(gini_value) == bits(min(1.0, max(0.0, raw)))
        assert bits(entropy_value) == bits(max(0.0, raw))


class TestNoFadingReduction:
    def test_trace_equals_incremental_chain(self):
        rng = random.Random(31)
        est = FadingEstimator(1.0)
        gini_state = GiniState()
        entropy_state = EntropyState()
        counts = {}
        for _ in range(10_000):
            label = rng.randrange(6)
            before = counts.get(label, 0)
            est.observe(label)
            gini_state = gini_state.inc(before)
            entropy_state = entropy_state.inc(before)
            counts[label] = before + 1
            assert abs(est.g - gini_state.value) <= 1e-9
            assert abs(est.h - entropy_state.value) <= 1e-9


class TestBounds:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_metrics_stay_in_range(self, alpha):
        classes = 6
        rng = random.Random(int(alpha * 1000))
        est = FadingEstimator(alpha)
        cap = math.log2(classes) + 1e-9
        for _ in range(10_000):
            est.observe(rng.randrange(classes))
            assert -1e-9 <= est.g <= 1.0 + 1e-9
            gini_value, entropy_value = est.metrics()
            assert 0.0 <= gini_value <= 1.0
            assert 0.0 <= entropy_value <= cap


class TestPureStreamFixpoint:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 1.0])
    def test_single_class_stream_is_exactly_zero(self, alpha):
        est = FadingEstimator(alpha)
        for _ in range(2000):
            est.observe("only")
            assert bits(est.g) == bits(0.0)
            assert bits(est.h) == bits(0.0)


class TestDeterminism:
    def test_same_stream_same_factor_bitwise_trace(self):
        rng = random.Random(41)
        stream = [rng.randrange(5) for _ in range(500)]
        a = FadingEstimator(0.9)
        b = FadingEstimator(0.9)
        for label in stream:
            a.observe(label)
            b.observe(label)
            assert bits(a.g) == bits(b.g)
            assert bits(a.h) == bits(b.h)
