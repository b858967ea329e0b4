"""Sliding-window estimator: exactness, occupancy, refresh, determinism."""

from __future__ import annotations

import random
from collections import deque

import pytest

from conftest import bits
from impurity_stream import (
    EntropyState,
    GiniState,
    SlidingWindowEstimator,
    entropy_exact,
    gini_exact,
)


def feed(estimator, labels):
    for label in labels:
        estimator.observe(label)
    return estimator


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SlidingWindowEstimator(0)

    def test_rejects_negative_refresh(self):
        with pytest.raises(ValueError):
            SlidingWindowEstimator(4, refresh_period=-1)

    def test_fresh_estimator_reports_zero(self):
        est = SlidingWindowEstimator(2)
        assert est.metrics() == (0.0, 0.0)
        assert len(est) == 0


class TestObserve:
    def test_pure_window_stays_exactly_zero(self):
        est = feed(SlidingWindowEstimator(3), ["a", "a", "a"])
        gini_value, entropy_value = est.metrics()
        assert bits(gini_value) == bits(0.0)
        assert bits(entropy_value) == bits(0.0)

    def test_eviction_keeps_only_recent_labels(self):
        est = feed(SlidingWindowEstimator(2), ["a", "b", "a"])
        assert list(est.window) == ["b", "a"]
        assert est.counts == {"b": 1, "a": 1}
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.5, abs=1e-12)
        assert entropy_value == pytest.approx(1.0, abs=1e-12)

    def test_window_collapsing_back_to_pure(self):
        est = feed(SlidingWindowEstimator(2), ["a", "b", "b"])
        assert list(est.window) == ["b", "b"]
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.0, abs=1e-12)
        assert entropy_value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_window_of_four(self):
        est = feed(SlidingWindowEstimator(4), ["a", "b", "c", "d"])
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.75, abs=1e-12)
        assert entropy_value == pytest.approx(2.0, abs=1e-12)

    def test_single_slot_window_is_always_pure(self):
        est = SlidingWindowEstimator(1)
        rng = random.Random(5)
        for _ in range(50):
            est.observe(rng.randrange(4))
            assert est.metrics() == (0.0, 0.0)
            assert len(est) == 1


class TestBookkeeping:
    def test_occupancy_never_exceeds_capacity(self):
        rng = random.Random(17)
        est = SlidingWindowEstimator(8)
        for _ in range(200):
            est.observe(rng.randrange(5))
            assert len(est.window) <= 8

    def test_steady_state_totals_are_integral(self):
        rng = random.Random(18)
        est = SlidingWindowEstimator(16)
        for i in range(100):
            est.observe(rng.randrange(3))
            if i >= 15:
                assert len(est.window) == 16
                assert sum(est.counts.values()) == 16
                assert len(est) == 16

    def test_determinism_bitwise(self):
        rng = random.Random(19)
        stream = [rng.randrange(6) for _ in range(500)]
        a = SlidingWindowEstimator(32, refresh_period=7)
        b = SlidingWindowEstimator(32, refresh_period=7)
        for label in stream:
            a.observe(label)
            b.observe(label)
            ga, ha = a.metrics()
            gb, hb = b.metrics()
            assert bits(ga) == bits(gb)
            assert bits(ha) == bits(hb)


class TestWindowExactness:
    @pytest.mark.parametrize("classes,capacity", [(2, 10), (7, 64), (50, 16)])
    def test_tracks_oracle_without_refresh(self, classes, capacity):
        rng = random.Random(classes * 1000 + capacity)
        est = SlidingWindowEstimator(capacity)
        for _ in range(10_000):
            est.observe(rng.randrange(classes))
            gini_value, entropy_value = est.metrics()
            assert abs(gini_value - gini_exact(est.counts)) <= 1e-6
            assert abs(entropy_value - entropy_exact(est.counts)) <= 1e-6

    def test_tracks_oracle_tightly_with_refresh(self):
        rng = random.Random(77)
        est = SlidingWindowEstimator(64, refresh_period=1000)
        for _ in range(10_000):
            est.observe(rng.randrange(7))
            gini_value, entropy_value = est.metrics()
            assert abs(gini_value - gini_exact(est.counts)) <= 1e-9
            assert abs(entropy_value - entropy_exact(est.counts)) <= 1e-9


class TestInlinedTransitions:
    @pytest.mark.parametrize("refresh_period", [0, 13])
    @pytest.mark.parametrize("capacity", [1, 2, 37, 1000])
    def test_bit_identical_to_state_fold(self, capacity, refresh_period):
        """observe() equals folding GiniState/EntropyState inc/dec, bit for bit."""
        rng = random.Random(capacity * 100 + refresh_period)
        stream = rng.choices(range(60), weights=[1.0 / (r + 1) for r in range(60)], k=20_000)
        est = SlidingWindowEstimator(capacity, refresh_period)
        recent = deque()
        counts = {}
        g, h = GiniState(), EntropyState()
        since_refresh = 0
        for label in stream:
            if len(recent) >= capacity:
                oldest = recent.popleft()
                after = counts[oldest] - 1
                if after:
                    counts[oldest] = after
                else:
                    del counts[oldest]
                g, h = g.dec(after), h.dec(after)
            before = counts.get(label, 0)
            recent.append(label)
            counts[label] = before + 1
            g, h = g.inc(before), h.inc(before)
            since_refresh += 1
            if refresh_period and since_refresh >= refresh_period:
                g, h = GiniState.from_counts(counts), EntropyState.from_counts(counts)
                since_refresh = 0

            est.observe(label)
            assert float(len(est)).hex() == g.total.hex() == h.total.hex()
            assert est.g.hex() == g.value.hex()
            assert est.h.hex() == h.value.hex()


class TestRefresh:
    def test_refresh_counter_resets(self):
        est = SlidingWindowEstimator(8, refresh_period=5)
        for i in range(5):
            est.observe("a")
        assert est.events_since_refresh == 0

    def test_refresh_installs_exact_states(self):
        rng = random.Random(23)
        est = SlidingWindowEstimator(8, refresh_period=13)
        for i in range(1, 40):
            est.observe(rng.randrange(3))
            if i % 13 == 0:
                expected_g = GiniState.from_counts(est.counts)
                expected_h = EntropyState.from_counts(est.counts)
                assert bits(est.g) == bits(expected_g.value)
                assert bits(est.h) == bits(expected_h.value)

    def test_manual_refresh_matches_from_counts(self):
        est = feed(SlidingWindowEstimator(4), ["a", "b", "b", "c"])
        est.refresh()
        assert GiniState(float(len(est)), est.g) == GiniState.from_counts({"a": 1, "b": 2, "c": 1})
        assert est.events_since_refresh == 0
