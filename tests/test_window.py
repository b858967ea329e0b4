"""Sliding-window estimator: exactness, occupancy, refresh, determinism."""

from __future__ import annotations

import math
import random
from collections import Counter, deque

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


def scaled_plog2(count):
    """count * log2(count) as an exact int scaled by 2**52, 0 below 2."""
    return int(math.ldexp(count * math.log2(count), 52)) if count >= 2 else 0


def zipf_stream(rng, classes, k, s=1.0):
    return rng.choices(range(classes), weights=[1.0 / (r + 1) ** s for r in range(classes)], k=k)


class TestPowerSums:
    @pytest.mark.parametrize("refresh_period", [0, 13])
    @pytest.mark.parametrize("capacity", [1, 2, 37, 1000])
    def test_power_sums_match_definition(self, capacity, refresh_period):
        """After every event s2 == sum c**2 and t == sum P(c), exactly."""
        rng = random.Random(capacity * 100 + refresh_period)
        est = SlidingWindowEstimator(capacity, refresh_period)
        recent = deque()
        tally = Counter()
        for label in zipf_stream(rng, 60, 20_000):
            est.observe(label)
            if len(recent) == capacity:
                tally[recent.popleft()] -= 1
            recent.append(label)
            tally[label] += 1
            tally = +tally
            assert est.counts == tally
            assert est.s2 == sum(c * c for c in tally.values())
            assert est.t == sum(scaled_plog2(c) for c in tally.values())

    def test_no_drift_against_fsum_oracle(self):
        """1e5 Zipf events through a 5e4 window without refresh stay within
        1e-12 of metrics recomputed with math.fsum."""
        rng = random.Random(4242)
        capacity = 50_000
        est = SlidingWindowEstimator(capacity)
        recent = deque(maxlen=capacity)
        worst = 0.0
        for i, label in enumerate(zipf_stream(rng, 5_000, 100_000), 1):
            est.observe(label)
            recent.append(label)
            if i % 2_500 and i != 100_000:
                continue
            counts = Counter(recent).values()
            n = len(recent)
            expected_g = 1.0 - math.fsum((c / n) ** 2 for c in counts)
            expected_h = -math.fsum(c / n * math.log2(c / n) for c in counts)
            gini_value, entropy_value = est.metrics()
            worst = max(worst, abs(gini_value - expected_g), abs(entropy_value - expected_h))
        assert worst <= 1e-12


class TestRefresh:
    def test_refresh_counter_resets(self):
        est = SlidingWindowEstimator(8, refresh_period=5)
        for i in range(5):
            est.observe("a")
        assert est.events_since_refresh == 0

    def test_refresh_installs_exact_states(self):
        """A refresh rebuilds the power sums by definition, which changes no value."""
        rng = random.Random(23)
        est = SlidingWindowEstimator(8, refresh_period=13)
        twin = SlidingWindowEstimator(8)
        for i in range(1, 40):
            label = rng.randrange(3)
            est.observe(label)
            twin.observe(label)
            if i % 13 == 0:
                assert est.events_since_refresh == 0
                assert est.s2 == sum(c * c for c in est.counts.values())
                assert est.t == sum(scaled_plog2(c) for c in est.counts.values())
            assert (est.s2, est.t) == (twin.s2, twin.t)
            assert [bits(v) for v in est.metrics()] == [bits(v) for v in twin.metrics()]

    def test_manual_refresh_matches_from_counts(self):
        est = feed(SlidingWindowEstimator(4), ["a", "b", "b", "c"])
        sums, values = (est.s2, est.t), est.metrics()
        est.refresh()
        assert (est.s2, est.t) == sums
        assert est.metrics() == values
        assert est.events_since_refresh == 0
        counts = {"a": 1, "b": 2, "c": 1}
        gini_value, entropy_value = est.metrics()
        assert gini_value == GiniState.from_counts(counts).value
        assert entropy_value == pytest.approx(EntropyState.from_counts(counts).value, abs=1e-15)


def same_state(batched, folded):
    """Window, counts, power sums, refresh counter and metric bits all equal."""
    assert list(batched.window) == list(folded.window)
    assert batched.counts == folded.counts
    assert (batched.s2, batched.t) == (folded.s2, folded.t)
    assert batched.events_since_refresh == folded.events_since_refresh
    assert [bits(v) for v in batched.metrics()] == [bits(v) for v in folded.metrics()]


def random_pieces(rng, labels, sizes):
    """Consecutive pieces of ``labels``, each of a size drawn from ``sizes``."""
    start = 0
    while start < len(labels):
        size = rng.choice(sizes)
        yield labels[start : start + size]
        start += size


class TestObserveMany:
    @pytest.mark.parametrize("refresh_period", [0, 1, 3, 11])
    @pytest.mark.parametrize("capacity", [1, 2, 17, 1000])
    def test_equals_folding_observe(self, capacity, refresh_period):
        """Over random splits, some longer than the capacity and the refresh
        period, and across a rebuild from state(), observe_many leaves the
        state that observe() label by label leaves."""
        rng = random.Random(capacity * 100 + refresh_period)
        labels = zipf_stream(rng, 40, 4000)
        edges = {capacity, refresh_period}
        sizes = [0, 1, 2, 5, 64, 2 * capacity + 3, 3 * refresh_period + 1]
        sizes += [edge + d for edge in edges for d in (-1, 0, 1) if edge + d > 0]
        batched = SlidingWindowEstimator(capacity, refresh_period)
        folded = SlidingWindowEstimator(capacity, refresh_period)
        events = 0
        for piece in random_pieces(rng, labels, sizes):
            batched.observe_many(piece)
            feed(folded, piece)
            events += len(piece)
            same_state(batched, folded)
            if rng.random() < 0.05:
                batched = SlidingWindowEstimator.from_state(batched.state(), events, 40)
                same_state(batched, folded)

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_grows_steps_from_an_emptied_table(self, monkeypatch, rebuilt):
        """A new process starts with a one-entry step table; one batch must
        grow it as counts rise, on a new window and on one loaded from a
        state, which grows it only to the counts the state holds."""
        from impurity_stream import window as window_module

        head = [0, 1, 0, 0, 2]
        batch = [0] * 40 + [3, 0, 3] * 5
        folded = feed(SlidingWindowEstimator(17, refresh_period=11), head + batch)
        state = feed(SlidingWindowEstimator(17, refresh_period=11), head).state()
        monkeypatch.setattr(window_module, "_STEP", [0])
        if rebuilt:
            batched = SlidingWindowEstimator.from_state(state, len(head), 4)
            batched.observe_many(batch)
        else:
            batched = SlidingWindowEstimator(17, refresh_period=11)
            batched.observe_many(head + batch)
        same_state(batched, folded)
        assert batched.s2 == sum(c * c for c in batched.counts.values())
        assert batched.t == sum(scaled_plog2(c) for c in batched.counts.values())
