"""Sliding-window estimator: exactness, occupancy, refresh, determinism."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter, deque

import pytest

from conftest import bits
from impurity_stream import (
    EntropyState,
    GiniState,
    RefreshError,
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
        est = feed(SlidingWindowEstimator(3), [0, 0, 0])
        gini_value, entropy_value = est.metrics()
        assert bits(gini_value) == bits(0.0)
        assert bits(entropy_value) == bits(0.0)

    def test_eviction_keeps_only_recent_labels(self):
        est = feed(SlidingWindowEstimator(2), [0, 1, 0])
        assert list(est.window) == [1, 0]
        assert est.counts == [1, 1]
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.5, abs=1e-12)
        assert entropy_value == pytest.approx(1.0, abs=1e-12)

    def test_window_collapsing_back_to_pure(self):
        est = feed(SlidingWindowEstimator(2), [0, 1, 1])
        assert list(est.window) == [1, 1]
        assert est.counts == [0, 2]
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.0, abs=1e-12)
        assert entropy_value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_window_of_four(self):
        est = feed(SlidingWindowEstimator(4), [0, 1, 2, 3])
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
                assert sum(est.counts) == 16
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


class TestLabels:
    """A label is a dense class id: an int >= 0."""

    @staticmethod
    def snapshot(est):
        return (list(est.window), list(est.counts), est.sums, est.events_since_refresh)

    def test_negative_id_changes_nothing(self):
        est = feed(SlidingWindowEstimator(3, refresh_period=5), [0, 1, 2, 1])
        before = self.snapshot(est)
        with pytest.raises(ValueError, match="negative"):
            est.observe(-1)
        with pytest.raises(ValueError, match="negative"):
            est.observe_many([2, -1, 0])
        with pytest.raises(ValueError, match="negative"):
            est.observe_block([0, 1, -3], 4, 1000)
        assert self.snapshot(est) == before

    def test_str_label_raises_type_error(self):
        est = feed(SlidingWindowEstimator(3), [0, 1])
        before = self.snapshot(est)
        with pytest.raises(TypeError):
            est.observe("a")
        with pytest.raises(TypeError):
            est.observe_many(["a", "b"])
        with pytest.raises(TypeError):
            est.observe_many([0, "b"])
        assert self.snapshot(est) == before

    def test_float_id_changes_nothing(self):
        """A float id raises TypeError before any change: in observe() on a
        full window, whose oldest id would leave first, and in mid-block in
        observe_many(), after ids that count in and grow the counts. The
        window then goes on as one that never saw those calls."""
        est = feed(SlidingWindowEstimator(2), [0, 1])
        before = self.snapshot(est)
        with pytest.raises(TypeError):
            est.observe(1.5)
        with pytest.raises(TypeError):
            est.observe_many([0, 1, 0, 5, 1.5, 1])
        with pytest.raises(TypeError):
            est.observe_many([1, 2.0])
        assert self.snapshot(est) == before
        est.observe_many([1, 3, 0])
        same_state(est, feed(SlidingWindowEstimator(2), [0, 1, 1, 3, 0]))

    def test_counts_grow_to_the_largest_id(self):
        est = SlidingWindowEstimator(2)
        est.observe_many([3, 1])
        assert est.counts == [0, 1, 0, 1]
        est.observe(5)
        assert est.counts == [0, 1, 0, 0, 0, 1]


class TestWindowExactness:
    @pytest.mark.parametrize("classes,capacity", [(2, 10), (7, 64), (50, 16)])
    def test_tracks_oracle_without_refresh(self, classes, capacity):
        rng = random.Random(classes * 1000 + capacity)
        est = SlidingWindowEstimator(capacity)
        for _ in range(10_000):
            est.observe(rng.randrange(classes))
            gini_value, entropy_value = est.metrics()
            counts = dict(enumerate(est.counts))
            assert abs(gini_value - gini_exact(counts)) <= 1e-6
            assert abs(entropy_value - entropy_exact(counts)) <= 1e-6

    def test_tracks_oracle_tightly_with_refresh(self):
        rng = random.Random(77)
        est = SlidingWindowEstimator(64, refresh_period=1000)
        for _ in range(10_000):
            est.observe(rng.randrange(7))
            gini_value, entropy_value = est.metrics()
            counts = dict(enumerate(est.counts))
            assert abs(gini_value - gini_exact(counts)) <= 1e-9
            assert abs(entropy_value - entropy_exact(counts)) <= 1e-9


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
        top = -1
        for label in zipf_stream(rng, 60, 20_000):
            est.observe(label)
            if len(recent) == capacity:
                tally[recent.popleft()] -= 1
            recent.append(label)
            tally[label] += 1
            top = max(top, label)
            assert est.counts == [tally[i] for i in range(top + 1)]
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
            est.observe(0)
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
                assert est.s2 == sum(c * c for c in est.counts)
                assert est.t == sum(scaled_plog2(c) for c in est.counts)
            assert (est.s2, est.t) == (twin.s2, twin.t)
            assert [bits(v) for v in est.metrics()] == [bits(v) for v in twin.metrics()]

    def test_manual_refresh_matches_from_counts(self):
        est = feed(SlidingWindowEstimator(4), [0, 1, 1, 2])
        sums, values = (est.s2, est.t), est.metrics()
        est.refresh()
        assert (est.s2, est.t) == sums
        assert est.metrics() == values
        assert est.events_since_refresh == 0
        counts = {0: 1, 1: 2, 2: 1}
        gini_value, entropy_value = est.metrics()
        assert gini_value == GiniState.from_counts(counts).value
        assert entropy_value == pytest.approx(EntropyState.from_counts(counts).value, abs=1e-15)

    def test_refresh_checks_the_sums(self):
        """A refresh compares the running sums with those of the counts and
        changes nothing when they differ."""
        est = feed(SlidingWindowEstimator(4, refresh_period=100), [0, 1, 1, 2, 0])
        est.sums += 1
        sums, since = est.sums, est.events_since_refresh
        with pytest.raises(RefreshError, match="do not match"):
            est.refresh()
        assert (est.sums, est.events_since_refresh) == (sums, since)

    @pytest.mark.parametrize("period", [1, 7, 64])
    def test_every_refresh_of_a_blocked_stream_passes(self, period):
        """observe_many's evictions keep the sums those of the counts, which
        every refresh checks: a block that lost an eviction's step fails here."""
        rng = random.Random(period)
        labels = [min(int(rng.paretovariate(1.0)), 40) for _ in range(3000)]
        est = SlidingWindowEstimator(50, refresh_period=period)
        for piece in random_pieces(rng, labels, [1, 3, 20, 64, 200]):
            est.observe_many(piece)
        assert est.sums == feed(SlidingWindowEstimator(50), labels).sums


def same_state(batched, folded):
    """Window, counts, power sums, refresh counter and metric bits all equal.

    A window rebuilt from state() holds a count, maybe 0, for every label of
    the table, so the counts are compared padded with zeros to one length."""
    assert list(batched.window) == list(folded.window)
    width = max(len(batched.counts), len(folded.counts))
    assert batched.counts + [0] * (width - len(batched.counts)) == folded.counts + [0] * (width - len(folded.counts))
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
                batched = SlidingWindowEstimator.from_state(batched.state(), events, range(40))
                same_state(batched, folded)

    @pytest.mark.parametrize("rebuilt", [False, True])
    def test_grows_steps_from_an_emptied_table(self, monkeypatch, rebuilt):
        """A new process starts with an empty step table; one batch must
        grow it as counts rise, on a new window and on one loaded from a
        state, which grows it only to the counts the state holds."""
        from impurity_stream import window as window_module

        head = [0, 1, 0, 0, 2]
        batch = [0] * 40 + [3, 0, 3] * 5
        folded = feed(SlidingWindowEstimator(17, refresh_period=11), head + batch)
        state = feed(SlidingWindowEstimator(17, refresh_period=11), head).state()
        monkeypatch.setattr(window_module, "_STEP", [])
        if rebuilt:
            batched = SlidingWindowEstimator.from_state(state, len(head), range(4))
            batched.observe_many(batch)
        else:
            batched = SlidingWindowEstimator(17, refresh_period=11)
            batched.observe_many(head + batch)
        same_state(batched, folded)
        assert batched.s2 == sum(c * c for c in batched.counts)
        assert batched.t == sum(scaled_plog2(c) for c in batched.counts)


class TestPackedSums:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("capacity", [1, 2, 7, 1000, 10**20])
    def test_sums_follow_the_definition(self, capacity, seed):
        """Over Zipf streams cut into blocks shorter and longer than the
        capacity, after every call sums == t·2**128 + s2 with s2 == sum c**2
        and t == sum P(c) over the last ``capacity`` labels; observe_many
        leaves the state that folding observe() leaves; and a window resumed
        through state() continues bit for bit."""
        rng = random.Random(seed * 1_000_003 + capacity % 1_000_003)
        classes = 50
        labels = zipf_stream(rng, classes, 6000)
        sizes = [1, 2, 3, 17, 256, 700, 2500]
        sizes += [capacity + d for d in (-1, 0, 1, capacity + 1) if 0 < capacity + d <= 3000]
        batched = SlidingWindowEstimator(capacity)
        folded = SlidingWindowEstimator(capacity)
        recent = deque(maxlen=min(capacity, sys.maxsize))
        events = 0
        for piece in random_pieces(rng, labels, sizes):
            batched.observe_many(piece)
            feed(folded, piece)
            recent.extend(piece)
            events += len(piece)
            tally = Counter(recent).values()
            s2 = sum(c * c for c in tally)
            t = sum(scaled_plog2(c) for c in tally)
            assert (batched.s2, batched.t) == (s2, t)
            assert batched.sums == t * 2**128 + s2
            same_state(batched, folded)
            if rng.random() < 0.1:
                batched = SlidingWindowEstimator.from_state(batched.state(), events, range(classes))
                same_state(batched, folded)
