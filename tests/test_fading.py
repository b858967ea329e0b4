"""Fading-factor estimator: validation, reductions, bounds, fixpoints."""

from __future__ import annotations

import math
import random

import pytest

from conftest import bits
from impurity_stream import EntropyState, FadingEstimator, GiniState


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
        est.observe(0)
        assert est.metrics() == (0.0, 0.0)
        est.observe(0)
        assert est.metrics() == (0.0, 0.0)

    def test_two_class_split_after_two_events(self):
        # the faded terms multiply a zero, so any factor gives the exact split
        est = feed(FadingEstimator(0.5), [0, 1])
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.5, abs=1e-12)
        assert entropy_value == pytest.approx(1.0, abs=1e-12)

    def test_counts_stay_unweighted(self):
        est = feed(FadingEstimator(0.5), [0, 1, 0])
        assert est.counts == [2, 1]
        assert est.n == 3

    def test_no_fading_matches_exact_metrics(self):
        est = feed(FadingEstimator(1.0), [0, 0, 1])
        gini_value, entropy_value = est.metrics()
        assert gini_value == pytest.approx(0.4444444444444444, abs=1e-12)
        assert entropy_value == pytest.approx(0.9182958340544896, abs=1e-12)


class TestLabels:
    """A label is a dense class id: an int >= 0."""

    @staticmethod
    def snapshot(est):
        return (list(est.counts), list(est.plogs), est.n, est.plog_n, est.d, est.u)

    def test_negative_id_changes_nothing(self):
        est = feed(FadingEstimator(0.9), [0, 1, 2, 1])
        before = self.snapshot(est)
        with pytest.raises(ValueError, match="negative"):
            est.observe(-1)
        with pytest.raises(ValueError, match="negative"):
            est.observe_block([2, -1, 0], 4, 1)
        assert self.snapshot(est) == before

    def test_str_label_raises_type_error(self):
        est = feed(FadingEstimator(0.9), [0, 1])
        before = self.snapshot(est)
        with pytest.raises(TypeError):
            est.observe("a")
        with pytest.raises(TypeError):
            est.observe_block(["a", "b"], 2, 1)
        assert self.snapshot(est) == before

    def test_float_id_changes_nothing(self):
        """A float id raises TypeError before any change: in observe(), and in
        mid-block in observe_block(), after ids that count in, grow the
        counts and write a row. The estimator then goes on bit for bit as
        one that never saw those calls."""
        est = feed(FadingEstimator(0.9), [0, 1, 1])
        before = [bits(v) if isinstance(v, float) else v for v in self.snapshot(est)]
        with pytest.raises(TypeError):
            est.observe(1.5)
        with pytest.raises(TypeError):
            est.observe_block([0, 1, 0, 6, 1.5, 2], 3, 2)
        with pytest.raises(TypeError):
            est.observe_block([1, 2.0], 3, 1)
        assert [bits(v) if isinstance(v, float) else v for v in self.snapshot(est)] == before
        assert [bits(v) for v in est.plogs] == [bits(v) for v in feed(FadingEstimator(0.9), [0, 1, 1]).plogs]
        rows = est.observe_block([1, 3, 0], 3, 1)
        reference = feed(FadingEstimator(0.9), [0, 1, 1])
        assert [bits(v) for v in rows] == [bits(v) for v in reference.observe_block([1, 3, 0], 3, 1)]
        assert (bits(est.d), bits(est.u), est.counts) == (bits(reference.d), bits(reference.u), reference.counts)

    def test_counts_grow_to_the_largest_id(self):
        est = FadingEstimator(0.9)
        est.observe_block([3, 1], 0, 1)
        assert est.counts == [0, 1, 0, 1]
        est.observe(5)
        assert est.counts == [0, 1, 0, 1, 0, 1]
        assert est.plogs == [0.0] * 6


LN2 = math.log(2.0)


def plog(x):
    """L(x) = x·log2(x), with L(0) = 0."""
    return x * math.log2(x) if x else 0.0


def step(x):
    """L(x+1) - L(x), without cancellation."""
    return math.log2(x + 1) + x * math.log1p(1.0 / x) / LN2 if x else 0.0


def skewed_stream(seed, k):
    rng = random.Random(seed)
    return rng.choices(range(40), weights=[1.0 / (r + 1) for r in range(40)], k=k)


class TestInlinedRecurrence:
    @pytest.mark.parametrize("alpha", [1.0, 0.999, 0.5])
    def test_bit_identical_to_published_recurrence(self, alpha):
        """observe() equals the published recurrence multiplied by (n+1)²
        and by n+1, written out here with L(x) = x·log2(x), bit for bit:
        d = n²·G and u = n·H."""
        est = FadingEstimator(alpha)
        counts = {}
        n, d, u = 0, 0.0, 0.0
        for label in skewed_stream(int(alpha * 1000), 20_000):
            c = counts.get(label, 0)
            d = alpha * d + 2.0 * (n - c)
            u = alpha * u + (plog(n + 1) - plog(n)) - (plog(c + 1) - plog(c))
            n += 1
            counts[label] = c + 1

            est.observe(label)
            assert est.d.hex() == d.hex()
            assert est.u.hex() == u.hex()
            gini_value, entropy_value = est.metrics()
            assert bits(gini_value) == bits(min(1.0, max(0.0, d / (n * n))))
            assert bits(entropy_value) == bits(max(0.0, u / n))
        assert est.n == n
        assert est.counts == [counts.get(i, 0) for i in range(max(counts) + 1)]

    @pytest.mark.parametrize("alpha", [1.0, 0.999999, 0.999, 0.5])
    def test_close_to_cancellation_free_reference(self, alpha):
        """After every event, metrics() stays within 1e-14 (Gini) and 2e-13
        (entropy) of the published recurrence in the form n²(1-G) and n·H,
        with each L(x+1) - L(x) taken without cancellation. The largest
        deviations are 6.9e-15 and 6.8e-14; the contract is 1e-9."""
        est = FadingEstimator(alpha)
        counts = {}
        n, ssq, nh = 0, 0.0, 0.0
        worst_gini = worst_entropy = 0.0
        for label in skewed_stream(int(alpha * 1e6) + 7, 50_000):
            c = counts.get(label, 0)
            ssq = (1.0 - alpha) * n * n + alpha * ssq + 2 * c + 1
            nh = alpha * nh + step(n) - step(c)
            n += 1
            counts[label] = c + 1

            est.observe(label)
            gini_value, entropy_value = est.metrics()
            worst_gini = max(worst_gini, abs(gini_value - (1.0 - ssq / (n * n))))
            worst_entropy = max(worst_entropy, abs(entropy_value - nh / n))
        assert worst_gini <= 1e-14
        assert worst_entropy <= 2e-13

    @pytest.mark.parametrize(
        "raw",
        [float("nan"), -0.0, 0.0, -1e-17, 1e-17, 0.25, 1.0, 1.0 + 1e-15, 7.5]
        + [float("inf"), float("-inf")],
    )
    def test_clamp_matches_min_max(self, raw):
        """metrics() clamps like min/max: NaN and -0.0 report +0.0."""
        est = FadingEstimator(0.9)
        est.n = 1.0
        est.d = est.u = raw
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
            n = est.n
            assert abs(est.d / (n * n) - gini_state.value) <= 1e-9
            assert abs(est.u / n - entropy_state.value) <= 1e-9


class TestBounds:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_metrics_stay_in_range(self, alpha):
        classes = 6
        rng = random.Random(int(alpha * 1000))
        est = FadingEstimator(alpha)
        cap = math.log2(classes) + 1e-9
        for _ in range(10_000):
            est.observe(rng.randrange(classes))
            assert -1e-9 <= est.d / (est.n * est.n) <= 1.0 + 1e-9
            gini_value, entropy_value = est.metrics()
            assert 0.0 <= gini_value <= 1.0
            assert 0.0 <= entropy_value <= cap


class TestPureStreamFixpoint:
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99, 1.0])
    def test_single_class_stream_is_exactly_zero(self, alpha):
        # d gains 2·(n - c) = 0 and u gains (L(n+1) - L(n)) - (L(c+1) - L(c)) = 0.0.
        est = FadingEstimator(alpha)
        for _ in range(2000):
            est.observe(0)
            assert bits(est.d) == bits(0.0)
            assert bits(est.u) == bits(0.0)
            assert [bits(value) for value in est.metrics()] == [bits(0.0)] * 2


class TestDeterminism:
    def test_same_stream_same_factor_bitwise_trace(self):
        rng = random.Random(41)
        stream = [rng.randrange(5) for _ in range(500)]
        a = FadingEstimator(0.9)
        b = FadingEstimator(0.9)
        for label in stream:
            a.observe(label)
            b.observe(label)
            assert bits(a.d) == bits(b.d)
            assert bits(a.u) == bits(b.u)
