"""Exact-metric functions, count bookkeeping, and label interning."""

from __future__ import annotations

import math
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impurity_stream import (
    ExactEstimator,
    Interner,
    entropy_exact,
    gini_exact,
    plog2p,
    rescale_entropy,
    sum_squares,
)
from impurity_stream.core import state_fields

mass_values = st.one_of(
    st.integers(min_value=1, max_value=10**6).map(float),
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
)
count_dicts = st.dictionaries(st.integers(0, 10**6), mass_values, min_size=1, max_size=40)


class TestGiniExact:
    def test_pure_sample_is_zero(self):
        assert gini_exact({"a": 2}) == 0.0

    def test_uniform_over_k_classes(self):
        assert gini_exact({"a": 1, "b": 1, "c": 1, "d": 1}) == pytest.approx(0.75, abs=1e-15)

    def test_three_to_one_split(self):
        # 1 - (9 + 1) / 16
        assert gini_exact({"a": 3, "b": 1}) == pytest.approx(0.375, abs=1e-15)

    def test_empty_sample_is_zero(self):
        assert gini_exact({}) == 0.0

    def test_accepts_class_counts(self):
        counts = Counter({"a": 3, "b": 1})
        assert gini_exact(counts) == pytest.approx(0.375, abs=1e-15)


class TestEntropyExact:
    def test_pure_sample_is_zero(self):
        assert entropy_exact({"a": 5}) == 0.0
        assert bits_positive_zero(entropy_exact({"a": 5}))

    def test_uniform_over_k_classes(self):
        assert entropy_exact({"a": 1, "b": 1, "c": 1, "d": 1}) == pytest.approx(2.0, abs=1e-15)

    def test_three_to_one_split(self):
        assert entropy_exact({"a": 3, "b": 1}) == pytest.approx(0.8112781244591328, abs=1e-15)

    def test_empty_sample_is_zero(self):
        assert entropy_exact({}) == 0.0


def bits_positive_zero(x: float) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestPlog2p:
    def test_zero_convention(self):
        assert plog2p(0.0) == 0.0

    def test_one(self):
        assert plog2p(1.0) == 0.0

    def test_half(self):
        assert plog2p(0.5) == -0.5


class TestSumSquares:
    @pytest.mark.parametrize(
        "total,gini,expected",
        [(2.0, 0.0, 4.0), (2.0, 0.5, 2.0), (4.0, 0.625, 6.0)],
    )
    def test_recovers_squared_mass_sum(self, total, gini, expected):
        assert sum_squares(total, gini) == pytest.approx(expected, abs=1e-12)


class TestRescaleEntropy:
    @pytest.mark.parametrize(
        "h,total,added,expected",
        [(1.0, 2.0, 2.0, 1.0), (0.0, 2.0, 2.0, 0.5), (0.0, 1.0, 1.0, 0.5)],
    )
    def test_known_values(self, h, total, added, expected):
        assert rescale_entropy(h, total, added) == pytest.approx(expected, abs=1e-12)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            rescale_entropy(0.0, 0.0, 1.0)

    def test_rejects_nonpositive_added_mass(self):
        with pytest.raises(ValueError):
            rescale_entropy(0.5, 2.0, 0.0)


@settings(deadline=None)
@given(count_dicts)
def test_squared_sum_roundtrips_through_gini(counts):
    direct = sum(v * v for v in counts.values())
    total = sum(counts.values())
    recovered = sum_squares(total, gini_exact(counts))
    assert recovered == pytest.approx(direct, rel=1e-9)


@settings(deadline=None)
@given(count_dicts, st.floats(min_value=1e-3, max_value=10.0))
def test_rescale_matches_direct_summation(counts, factor):
    total = sum(counts.values())
    added = factor * total
    direct = -sum((v / (total + added)) * math.log2(v / (total + added)) for v in counts.values())
    assert rescale_entropy(entropy_exact(counts), total, added) == pytest.approx(direct, abs=1e-9)


@settings(deadline=None)
@given(count_dicts)
def test_metrics_invariant_under_relabeling(counts):
    relabeled = {(label, "x"): mass for label, mass in reversed(list(counts.items()))}
    assert gini_exact(relabeled) == pytest.approx(gini_exact(counts), abs=1e-12)
    assert entropy_exact(relabeled) == pytest.approx(entropy_exact(counts), abs=1e-12)


@settings(deadline=None)
@given(count_dicts)
def test_metric_ranges(counts):
    k = len(counts)
    g = gini_exact(counts)
    h = entropy_exact(counts)
    assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-12
    assert 0.0 <= h <= math.log2(k) + 1e-9 if k > 1 else h == 0.0


class TestInterner:
    def test_ids_are_dense_and_stable(self):
        interner = Interner()
        assert interner.intern("cat") == 0
        assert interner.intern("dog") == 1
        assert interner.intern("cat") == 0
        assert len(interner) == 2

    def test_distinct_labels_get_distinct_ids(self):
        interner = Interner()
        ids = {interner.intern(f"label-{i}") for i in range(100)}
        assert len(ids) == 100

    def test_label_roundtrip(self):
        interner = Interner(["a", "b"])
        assert interner.label_of(0) == "a"
        assert interner.label_of(1) == "b"
        assert interner.labels == ("a", "b")
        assert "a" in interner and "z" not in interner

    @pytest.mark.parametrize("class_id", [-1, -2, 2])
    def test_label_of_an_id_no_label_has_raises(self, class_id):
        with pytest.raises(IndexError):
            Interner(["a", "b"]).label_of(class_id)

    def test_intern_many_matches_intern(self):
        batched, single = Interner(["x"]), Interner(["x"])
        # New labels, each repeated inside the block, between known ones.
        block = ["y", "x", "z", "y", "z", "x"]
        assert batched.intern_many(block) == [single.intern(label) for label in block] == [1, 0, 2, 1, 2, 0]
        assert batched.labels == single.labels == ("x", "y", "z")
        assert batched.intern_many(["z", "x"]) == [2, 0]
        assert batched.intern_many([]) == []

    def test_ids_and_labels_in_id_order(self):
        """``ids`` holds the objects that intern() returns, and iterating
        gives the labels, both in id order."""
        interner = Interner(f"label-{i}" for i in range(300))
        assert interner.intern_many(["new", "label-299", "newer"]) == [300, 299, 301]
        assert list(interner) == [f"label-{i}" for i in range(300)] + ["new", "newer"]
        assert interner.ids == tuple(range(302))
        assert all(interner.intern(label) is class_id for label, class_id in zip(interner, interner.ids))

    def test_repr_counts_labels(self):
        assert repr(Interner(["a", "b", "a"])) == "Interner(2 labels)"

    @pytest.mark.parametrize("source", [list, iter], ids=["list", "iterator"])
    def test_repeated_labels_get_dense_ids(self, source):
        interner = Interner(source(["a", "b", "a", "c", "b"]))
        assert interner.labels == ("a", "b", "c")
        assert [interner.intern(label) for label in "abcd"] == [0, 1, 2, 3]


class TestStateFields:
    def test_unsigned_array_is_taken_for_a_list(self):
        window = array("H", [3, 0, 65535])
        assert state_fields({"n": 2, "window": window}, n=int, window=list) == [2, window]

    @pytest.mark.parametrize(
        "value",
        [array("h", [1, 2]), array("d", [1.0]), [0, 1.0], [0, -1], (0, 1)],
        ids=["signed-array", "float-array", "float-item", "negative-item", "tuple"],
    )
    def test_other_lists_are_checked(self, value):
        with pytest.raises(ValueError, match="window must"):
            state_fields({"window": value}, window=list)


class TestExactEstimator:
    def test_matches_direct_functions(self):
        est = ExactEstimator()
        for label in ["a", "b", "a", "c"]:
            est.observe(label)
        expected = {"a": 2.0, "b": 1.0, "c": 1.0}
        assert est.metrics() == (gini_exact(expected), entropy_exact(expected))

    def test_fresh_estimator_reports_zero(self):
        assert ExactEstimator().metrics() == (0.0, 0.0)
