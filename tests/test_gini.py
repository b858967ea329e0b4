"""Incremental Gini transitions against the brute-force oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, random_impurity_walk
from impurity_stream import EntropyState, GiniState, gini_exact

count_dicts = st.dictionaries(
    st.integers(0, 999),
    st.integers(min_value=1, max_value=200).map(float),
    min_size=1,
    max_size=8,
)


def state_of(counts) -> GiniState:
    return GiniState.from_counts(counts)


def test_states_are_named_total_value_pairs():
    gini, entropy = GiniState(3.0, 0.5), EntropyState(3.0, 0.5)
    total, value = gini
    assert (total, value) == (gini.total, gini.value) == (3.0, 0.5)
    # Tuples compare by their numbers alone, whatever the metric.
    assert gini == entropy == (3.0, 0.5)
    assert GiniState() == EntropyState() == (0.0, 0.0)
    assert repr(gini) == "GiniState(total=3.0, value=0.5)"
    assert repr(entropy) == "EntropyState(total=3.0, value=0.5)"
    for state in (gini, entropy):
        with pytest.raises(AttributeError):
            state.total = 4.0


class TestFromCounts:
    def test_empty(self):
        assert GiniState.from_counts({}) == GiniState(0.0, 0.0)

    def test_two_equal_classes(self):
        s = state_of({"a": 1, "b": 1})
        assert s.total == 2.0
        assert s.value == pytest.approx(0.5, abs=1e-15)

    def test_two_to_one_split(self):
        s = state_of({"a": 2, "b": 1})
        assert s.value == pytest.approx(0.4444444444444444, abs=1e-12)


class TestAppend:
    def test_first_element_is_pure(self):
        s = GiniState().append(5.0)
        assert (s.total, s.value) == (5.0, 0.0)

    def test_two_equal_elements(self):
        s = GiniState(1.0, 0.0).append(1.0)
        assert s.value == pytest.approx(0.5, abs=1e-15)

    def test_third_element(self):
        s = GiniState(2.0, 0.5).append(2.0)
        assert s.total == 4.0
        assert s.value == pytest.approx(0.625, abs=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            GiniState().append(0.0)
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).append(-1.0)


class TestBatchIncrease:
    def test_empty_delta_is_identity(self):
        s = GiniState(2.0, 0.5)
        assert s.batch_increase({}) == s

    def test_single_entry(self):
        s = GiniState(2.0, 0.5).batch_increase({"a": (1.0, 1.0)})
        assert s.total == 3.0
        assert s.value == pytest.approx(0.4444444444444444, abs=1e-12)

    def test_two_entries(self):
        start = state_of({"a": 2, "b": 1})
        s = start.batch_increase({"a": (2.0, 1.0), "b": (1.0, 2.0)})
        assert s.total == 6.0
        assert s.value == pytest.approx(gini_exact({"a": 3, "b": 3}), abs=1e-12)

    def test_accepts_zero_current_mass(self):
        # a brand-new class entering through a batch equals an append
        s = GiniState(2.0, 0.5)
        assert s.batch_increase({"c": (0.0, 3.0)}).value == pytest.approx(
            s.append(3.0).value, abs=1e-15
        )

    def test_rejects_nonpositive_increase(self):
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).batch_increase({"a": (1.0, 0.0)})
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).batch_increase({"a": (1.0, -2.0)})

    def test_rejects_negative_current(self):
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).batch_increase({"a": (-1.0, 1.0)})


class TestUnitIncrement:
    def test_first_event(self):
        s = GiniState().inc(0.0)
        assert (s.total, s.value) == (1.0, 0.0)

    def test_grow_minority_class(self):
        s = GiniState(2.0, 0.5).inc(1.0)
        assert s.value == pytest.approx(0.4444444444444444, abs=1e-12)

    def test_rebalance_to_even(self):
        s = GiniState(3.0, 0.4444444444444444).inc(1.0)
        assert s.value == pytest.approx(0.5, abs=1e-12)


class TestUnitDecrement:
    def test_emptying_resets_to_zero(self):
        assert GiniState(1.0, 0.0).dec(0.0) == GiniState(0.0, 0.0)

    def test_shrink_even_split(self):
        s = GiniState(4.0, 0.5).dec(1.0)
        assert s.value == pytest.approx(0.4444444444444444, abs=1e-12)

    def test_down_to_single_element(self):
        s = GiniState(2.0, 0.5).dec(0.0)
        assert s.total == 1.0
        assert s.value == pytest.approx(0.0, abs=1e-15)

    def test_rejects_empty_state(self):
        with pytest.raises(ValueError):
            GiniState().dec(0.0)


class TestAddDelClass:
    def test_add_to_empty(self):
        assert GiniState().add_class(5.0) == GiniState(5.0, 0.0)

    def test_add_examples(self):
        assert GiniState(2.0, 0.5).add_class(2.0).value == pytest.approx(0.625, abs=1e-12)
        assert GiniState(2.0, 0.0).add_class(2.0).value == pytest.approx(0.5, abs=1e-12)

    def test_del_entire_sample(self):
        assert GiniState(5.0, 0.0).del_class(5.0) == GiniState(0.0, 0.0)

    def test_del_examples(self):
        assert GiniState(4.0, 0.625).del_class(2.0).value == pytest.approx(0.5, abs=1e-12)
        assert GiniState(4.0, 0.5).del_class(2.0).value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).del_class(3.0)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).add_class(0.0)
        with pytest.raises(ValueError):
            GiniState(2.0, 0.5).del_class(0.0)


class TestMerge:
    def test_empty_operand_is_identity(self):
        s = GiniState(2.0, 0.5)
        assert GiniState().merge(s) == s
        assert s.merge(GiniState()) == s

    def test_known_merges(self):
        merged = GiniState(2.0, 0.5).merge(GiniState(2.0, 0.0))
        assert merged.total == 4.0
        assert merged.value == pytest.approx(0.625, abs=1e-12)
        third = 0.4444444444444444
        assert GiniState(3.0, third).merge(GiniState(3.0, third)).value == pytest.approx(
            0.7222222222222222, abs=1e-12
        )

    @settings(deadline=None)
    @given(count_dicts, count_dicts)
    def test_commutes_bit_for_bit(self, left_counts, right_counts):
        a = state_of(left_counts)
        b = state_of(right_counts)
        ab = a.merge(b)
        ba = b.merge(a)
        assert bits(ab.value) == bits(ba.value)
        assert bits(ab.total) == bits(ba.total)

    @settings(deadline=None)
    @given(count_dicts, st.floats(min_value=0.01, max_value=100.0))
    def test_merging_a_singleton_equals_append(self, counts, mass):
        s = state_of(counts)
        via_merge = s.merge(GiniState.from_counts({"fresh": mass}))
        via_append = s.append(mass)
        assert via_merge.value == pytest.approx(via_append.value, abs=1e-12)
        assert via_merge.total == pytest.approx(via_append.total, abs=1e-12)


class TestOverlay:
    def test_pure_plus_pure_same_class(self):
        s = GiniState(1.0, 0.0).overlay(GiniState(1.0, 0.0), cross=1.0)
        assert (s.total, s.value) == (2.0, 0.0)

    def test_known_overlays(self):
        third = 0.4444444444444444
        s = GiniState(3.0, third).overlay(GiniState(2.0, 0.5), cross=3.0)
        assert s.value == pytest.approx(0.48, abs=1e-12)
        s = GiniState(2.0, 0.5).overlay(GiniState(2.0, 0.5), cross=2.0)
        assert s.value == pytest.approx(0.5, abs=1e-12)

    def test_empty_plus_empty_is_empty(self):
        assert GiniState().overlay(GiniState(), 0.0) == GiniState()

    def test_rejects_negative_cross_term(self):
        with pytest.raises(ValueError):
            GiniState(1.0, 0.0).overlay(GiniState(1.0, 0.0), cross=-0.5)

    def test_matches_elementwise_sum_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 20)
            x = [rng.uniform(0.05, 10.0) for _ in range(n)]
            y = [rng.uniform(0.05, 10.0) for _ in range(n)]
            a = GiniState(sum(x), gini_exact(dict(enumerate(x))))
            b = GiniState(sum(y), gini_exact(dict(enumerate(y))))
            cross = sum(xi * yi for xi, yi in zip(x, y))
            combined = a.overlay(b, cross)
            expected = gini_exact({i: xi + yi for i, (xi, yi) in enumerate(zip(x, y))})
            assert combined.value == pytest.approx(expected, abs=1e-10)


class TestInverseLaws:
    @settings(deadline=None)
    @given(count_dicts, st.integers(0, 100))
    def test_unit_decrement_inverts_unit_increment(self, counts, before):
        s = state_of(counts)
        roundtrip = s.inc(float(before)).dec(float(before))
        assert roundtrip.value == pytest.approx(s.value, abs=1e-12)
        assert roundtrip.total == pytest.approx(s.total, abs=1e-12)

    @settings(deadline=None)
    @given(count_dicts, st.floats(min_value=0.5, max_value=50.0))
    def test_class_deletion_inverts_class_insertion(self, counts, mass):
        s = state_of(counts)
        roundtrip = s.add_class(mass).del_class(mass)
        assert roundtrip.value == pytest.approx(s.value, abs=1e-12)
        assert roundtrip.total == pytest.approx(s.total, abs=1e-12)

    @settings(deadline=None)
    @given(count_dicts, st.integers(0, 100))
    def test_singleton_batch_equals_unit_increment(self, counts, before):
        s = state_of(counts)
        via_batch = s.batch_increase({"cls": (float(before), 1.0)})
        via_inc = s.inc(float(before))
        assert via_batch.value == pytest.approx(via_inc.value, abs=1e-12)
        assert via_batch.total == pytest.approx(via_inc.total, abs=1e-12)


class TestClamping:
    def test_clamped_restricts_to_unit_interval(self):
        assert GiniState(2.0, -1e-12).clamped == 0.0
        assert GiniState(2.0, 1.0 + 1e-12).clamped == 1.0
        assert GiniState(2.0, 0.25).clamped == 0.25

    def test_raw_value_is_preserved(self):
        s = GiniState(2.0, -1e-12)
        assert s.value == -1e-12


def test_random_walk_matches_oracle_at_every_step():
    rng = random.Random(20240811)
    for op, gstate, _, shadow in random_impurity_walk(rng, 10_000):
        expected = gini_exact(shadow)
        assert abs(gstate.value - expected) <= 1e-9, (op, shadow)
        assert -1e-9 <= gstate.value <= 1.0 + 1e-9
        assert 0.0 <= gstate.clamped <= 1.0
        assert gstate.total == pytest.approx(sum(shadow.values()), rel=1e-9, abs=1e-9)
