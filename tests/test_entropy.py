"""Incremental entropy transitions against the brute-force oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, random_impurity_walk
from impurity_stream import EntropyState, entropy_exact

count_dicts = st.dictionaries(
    st.integers(0, 999),
    st.integers(min_value=1, max_value=200).map(float),
    min_size=1,
    max_size=8,
)

ENT_21 = 0.9182958340544896  # counts {2, 1}
ENT_31 = 0.8112781244591328  # counts {3, 1}


def state_of(counts) -> EntropyState:
    return EntropyState.from_counts(counts)


class TestFromCounts:
    def test_empty(self):
        assert EntropyState.from_counts({}) == EntropyState(0.0, 0.0)

    def test_fair_coin(self):
        s = state_of({"a": 1, "b": 1})
        assert (s.total, s.value) == (2.0, 1.0)

    def test_three_to_one_split(self):
        assert state_of({"a": 3, "b": 1}).value == pytest.approx(ENT_31, abs=1e-12)


class TestAppend:
    def test_first_element_short_circuits(self):
        s = EntropyState().append(7.0)
        assert (s.total, s.value) == (7.0, 0.0)

    def test_fair_coin(self):
        assert EntropyState(1.0, 0.0).append(1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_third_element(self):
        s = EntropyState(2.0, 1.0).append(2.0)
        assert s.total == 4.0
        assert s.value == pytest.approx(1.5, abs=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            EntropyState().append(0.0)
        with pytest.raises(ValueError):
            EntropyState(2.0, 1.0).append(-3.0)


class TestMerge:
    def test_empty_operand_is_identity(self):
        s = EntropyState(4.0, 1.5)
        assert EntropyState().merge(s) == s
        assert s.merge(EntropyState()) == s

    def test_known_merges(self):
        assert EntropyState(2.0, 1.0).merge(EntropyState(2.0, 0.0)).value == pytest.approx(
            1.5, abs=1e-12
        )
        assert EntropyState(2.0, 1.0).merge(EntropyState(2.0, 1.0)).value == pytest.approx(
            2.0, abs=1e-12
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
        via_merge = s.merge(EntropyState.from_counts({"fresh": mass}))
        via_append = s.append(mass)
        assert via_merge.value == pytest.approx(via_append.value, abs=1e-12)
        assert via_merge.total == pytest.approx(via_append.total, abs=1e-12)


class TestBatchIncrease:
    def test_empty_delta_is_identity(self):
        s = EntropyState(2.0, 1.0)
        assert s.batch_increase({}) == s

    def test_single_entry(self):
        s = EntropyState(2.0, 1.0).batch_increase({"a": (1.0, 1.0)})
        assert s.total == 3.0
        assert s.value == pytest.approx(ENT_21, abs=1e-12)

    def test_balancing_increase(self):
        s = EntropyState(4.0, ENT_31).batch_increase({"b": (1.0, 2.0)})
        assert s.total == 6.0
        assert s.value == pytest.approx(1.0, abs=1e-12)

    def test_multi_entry_matches_oracle(self):
        start = state_of({"a": 4, "b": 2, "c": 1})
        s = start.batch_increase({"a": (4.0, 1.0), "c": (1.0, 2.5)})
        assert s.value == pytest.approx(entropy_exact({"a": 5, "b": 2, "c": 3.5}), abs=1e-12)

    def test_rejects_zero_current_mass(self):
        with pytest.raises(ValueError):
            EntropyState(2.0, 1.0).batch_increase({"new": (0.0, 1.0)})

    def test_rejects_nonpositive_increase(self):
        with pytest.raises(ValueError):
            EntropyState(2.0, 1.0).batch_increase({"a": (1.0, 0.0)})


class TestUnitIncrement:
    def test_first_event_is_exactly_zero(self):
        s = EntropyState().inc(0.0)
        assert s.total == 1.0
        assert bits(s.value) == bits(0.0)

    def test_grow_minority_class(self):
        assert EntropyState(2.0, 1.0).inc(1.0).value == pytest.approx(ENT_21, abs=1e-12)

    def test_rebalance_to_even(self):
        assert EntropyState(3.0, ENT_21).inc(1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_unseen_class_equals_append_of_one(self):
        s = state_of({"a": 3, "b": 2})
        assert s.inc(0.0).value == pytest.approx(s.append(1.0).value, abs=1e-12)


class TestUnitDecrement:
    def test_emptying_resets_to_zero(self):
        assert EntropyState(1.0, 0.0).dec(0.0) == EntropyState(0.0, 0.0)

    def test_shrink_even_split(self):
        assert EntropyState(4.0, 1.0).dec(1.0).value == pytest.approx(ENT_21, abs=1e-12)

    def test_removing_singleton_class(self):
        s = EntropyState(3.0, ENT_21).dec(0.0)
        assert s.total == 2.0
        assert s.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_empty_state(self):
        with pytest.raises(ValueError):
            EntropyState().dec(0.0)


class TestAddDelClass:
    def test_add_to_empty(self):
        assert EntropyState().add_class(3.0) == EntropyState(3.0, 0.0)

    def test_add_examples(self):
        assert EntropyState(2.0, 1.0).add_class(2.0).value == pytest.approx(1.5, abs=1e-12)
        assert EntropyState(2.0, 0.0).add_class(2.0).value == pytest.approx(1.0, abs=1e-12)

    def test_del_entire_sample(self):
        assert EntropyState(3.0, 0.0).del_class(3.0) == EntropyState(0.0, 0.0)

    def test_del_examples(self):
        assert EntropyState(4.0, 1.5).del_class(2.0).value == pytest.approx(1.0, abs=1e-12)
        assert EntropyState(4.0, 1.0).del_class(2.0).value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            EntropyState(2.0, 1.0).del_class(2.5)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            EntropyState(2.0, 1.0).del_class(-1.0)


class TestInverseLaws:
    @settings(deadline=None)
    @given(count_dicts, st.integers(0, 100))
    def test_unit_decrement_inverts_unit_increment(self, counts, before):
        s = state_of(counts)
        roundtrip = s.inc(float(before)).dec(float(before))
        assert roundtrip.value == pytest.approx(s.value, abs=1e-10)
        assert roundtrip.total == pytest.approx(s.total, abs=1e-10)

    @settings(deadline=None)
    @given(count_dicts, st.floats(min_value=0.5, max_value=50.0))
    def test_class_deletion_inverts_class_insertion(self, counts, mass):
        s = state_of(counts)
        roundtrip = s.add_class(mass).del_class(mass)
        assert roundtrip.value == pytest.approx(s.value, abs=1e-10)
        assert roundtrip.total == pytest.approx(s.total, abs=1e-10)

    @settings(deadline=None)
    @given(count_dicts, st.integers(1, 100))
    def test_singleton_batch_equals_unit_increment(self, counts, before):
        s = state_of(counts)
        via_batch = s.batch_increase({"cls": (float(before), 1.0)})
        via_inc = s.inc(float(before))
        assert via_batch.value == pytest.approx(via_inc.value, abs=1e-10)
        assert via_batch.total == pytest.approx(via_inc.total, abs=1e-10)


class TestClamping:
    def test_tiny_negative_drift_clamps_to_zero(self):
        assert EntropyState(2.0, -1e-15).clamped == 0.0

    def test_positive_values_pass_through(self):
        assert EntropyState(2.0, 1.0).clamped == 1.0


def test_random_walk_matches_oracle_at_every_step():
    rng = random.Random(20240812)
    for op, _, estate, shadow in random_impurity_walk(rng, 10_000):
        expected = entropy_exact(shadow)
        assert abs(estate.value - expected) <= 1e-7, (op, shadow)
        assert estate.clamped >= 0.0
        assert estate.total == pytest.approx(sum(shadow.values()), rel=1e-9, abs=1e-9)
