"""Incremental Gini index as pure state transitions on (total, value).

The pair (S, G) is a sufficient statistic: the sum of squared class masses
is recoverable as S^2 * (1 - G), and every update below rewrites that sum in
O(1) (or O(#changed classes) for batches) instead of revisiting the sample:

    append x        sum' = sum + x^2
    inc (unit)      sum' = sum + 2*before + 1
    dec (unit)      sum' = sum - 2*after - 1
    add class m     sum' = sum + m^2
    del class m     sum' = sum - m^2
    merge           sum' = sum_a + sum_b
    overlay         sum' = sum_a + sum_b + 2 * sum(x_i * y_i)

then value' = 1 - sum' / total'^2. States are immutable named (total, value)
tuples; transitions return new states and never mutate.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple, Tuple

from .core import gini_exact, sum_squares

__all__ = ["GiniState"]

# Relative slack when deciding whether a float total has been fully drained;
# protects unit-exact streams from spurious division-by-zero after long
# float-mass update chains.
_DRAIN_TOL = 1e-9


class GiniState(NamedTuple):
    """Total mass and Gini index of a sample, advanced without the sample."""

    total: float = 0.0
    value: float = 0.0

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, float]) -> "GiniState":
        """Evaluate a count vector exactly (O(k))."""
        return cls(float(sum(counts.values())), gini_exact(counts))

    @property
    def clamped(self) -> float:
        """The value for reporting, clamped into [0, 1]."""
        return min(1.0, max(0.0, self.value))

    def append(self, x: float) -> "GiniState":
        """Concatenate one new element (a class not yet in the sample)."""
        if x <= 0.0:
            raise ValueError("appended mass must be positive")
        new_total = self.total + x
        ssq = sum_squares(self.total, self.value) + x * x
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def batch_increase(self, delta: Mapping[Hashable, Tuple[float, float]]) -> "GiniState":
        """Grow several classes at once; O(#changed classes).

        ``delta`` maps each class to its current mass x >= 0 (0 for a class
        not yet in the sample) and its increase r > 0; the squared-mass sum
        shifts by 2*x*r + r^2 per entry.
        """
        if not delta:
            return self
        shift = 0.0
        increase = 0.0
        for current, r in delta.values():
            if current < 0.0:
                raise ValueError("current mass must be nonnegative")
            if r <= 0.0:
                raise ValueError("increase must be positive")
            shift += 2.0 * current * r + r * r
            increase += r
        new_total = self.total + increase
        ssq = sum_squares(self.total, self.value) + shift
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def inc(self, class_count_before: float) -> "GiniState":
        """One stream event: some class's mass grows by one unit."""
        new_total = self.total + 1.0
        ssq = sum_squares(self.total, self.value) + 2.0 * class_count_before + 1.0
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def dec(self, class_count_after: float) -> "GiniState":
        """Undo one stream event: some class's mass shrinks by one unit.

        ``class_count_after`` is that class's mass after the removal. Exact
        inverse of inc(); an emptied sample resets to (0, 0).
        """
        if self.total <= 0.0:
            raise ValueError("cannot remove from an empty sample")
        new_total = self.total - 1.0
        if new_total <= _DRAIN_TOL * self.total:
            return GiniState()
        ssq = sum_squares(self.total, self.value) - 2.0 * class_count_after - 1.0
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def add_class(self, class_mass: float) -> "GiniState":
        """Introduce a brand-new class with the given mass."""
        return self.append(class_mass)

    def del_class(self, class_mass: float) -> "GiniState":
        """Remove one class entirely; ``class_mass`` is its whole mass.

        Exact inverse of add_class(); an emptied sample resets to (0, 0).
        """
        if class_mass <= 0.0:
            raise ValueError("class mass must be positive")
        if class_mass > self.total * (1.0 + _DRAIN_TOL):
            raise ValueError("class mass exceeds sample total")
        new_total = self.total - class_mass
        if new_total <= _DRAIN_TOL * self.total:
            return GiniState()
        ssq = sum_squares(self.total, self.value) - class_mass * class_mass
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def merge(self, other: "GiniState") -> "GiniState":
        """Concatenate two samples over disjoint class sets.

        Disjointness is the caller's obligation; it cannot be checked from
        the states alone. Commutative; the empty state is the identity.
        """
        if self.total == 0.0:
            return other
        if other.total == 0.0:
            return self
        new_total = self.total + other.total
        ssq = sum_squares(self.total, self.value) + sum_squares(other.total, other.value)
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))

    def overlay(self, other: "GiniState", cross: float) -> "GiniState":
        """Elementwise sum of two aligned samples (z_i = x_i + y_i).

        The cross term ``cross`` = sum(x_i * y_i) is not recoverable from
        the two states and must be supplied from the raw vectors.
        """
        if cross < 0.0:
            raise ValueError("cross term must be nonnegative")
        new_total = self.total + other.total
        if new_total == 0.0:
            return GiniState()
        ssq = (
            sum_squares(self.total, self.value)
            + sum_squares(other.total, other.value)
            + 2.0 * cross
        )
        return GiniState(new_total, 1.0 - ssq / (new_total * new_total))
