"""Incremental Shannon entropy as pure state transitions on (total, value).

The pair (S, H) advances without the sample: enlarging the total mass by R
re-denominates the old contribution to (S/(S+R)) * (H - log2(S/(S+R))), and
the changed or added classes contribute their own p*log2(p) terms. Entropy
is in bits throughout.

Logarithm chains drift more than the Gini path does, so downstream
consumers certify entropy to looser tolerances; long-running windows bound
the drift with periodic exact refreshes rather than in these transitions.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping, NamedTuple, Tuple

from .core import entropy_exact, plog2p, rescale_entropy
from .gini import _DRAIN_TOL

__all__ = ["EntropyState"]


class EntropyState(NamedTuple):
    """Total mass and entropy (bits) of a sample."""

    total: float = 0.0
    value: float = 0.0

    @classmethod
    def from_counts(cls, counts: Mapping[Hashable, float]) -> "EntropyState":
        """Evaluate a count vector exactly (O(k))."""
        return cls(float(sum(counts.values())), entropy_exact(counts))

    @property
    def clamped(self) -> float:
        """The value for reporting; tiny negative drift clamps to 0."""
        return max(0.0, self.value)

    def append(self, x: float) -> "EntropyState":
        """Concatenate one new element (a class not yet in the sample)."""
        if x <= 0.0:
            raise ValueError("appended mass must be positive")
        if self.total == 0.0:
            return EntropyState(x, 0.0)
        new_total = self.total + x
        value = rescale_entropy(self.value, self.total, x) - plog2p(x / new_total)
        return EntropyState(new_total, value)

    def merge(self, other: "EntropyState") -> "EntropyState":
        """Concatenate two samples over disjoint class sets.

        Disjointness is the caller's obligation. Commutative; the empty
        state is the identity.
        """
        if self.total == 0.0:
            return other
        if other.total == 0.0:
            return self
        new_total = self.total + other.total
        value = rescale_entropy(self.value, self.total, other.total) + rescale_entropy(
            other.value, other.total, self.total
        )
        return EntropyState(new_total, value)

    def batch_increase(self, delta: Mapping[Hashable, Tuple[float, float]]) -> "EntropyState":
        """Grow several existing classes at once; O(#changed classes).

        ``delta`` maps each class to its current mass x > 0 and its increase
        r > 0; a class not yet in the sample enters via append() instead.
        """
        if not delta:
            return self
        increase = 0.0
        for current, r in delta.values():
            if current <= 0.0:
                raise ValueError("batch increase requires existing (positive) class masses")
            if r <= 0.0:
                raise ValueError("increase must be positive")
            increase += r
        new_total = self.total + increase
        value = rescale_entropy(self.value, self.total, increase)
        for current, r in delta.values():
            value -= plog2p((current + r) / new_total) - plog2p(current / new_total)
        return EntropyState(new_total, value)

    def inc(self, class_count_before: float) -> "EntropyState":
        """One stream event: some class's mass grows by one unit."""
        new_total = self.total + 1.0
        old_part = rescale_entropy(self.value, self.total, 1.0) if self.total > 0.0 else 0.0
        value = (
            old_part
            - plog2p((class_count_before + 1.0) / new_total)
            + plog2p(class_count_before / new_total)
        )
        return EntropyState(new_total, value)

    def dec(self, class_count_after: float) -> "EntropyState":
        """Undo one stream event; ``class_count_after`` is the class's mass
        after the removal. Exact inverse of inc(); emptied samples reset to
        (0, 0)."""
        if self.total <= 0.0:
            raise ValueError("cannot remove from an empty sample")
        new_total = self.total - 1.0
        if new_total <= _DRAIN_TOL * self.total:
            return EntropyState()
        inner = (
            self.value
            + plog2p((class_count_after + 1.0) / self.total)
            - plog2p(class_count_after / self.total)
        )
        value = (self.total / new_total) * inner + math.log2(new_total / self.total)
        return EntropyState(new_total, value)

    def add_class(self, class_mass: float) -> "EntropyState":
        """Introduce a brand-new class with the given mass."""
        return self.append(class_mass)

    def del_class(self, class_mass: float) -> "EntropyState":
        """Remove one class entirely; ``class_mass`` is its whole mass.

        Exact inverse of add_class(); emptied samples reset to (0, 0).
        """
        if class_mass <= 0.0:
            raise ValueError("class mass must be positive")
        if class_mass > self.total * (1.0 + _DRAIN_TOL):
            raise ValueError("class mass exceeds sample total")
        new_total = self.total - class_mass
        if new_total <= _DRAIN_TOL * self.total:
            return EntropyState()
        inner = self.value + plog2p(class_mass / self.total)
        value = (self.total / new_total) * inner + math.log2(new_total / self.total)
        return EntropyState(new_total, value)
