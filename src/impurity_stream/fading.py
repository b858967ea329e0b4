"""Fading-factor (exponentially discounted) Gini and entropy."""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from .core import Label, counts_by_id, counts_from_ids, state_fields

__all__ = ["FadingEstimator"]


class FadingEstimator:
    """Recency-weighted impurity metrics in constant space.

    Each observe() folds the previous metric value back in through a factor
    ``alpha`` in (0, 1], geometrically discounting older contributions by
    age, while the per-class counts themselves stay unweighted integers.
    With alpha = 1 nothing fades and the trace coincides with the exact
    metrics of the whole stream so far.

    Memory is O(distinct classes), independent of stream length.
    Single-writer; not safe for concurrent mutation.
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("fading factor must be in (0, 1]")
        self.alpha = alpha
        self.n = 0
        self.counts: Dict[Label, int] = {}
        self.g = 0.0
        self.h = 0.0

    def observe(self, label: Label) -> None:
        """Fold one labeled event into both faded metrics.

        The metric updates read the pre-event n and class count; the counts
        advance afterwards. ``plog2p`` is inlined with its operations in the
        same order, so every value is bit-identical to the recurrence.
        """
        log2 = math.log2
        counts = self.counts
        alpha = self.alpha
        n = self.n
        n_i = counts.get(label, 0)
        new_n = n + 1
        numer = n * n * (1.0 - alpha * self.g) + 2.0 * n_i + 1.0
        self.g = 1.0 - numer / (new_n * new_n)
        if n:
            q = n / new_n
            old_part = q * (alpha * self.h - log2(q))
        else:
            old_part = 0.0
        p = (n_i + 1) / new_n
        q = n_i / new_n
        # The last term is +0.0 for a new class, which turns a -0.0 into 0.0.
        self.h = old_part - p * log2(p) + (q * log2(q) if n_i else 0.0)
        self.n = new_n
        counts[label] = n_i + 1

    def observe_block(self, labels: Sequence[Label], seen: int, every: int) -> List[Tuple[int, float, float]]:
        """Observe ``labels`` as the events after the first ``seen`` of a
        stream; returns an ``(index, gini, entropy)`` row for each event
        whose count is a multiple of ``every``, its index one less.

        The loop is observe() and metrics() inlined, with every operation in
        their order, so the state and the rows are bit-identical to theirs.
        """
        log2 = math.log2
        counts = self.counts
        get = counts.get
        alpha = self.alpha
        n = self.n
        g = self.g
        h = self.h
        rows = []
        for label in labels:
            n_i = get(label, 0)
            new_n = n + 1
            numer = n * n * (1.0 - alpha * g) + 2.0 * n_i + 1.0
            g = 1.0 - numer / (new_n * new_n)
            if n:
                q = n / new_n
                old_part = q * (alpha * h - log2(q))
            else:
                old_part = 0.0
            p = (n_i + 1) / new_n
            q = n_i / new_n
            h = old_part - p * log2(p) + (q * log2(q) if n_i else 0.0)
            n = new_n
            counts[label] = n_i + 1
            seen += 1
            if seen % every == 0:
                gini = g if 0.0 < g < 1.0 else (1.0 if g >= 1.0 else 0.0)
                rows.append((seen - 1, gini, h if h > 0.0 else 0.0))
        self.n = n
        self.g = g
        self.h = h
        return rows

    def metrics(self) -> Tuple[float, float]:
        """Current (gini, entropy) clamped for reporting; O(1).

        Gini clamps into [0, 1]; entropy clamps tiny negatives to 0 but has
        no a-priori upper bound once alpha < 1. NaN and -0.0 fail ``> 0.0``
        and so report 0.0.
        """
        g = self.g
        h = self.h
        return (g if 0.0 < g < 1.0 else (1.0 if g >= 1.0 else 0.0), h if h > 0.0 else 0.0)

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``.

        ``n`` is not among them: it is the sum of the counts.
        """
        return {"alpha": float(self.alpha), "g": self.g, "h": self.h, "counts": counts_by_id(self.counts)}

    @classmethod
    def from_state(cls, state: Mapping[str, object], events: int, n_labels: int) -> "FadingEstimator":
        """Rebuild an estimator from state() after ``events`` events over
        ``n_labels`` labels; ValueError if no run reaches that state."""
        alpha, g, h, by_id = state_fields(state, alpha=float, g=float, h=float, counts=list)
        estimator = cls(alpha)
        estimator.counts = counts_from_ids(by_id, events, n_labels)
        estimator.n = events
        estimator.g = g
        estimator.h = h
        return estimator
