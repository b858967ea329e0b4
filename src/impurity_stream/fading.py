"""Fading-factor (exponentially discounted) Gini and entropy."""

from __future__ import annotations

from math import log2
from typing import Dict, List, Mapping, Sequence, Tuple

from .core import Label, check_counts, state_fields, unsigned_array

__all__ = ["FadingEstimator"]

# The largest count that a float holds exactly, like every count below it.
_EXACT = 2**53


class FadingEstimator:
    """Recency-weighted impurity metrics in constant space.

    Each observe() folds the previous metric value back in through a factor
    ``alpha`` in (0, 1], geometrically discounting older contributions by
    age, while the per-class counts themselves stay unweighted. With
    alpha = 1 nothing fades and the trace coincides with the exact metrics
    of the whole stream so far.

    The estimator carries ``d`` = n²·G and ``u`` = n·H. With c the arriving
    class's count before an event and L(x) = x·log2(x), the paper's two
    recurrences multiplied by (n+1)² and by n+1 are

        d ← alpha·d + 2·(n − c)
        u ← alpha·u + (L(n+1) − L(n)) − (L(c+1) − L(c))

    L(n) is carried from one event to the next (``plog_n``) and each class's
    L(c) sits beside its count (``plogs``), so an event makes two log2
    calls. n, the counts and the L values are floats, so no step mixes an
    int with a float; a count is exact up to 2**53.

    A label is an interned class id: an int from 0 to the number of labels
    interned less one. ``counts`` and ``plogs`` are lists indexed by id that
    grow to the largest id observed. A negative id raises ValueError, and an
    id that is no int, such as a str or a float, TypeError; either leaves the
    state as it was. Memory is O(ids), independent of stream length.
    Single-writer; not safe for concurrent mutation.
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("fading factor must be in (0, 1]")
        self.alpha = alpha
        self.n = 0.0
        self.counts: List[float] = []
        self.plogs: List[float] = []
        self.plog_n = 0.0
        self.d = 0.0
        self.u = 0.0

    def observe(self, label: Label) -> None:
        """Fold one labeled event into both faded metrics, with the
        operations of observe_block's loop in their order."""
        if label < 0:
            raise ValueError(f"class id {label} is negative")
        counts = self.counts
        try:
            c = counts[label]
        except IndexError:
            grow = [0.0] * (label + 1 - len(counts))
            counts += grow
            self.plogs += grow
            c = 0.0
        n = self.n
        c_next = c + 1.0
        n_next = n + 1.0
        plog_c_next = c_next * log2(c_next)
        plog_n_next = n_next * log2(n_next)
        self.d = self.alpha * self.d + 2.0 * (n - c)
        self.u = self.alpha * self.u + (plog_n_next - self.plog_n) - (plog_c_next - self.plogs[label])
        counts[label] = c_next
        self.plogs[label] = plog_c_next
        self.n = n_next
        self.plog_n = plog_n_next

    def observe_block(self, labels: Sequence[Label], seen: int, every: int) -> List[float]:
        """Observe ``labels`` as the events after the first ``seen`` of a
        stream; returns the flat rows ``[index, gini, entropy, index, …]`` of
        each event whose count is a multiple of ``every``, its index one
        less. Each row holds what metrics() returns after its event.
        """
        counts = self.counts
        plogs = self.plogs
        if labels and min(labels) < 0:
            raise ValueError(f"class id {min(labels)} is negative")
        alpha = self.alpha
        n = self.n
        plog_n = self.plog_n
        d = self.d
        u = self.u
        due = every - seen % every  # events up to and including the next row's
        known = len(counts)
        rows: List[float] = []
        try:
            for index, label in enumerate(labels, seen):
                try:
                    c = counts[label]
                except IndexError:
                    grow = [0.0] * (label + 1 - len(counts))
                    counts += grow
                    plogs += grow
                    c = 0.0
                c_next = c + 1.0
                n_next = n + 1.0
                plog_c_next = c_next * log2(c_next)
                plog_n_next = n_next * log2(n_next)
                d = alpha * d + 2.0 * (n - c)
                u = alpha * u + (plog_n_next - plog_n) - (plog_c_next - plogs[label])
                counts[label] = c_next
                plogs[label] = plog_c_next
                n = n_next
                plog_n = plog_n_next
                due -= 1
                if not due:
                    due = every
                    gini = d / (n * n)
                    entropy = u / n
                    rows.append(index)
                    rows.append(gini if 0.0 < gini < 1.0 else (1.0 if gini >= 1.0 else 0.0))
                    rows.append(entropy if entropy > 0.0 else 0.0)
        except TypeError:
            # An id that is no int: take back the counts, and the c·log2(c)
            # as from_state computes it, of the ids before it.
            for label in labels[: index - seen]:
                c = counts[label] - 1.0
                counts[label] = c
                plogs[label] = c * log2(c) if c else 0.0
            del counts[known:], plogs[known:]
            raise
        self.n = n
        self.plog_n = plog_n
        self.d = d
        self.u = u
        return rows

    def metrics(self) -> Tuple[float, float]:
        """Current (gini, entropy) = (d/n², u/n), clamped for reporting; O(1).

        Gini clamps into [0, 1]; entropy clamps tiny negatives to 0 but has
        no a-priori upper bound once alpha < 1. NaN and -0.0 fail ``> 0.0``
        and so report 0.0.
        """
        n = self.n
        if not n:
            return (0.0, 0.0)
        gini = self.d / (n * n)
        entropy = self.u / n
        return (gini if 0.0 < gini < 1.0 else (1.0 if gini >= 1.0 else 0.0), entropy if entropy > 0.0 else 0.0)

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``.

        ``n`` and the L values are not among them: they follow from the
        counts, which are copied into an unsigned ``array``.
        """
        counts = unsigned_array(int(max(self.counts, default=0.0)), map(int, self.counts))
        return {"alpha": float(self.alpha), "d": self.d, "u": self.u, "counts": counts}

    @classmethod
    def from_state(cls, state: Mapping[str, object], events: int, ids: Sequence[int]) -> "FadingEstimator":
        """Rebuild an estimator from state() after ``events`` events over the
        labels whose ids are ``ids``; ValueError if no run reaches that state.

        n·log2(n) and each c·log2(c) are computed as observe_block computes
        them, so a resumed run continues bit for bit.
        """
        alpha, d, u, by_id = state_fields(state, alpha=float, d=float, u=float, counts=list)
        if d < 0.0:
            raise ValueError("d must be >= 0")
        if events > _EXACT:
            raise ValueError(f"{events} events is more than the {_EXACT} a float counts exactly")
        estimator = cls(alpha)
        check_counts(by_id, events, len(ids))
        estimator.counts = list(map(float, by_id))
        estimator.plogs = [c * log2(c) if c else 0.0 for c in estimator.counts]
        n = float(events)
        estimator.n = n
        estimator.plog_n = n * log2(n) if events else 0.0
        estimator.d = d
        estimator.u = u
        return estimator
