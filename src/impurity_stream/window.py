"""Sliding-window Gini and entropy over the most recent stream events."""

from __future__ import annotations

from collections import Counter, deque
from math import log2
from typing import Deque, Dict, Mapping, Tuple

from .core import Label, entropy_exact, gini_exact, state_fields
from .gini import _DRAIN_TOL

__all__ = ["SlidingWindowEstimator"]


class SlidingWindowEstimator:
    """Both impurity metrics of the last ``capacity`` labels, in O(1) per event.

    A full window evicts its oldest label (unit-decrement transition) before
    inserting the new one (unit-increment transition), so occupancy never
    exceeds the capacity. The window holds labels only; memory is
    O(capacity + distinct classes). Callers feeding long streams typically
    pass small interned ids.

    The transitions are GiniState/EntropyState inc() and dec(), inlined on
    the plain floats ``g`` and ``h`` with the same operations in the same
    order, so every value is bit-identical to folding the state classes.
    Their total is always the window length, so it is not stored.

    ``refresh_period`` > 0 recomputes both metrics exactly from the class
    counts every that-many events (O(k)), bounding float drift on very long
    runs; 0 disables it.

    Single-writer: observe() mutates in place and is not safe for concurrent
    use. Treat ``window`` and ``counts`` as read-only.
    """

    def __init__(self, capacity: int, refresh_period: int = 0) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        if refresh_period < 0:
            raise ValueError("refresh period must be >= 0 (0 disables)")
        self.capacity = capacity
        self.refresh_period = refresh_period
        self.window: Deque[Label] = deque()
        self.counts: Dict[Label, int] = {}
        self.g = 0.0
        self.h = 0.0
        self.events_since_refresh = 0

    def __len__(self) -> int:
        return len(self.window)

    def observe(self, label: Label) -> None:
        """Slide the window forward by one labeled event."""
        window = self.window
        counts = self.counts
        g = self.g
        h = self.h
        total = float(len(window))
        if total >= self.capacity:
            # dec(after): the oldest label leaves.
            oldest = window.popleft()
            after = counts[oldest] - 1
            if after:
                counts[oldest] = after
            else:
                del counts[oldest]
            new_total = total - 1.0
            if new_total <= _DRAIN_TOL * total:
                g = h = 0.0
            else:
                g = 1.0 - (total * total * (1.0 - g) - 2.0 * after - 1.0) / (new_total * new_total)
                p = (after + 1.0) / total
                q = after / total
                inner = h + p * log2(p) - (q * log2(q) if after else 0.0)
                h = (total / new_total) * inner + log2(new_total / total)
            total = new_total
        # inc(before): the new label enters.
        before = counts.get(label, 0)
        window.append(label)
        counts[label] = before + 1
        new_total = total + 1.0
        self.g = 1.0 - (total * total * (1.0 - g) + 2.0 * before + 1.0) / (new_total * new_total)
        if total > 0.0:
            q = total / new_total
            h = q * (h - log2(q))
        else:
            h = 0.0
        p = (before + 1.0) / new_total
        q = before / new_total
        # The last term is +0.0 for a new class, which turns a -0.0 into 0.0.
        self.h = h - p * log2(p) + (q * log2(q) if before else 0.0)
        self.events_since_refresh += 1
        if self.refresh_period and self.events_since_refresh >= self.refresh_period:
            self.refresh()

    def refresh(self) -> None:
        """Recompute both metrics exactly from the window's class counts."""
        self.g = gini_exact(self.counts)
        self.h = entropy_exact(self.counts)
        self.events_since_refresh = 0

    def metrics(self) -> Tuple[float, float]:
        """Current (gini, entropy), clamped for reporting; O(1)."""
        return (min(1.0, max(0.0, self.g)), max(0.0, self.h))

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``.

        The counts follow from ``window``. ``classes`` keeps the order in
        which ``counts`` holds the classes, because refresh() sums in it.
        """
        return {
            "capacity": self.capacity,
            "refresh_period": self.refresh_period,
            "events_since_refresh": self.events_since_refresh,
            "g": self.g,
            "h": self.h,
            "window": list(self.window),
            "classes": list(self.counts),
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], events: int, n_labels: int
    ) -> "SlidingWindowEstimator":
        """Rebuild an estimator from state() after ``events`` events over
        ``n_labels`` labels; ValueError if no run reaches that state."""
        capacity, period, since, g, h, window, classes = state_fields(
            state,
            capacity=int,
            refresh_period=int,
            events_since_refresh=int,
            g=float,
            h=float,
            window=list,
            classes=list,
        )
        estimator = cls(capacity, period)
        if period and since >= period:
            raise ValueError(f"events_since_refresh {since} is not below the refresh period {period}")
        if len(window) > min(capacity, events):
            raise ValueError(
                f"{len(window)} events in the window exceed its capacity {capacity} "
                f"or the {events} events seen"
            )
        tally = Counter(window)
        counts = {class_id: tally[class_id] for class_id in classes}
        if len(counts) != len(classes) or counts.keys() != tally.keys():
            raise ValueError("classes inconsistent with the window: each of its classes must be listed once")
        if max(classes, default=-1) >= n_labels:
            raise ValueError("class id outside the label table")
        estimator.window.extend(window)
        estimator.counts = counts
        estimator.g = g
        estimator.h = h
        estimator.events_since_refresh = since
        return estimator
