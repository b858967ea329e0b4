"""Sliding-window Gini and entropy over the most recent stream events."""

from __future__ import annotations

from collections import Counter, deque
from itertools import islice
from math import ldexp, log2
from typing import Deque, Dict, List, Mapping, Sequence, Tuple

from .core import Label, state_fields

__all__ = ["SlidingWindowEstimator"]


def _scaled_plog2(count: int) -> int:
    """count * log2(count) scaled by 2**52: an exact int, 0 below 2.

    For count >= 2 the float product is at least 2, so its last bit is worth
    at least 2**-52 and the scaled value is integral.
    """
    return int(ldexp(count * log2(count), 52)) if count >= 2 else 0


# _STEP[c] == _scaled_plog2(c + 1) - _scaled_plog2(c), shared by every window.
# It grows on demand up to the largest count any window has reached, not to
# the capacity: a large window of many small classes keeps it short.
_STEP: List[int] = [0]


def _grow_steps(count: int) -> List[int]:
    """Extend _STEP so that it holds _STEP[count]; returns it."""
    scaled = _scaled_plog2(len(_STEP))
    for c in range(len(_STEP), count + 1):
        following = _scaled_plog2(c + 1)
        _STEP.append(following - scaled)
        scaled = following
    return _STEP


class SlidingWindowEstimator:
    """Both impurity metrics of the last ``capacity`` labels, in O(1) per event.

    A full window evicts its oldest label before inserting the new one, so
    occupancy never exceeds the capacity. The window holds labels only;
    memory is O(capacity + distinct classes). Callers feeding long streams
    typically pass small interned ids.

    The state is two exact integers over the window's class counts c:
    ``s2`` = sum of c**2 and ``t`` = sum of P(c), where P(c) is c*log2(c)
    scaled by 2**52 (an exact int). A count moving between c and c + 1 moves
    ``s2`` by 2c + 1 and ``t`` by a table entry, so nothing accumulates
    rounding: Gini is 1 - s2/n**2 and entropy log2(n) - t/(n * 2**52), each
    from correctly rounded int divisions, and both follow from the window
    alone.

    ``refresh_period`` > 0 calls refresh() every that-many events. It
    rebuilds ``s2`` and ``t`` from the counts (O(k)), which gives the same
    integers; 0 disables it.

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
        self.s2 = 0
        self.t = 0
        self.events_since_refresh = 0

    def __len__(self) -> int:
        return len(self.window)

    def observe(self, label: Label) -> None:
        """Slide the window forward by one labeled event."""
        window = self.window
        counts = self.counts
        step = _STEP
        s2 = self.s2
        t = self.t
        if len(window) >= self.capacity:
            # The oldest label leaves; its count drops to ``after``.
            oldest = window.popleft()
            after = counts[oldest] - 1
            if after:
                counts[oldest] = after
            else:
                del counts[oldest]
            s2 -= 2 * after + 1
            t -= step[after]
        # The new label enters; its count rises from ``before``.
        before = counts.get(label, 0)
        window.append(label)
        counts[label] = before + 1
        self.s2 = s2 + 2 * before + 1
        try:
            self.t = t + step[before]
        except IndexError:
            self.t = t + _grow_steps(before)[before]
        self.events_since_refresh += 1
        if self.refresh_period and self.events_since_refresh >= self.refresh_period:
            self.refresh()

    def observe_many(self, labels: Sequence[Label]) -> None:
        """Slide the window forward by each of ``labels`` in turn.

        The result is the state that calling observe() on each label gives,
        for any split of a stream into calls, at a lower cost per label. It
        refreshes at most once, at the end of the call, when a refresh
        period ends inside it: a refresh changes no value.
        """
        window = self.window
        counts = self.counts
        get = counts.get
        append = window.append
        step = _STEP
        s2 = self.s2
        t = self.t
        # Until the window is full, labels only enter. The block's length
        # bounds the fill count: islice takes no count above sys.maxsize.
        remaining = iter(labels)
        for label in islice(remaining, min(self.capacity - len(window), len(labels))):
            before = get(label, 0)
            append(label)
            counts[label] = before + 1
            s2 += 2 * before + 1
            try:
                t += step[before]
            except IndexError:
                t += _grow_steps(before)[before]
        # From then on the oldest label leaves before each one enters.
        popleft = window.popleft
        for label in remaining:
            oldest = popleft()
            after = counts[oldest] - 1
            if after:
                counts[oldest] = after
            else:
                del counts[oldest]
            before = get(label, 0)
            append(label)
            counts[label] = before + 1
            s2 += 2 * (before - after)
            try:
                t += step[before] - step[after]
            except IndexError:
                t += _grow_steps(before)[before] - step[after]
        self.s2 = s2
        self.t = t
        since = self.events_since_refresh + len(labels)
        period = self.refresh_period
        if period and since >= period:
            self.refresh()
            since %= period
        self.events_since_refresh = since

    def observe_block(self, labels: Sequence[Label], seen: int, every: int) -> List[float]:
        """Observe ``labels`` as the events after the first ``seen`` of a
        stream; returns the flat rows ``[index, gini, entropy, index, …]`` of
        each event whose count is a multiple of ``every``, its index one
        less.

        Each run of labels up to such an event goes to observe_many(), or
        to observe() when it is one label long: observe_many() costs more
        to set up than one observe().
        """
        rows: List[float] = []
        start = 0
        end = every - seen % every
        while end <= len(labels):
            if end - start == 1:
                self.observe(labels[start])
            else:
                self.observe_many(labels[start:end])
            rows += (seen + end - 1, *self.metrics())
            start = end
            end += every
        if start < len(labels):
            self.observe_many(labels[start:])
        return rows

    def refresh(self) -> None:
        """Rebuild ``s2`` and ``t`` from the window's class counts."""
        # Many classes share a count, so sum over the distinct counts.
        tally = Counter(self.counts.values())
        self.s2 = sum(c * c * k for c, k in tally.items())
        self.t = sum(_scaled_plog2(c) * k for c, k in tally.items())
        self.events_since_refresh = 0

    def metrics(self) -> Tuple[float, float]:
        """Current (gini, entropy); O(1)."""
        if len(self.counts) < 2:
            return (0.0, 0.0)
        n = len(self.window)
        # t / n is a correctly rounded int division; scaling it by 2**-52 is exact.
        return (1.0 - self.s2 / (n * n), max(0.0, log2(n) - ldexp(self.t / n, -52)))

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``."""
        return {
            "capacity": self.capacity,
            "refresh_period": self.refresh_period,
            "events_since_refresh": self.events_since_refresh,
            "window": list(self.window),
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], events: int, n_labels: int
    ) -> "SlidingWindowEstimator":
        """Rebuild an estimator from state() after ``events`` events over
        ``n_labels`` labels; ValueError if no run reaches that state."""
        capacity, period, since, window = state_fields(
            state, capacity=int, refresh_period=int, events_since_refresh=int, window=list
        )
        estimator = cls(capacity, period)
        if period and since >= period:
            raise ValueError(f"events_since_refresh {since} is not below the refresh period {period}")
        if len(window) > min(capacity, events):
            raise ValueError(
                f"{len(window)} events in the window exceed its capacity {capacity} "
                f"or the {events} events seen"
            )
        if max(window, default=-1) >= n_labels:
            raise ValueError("class id outside the label table")
        estimator.window.extend(window)
        estimator.counts = dict(Counter(window))
        _grow_steps(max(estimator.counts.values(), default=0))
        estimator.refresh()
        estimator.events_since_refresh = since
        return estimator
