"""Sliding-window Gini and entropy over the most recent stream events."""

from __future__ import annotations

import sys
from collections import Counter, deque
from itertools import chain, islice
from math import ldexp, log2
from typing import Deque, Dict, List, Mapping, Sequence, Tuple

from .core import Label, state_fields, unsigned_array

__all__ = ["SlidingWindowEstimator", "RefreshError"]

# The window packs t and s2 into one int, t << _SHIFT | s2. A deque holds
# fewer than 2**63 items, so s2 <= n**2 < 2**126 never reaches the t bits.
_SHIFT = 128
_S2_MASK = (1 << _SHIFT) - 1


def _scaled_plog2(count: int) -> int:
    """count * log2(count) scaled by 2**52: an exact int, 0 below 2.

    For count >= 2 the float product is at least 2, so its last bit is worth
    at least 2**-52 and the scaled value is integral.
    """
    return int(ldexp(count * log2(count), 52)) if count >= 2 else 0


# _STEP[c] is what a count moving from c to c + 1 adds to the packed sums:
# (_scaled_plog2(c + 1) - _scaled_plog2(c)) << _SHIFT in t's bits and
# 2c + 1 in s2's. Shared by every window, it grows on demand up to the
# largest count any window has reached, with a block's ids counted in before
# its evicted ids leave, not to the capacity: a large window of many small
# classes keeps it short.
_STEP: List[int] = []


def _grow_steps(count: int) -> List[int]:
    """Extend _STEP so that it holds _STEP[count]; returns it."""
    scaled = _scaled_plog2(len(_STEP))
    for c in range(len(_STEP), count + 1):
        following = _scaled_plog2(c + 1)
        _STEP.append(((following - scaled) << _SHIFT) + 2 * c + 1)
        scaled = following
    return _STEP


class RefreshError(RuntimeError):
    """A window's running sums differ from the sums of its class counts."""


class SlidingWindowEstimator:
    """Both impurity metrics of the last ``capacity`` labels, in O(1) per event.

    A label is an interned class id: an int from 0 to the number of labels
    interned less one. ``counts`` is a list indexed by id that grows to the
    largest id observed; a count that falls to 0 stays in it. A negative id
    raises ValueError, and an id that is no int, such as a str or a float,
    TypeError; observe() and observe_many() then leave the state as it was.
    Memory is O(capacity + ids).

    A full window evicts its oldest label before inserting the new one, so
    occupancy never exceeds the capacity.

    The state is one exact int, ``sums`` = t·2**128 + s2, over the window's
    class counts c: ``s2`` = sum of c**2 and ``t`` = sum of P(c), where P(c)
    is c*log2(c) scaled by 2**52 (an exact int). s2 <= n**2 < 2**126 for any
    window a deque holds, so the two never overlap. A count moving between
    c and c + 1 moves ``sums`` by a table entry, so nothing accumulates
    rounding: Gini is 1 - s2/n**2 and entropy log2(n) - t/(n * 2**52), each
    from correctly rounded int divisions, and both follow from the window
    alone.

    ``refresh_period`` > 0 calls refresh() every that-many events. It
    rebuilds the sums from the counts (O(ids)) and checks that they equal
    ``sums``, which they do by construction; 0 disables it.

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
        # A capacity beyond sys.maxsize is never reached, and maxlen takes none.
        self.window: Deque[Label] = deque(maxlen=min(capacity, sys.maxsize))
        self.counts: List[int] = []
        self.sums = 0
        self.events_since_refresh = 0

    @property
    def s2(self) -> int:
        """Sum of the squared class counts."""
        return self.sums & _S2_MASK

    @property
    def t(self) -> int:
        """Sum of P(c) over the class counts."""
        return self.sums >> _SHIFT

    def __len__(self) -> int:
        return len(self.window)

    def observe(self, label: Label) -> None:
        """Slide the window forward by one labeled event."""
        if label < 0:
            raise ValueError(f"class id {label} is negative")
        counts = self.counts
        # The new label's count is read first: an id that is no int raises
        # TypeError here, before the window changes.
        try:
            before = counts[label]
        except IndexError:
            counts += [0] * (label + 1 - len(counts))
            before = 0
        window = self.window
        sums = self.sums
        if len(window) >= self.capacity:
            # The oldest label leaves; its count drops to ``after``.
            oldest = window.popleft()
            after = counts[oldest] - 1
            counts[oldest] = after
            sums -= _STEP[after]
            if oldest == label:
                before = after
        # The new label enters; its count rises from ``before``.
        counts[label] = before + 1
        window.append(label)
        try:
            self.sums = sums + _STEP[before]
        except IndexError:
            self.sums = sums + _grow_steps(before)[before]
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
        if not labels:
            return
        if min(labels) < 0:
            raise ValueError(f"class id {min(labels)} is negative")
        counts = self.counts
        known = len(counts)
        step = _STEP
        sums = self.sums
        # The sums depend on the final counts alone, so every id of the block
        # enters before the evicted ones leave, and no count drops below 0.
        try:
            for label in labels:
                try:
                    before = counts[label]
                except IndexError:
                    counts += [0] * (label + 1 - len(counts))
                    before = 0
                counts[label] = before + 1
                try:
                    sums += step[before]
                except IndexError:
                    sums += _grow_steps(before)[before]
        except TypeError:
            # An id that is no int: take back the counts of the ids before it.
            for label in labels:
                try:
                    counts[label] -= 1
                except TypeError:
                    break
            del counts[known:]
            raise
        # The ids that leave are the oldest of the window followed by the
        # block's own, as many as the block overfills the window by.
        window = self.window
        leaving = len(window) + len(labels) - self.capacity
        if leaving > 0:
            for oldest in islice(chain(window, labels), leaving):
                after = counts[oldest] - 1
                counts[oldest] = after
                sums -= step[after]
        window.extend(labels)
        self.sums = sums
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
        to set up than one observe(). At ``every`` 1 each label goes to
        observe() with no run to slice.
        """
        observe, metrics = self.observe, self.metrics
        rows: List[float] = []
        if every == 1:
            append, extend = rows.append, rows.extend
            for index, label in enumerate(labels, seen):
                observe(label)
                append(index)
                extend(metrics())
            return rows
        start = 0
        end = every - seen % every
        while end <= len(labels):
            if end - start == 1:
                observe(labels[start])
            else:
                self.observe_many(labels[start:end])
            rows += (seen + end - 1, *metrics())
            start = end
            end += every
        if start < len(labels):
            self.observe_many(labels[start:])
        return rows

    def refresh(self) -> None:
        """Check ``sums`` against the sums rebuilt from the window's class
        counts, and start a new refresh period. Each update keeps them equal,
        so a difference is a fault in an update: RefreshError, with the state
        left as it was."""
        if self._sums_of_counts() != self.sums:
            raise RefreshError("the window's sums do not match its class counts at a refresh")
        self.events_since_refresh = 0

    def _sums_of_counts(self) -> int:
        """``sums`` rebuilt from the window's class counts; grows the step
        table to the largest count, which a window loaded from a state needs
        before its first eviction."""
        # Many classes share a count, so sum over the distinct counts; a
        # count of 0 adds nothing.
        tally = Counter(self.counts)
        _grow_steps(max(tally, default=0))
        return sum(((_scaled_plog2(c) << _SHIFT) + c * c) * k for c, k in tally.items())

    def metrics(self) -> Tuple[float, float]:
        """Current (gini, entropy); O(1)."""
        n = len(self.window)
        sums = self.sums
        s2 = sums & _S2_MASK
        # sum c**2 == (sum c)**2 only when at most one count is nonzero.
        if s2 == n * n:
            return (0.0, 0.0)
        # t / n is a correctly rounded int division; scaling it by 2**-52 is exact.
        return (1.0 - s2 / (n * n), max(0.0, log2(n) - ldexp((sums >> _SHIFT) / n, -52)))

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``. The
        window's ids are copied into an unsigned ``array``, at a fraction of
        a list's size, so later events do not change a state once taken."""
        # The largest id in the window is the last id with a count above 0,
        # found without a max() pass over the window.
        counts = self.counts
        top = len(counts) - 1
        while top > 0 and not counts[top]:
            top -= 1
        return {
            "capacity": self.capacity,
            "refresh_period": self.refresh_period,
            "events_since_refresh": self.events_since_refresh,
            "window": unsigned_array(max(top, 0), self.window),
        }

    @classmethod
    def from_state(
        cls, state: Mapping[str, object], events: int, ids: Sequence[Label]
    ) -> "SlidingWindowEstimator":
        """Rebuild an estimator from state() after ``events`` events over the
        labels whose ids are ``ids``, in id order, such as ``Interner.ids``;
        ValueError if no run reaches that state."""
        capacity, period, since, window = state_fields(
            state, capacity=int, refresh_period=int, events_since_refresh=int, window=list
        )
        estimator = cls(capacity, period)
        if period and since >= period:
            raise ValueError(f"events_since_refresh {since} is not below the refresh period {period}")
        # A run's window holds its last min(capacity, events) ids.
        if len(window) != min(capacity, events):
            raise ValueError(
                f"{len(window)} events in the window, where its capacity {capacity} "
                f"and the {events} events seen give {min(capacity, events)}"
            )
        # The window holds the id objects of ``ids``, one per class, as a run
        # holds its interner's, not one per event. An id at or past len(ids)
        # raises IndexError, so no max() pass is needed; state_fields has
        # seen none below 0.
        try:
            estimator.window.extend(map(ids.__getitem__, window))
        except IndexError:
            raise ValueError("class id outside the label table") from None
        # Indexing a list costs less per id than hashing it into a Counter.
        counts = estimator.counts = [0] * len(ids)
        for class_id in estimator.window:
            counts[class_id] += 1
        estimator.sums = estimator._sums_of_counts()
        estimator.events_since_refresh = since
        return estimator
