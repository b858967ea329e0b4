"""Exact Gini index and Shannon entropy of labeled count vectors.

Both metrics are taken over the discrete distribution obtained by
normalizing a sample of nonnegative per-class masses ("counts"):

    gini    = 1 - sum((x / S)^2)                 in [0, 1 - 1/k]
    entropy = -sum((x / S) * log2(x / S))        in [0, log2 k] bits

where S is the total mass and k the number of distinct classes. Everything
here recomputes from raw counts in O(k); it is the ground truth that the
incremental state machines in the rest of the package are checked against.

Empty samples (S = 0) have both metrics defined as 0, and terms of the form
0 * log2(0) are taken as 0 throughout.
"""

from __future__ import annotations

import math
from itertools import count, islice, repeat
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Mapping, Sequence, Tuple

if TYPE_CHECKING:
    from array import array

__all__ = [
    "Label",
    "Interner",
    "ExactEstimator",
    "gini_exact",
    "entropy_exact",
    "sum_squares",
    "rescale_entropy",
    "plog2p",
]

# A class id as the window and fading estimators take it: a dense int from
# Interner, from 0 to len(interner) - 1. The exact functions, the states and
# ExactEstimator take any hashable key.
Label = int


def plog2p(p: float) -> float:
    """p * log2(p), extended continuously with 0 * log2(0) == 0."""
    return p * math.log2(p) if p > 0.0 else 0.0


def gini_exact(counts: Mapping[Hashable, float]) -> float:
    """Gini index of a count vector, recomputed from scratch.

    Accepts any mapping from class label to nonnegative mass. Returns 0 for
    an empty (or all-zero) sample.
    """
    values = counts.values()
    total = sum(values)
    if total <= 0.0:
        return 0.0
    return 1.0 - sum(v * v for v in values) / (total * total)


def entropy_exact(counts: Mapping[Hashable, float]) -> float:
    """Shannon entropy (bits) of a count vector, recomputed from scratch."""
    values = counts.values()
    total = sum(values)
    if total <= 0.0:
        return 0.0
    # fsum is correctly rounded, so the value does not depend on dict order.
    acc = math.fsum(plog2p(v / total) for v in values)
    # Avoid returning -0.0 for pure samples.
    return -acc if acc != 0.0 else 0.0


def sum_squares(total: float, gini: float) -> float:
    """Recover sum(x_i^2) of a sample from its total mass and Gini index.

    The Gini index determines the sum of squared masses:

        sum(x_i^2) = S^2 * (1 - G)

    which is the quantity every incremental Gini formula consumes.
    """
    return total * total * (1.0 - gini)


def rescale_entropy(h: float, total: float, added_mass: float) -> float:
    """Re-denominate an entropy over an enlarged total mass.

    Given a sample with entropy ``h`` and mass ``total``, returns the value
    of -sum((x_i / (S + R)) * log2(x_i / (S + R))) for R = ``added_mass``:

        (S / (S + R)) * (h - log2(S / (S + R)))

    This is the "old sample" contribution appearing in every incremental
    entropy formula. The empty sample must be short-circuited by the caller.
    """
    if total <= 0.0:
        raise ValueError("rescale_entropy requires a nonempty sample (total > 0)")
    if added_mass <= 0.0:
        raise ValueError("added mass must be positive")
    q = total / (total + added_mass)
    return q * (h - math.log2(q))


class _Ids(dict[str, int]):
    """Each interned label's id. Looking up a missing label appends it to
    ``labels`` and gives it the next id, so a whole block interns in one
    C-level ``map``."""

    __slots__ = ("labels",)
    labels: List[str]

    def __missing__(self, label: str) -> int:
        class_id = self[label] = len(self)
        self.labels.append(label)
        return class_id


class Interner:
    """Dense integer ids for string labels, assigned on first sight.

    Interning is injective: equal labels always map to the same id, distinct
    labels to distinct ids. The label universe is open; new labels may show
    up at any point of a stream.
    """

    __slots__ = ("_ids",)

    def __init__(self, labels: Iterable[str] = ()) -> None:
        # One pass: zip() draws from ``labels`` before ``numbers``, so
        # ``numbers`` then yields how many labels there were. Fewer keys
        # means a label repeated, and the ids are dealt again in key order.
        numbers = count()
        ids = self._ids = _Ids(zip(labels, numbers))
        ids.labels = list(ids)
        if next(numbers) != len(ids):
            labels = ids.labels
            self._ids = ids = _Ids(zip(labels, count()))
            ids.labels = labels

    def intern(self, label: str) -> int:
        """Return the id for a label, allocating the next dense id if new."""
        return self._ids[label]

    def intern_many(self, labels: Sequence[str]) -> List[int]:
        """The ids of ``labels``, as intern() on each in turn gives them."""
        return list(map(self._ids.__getitem__, labels))

    def label_of(self, class_id: int) -> str:
        """The label interned as ``class_id``; IndexError for an id that no
        label has, a negative one included."""
        if class_id < 0:
            raise IndexError(f"class id {class_id} is negative")
        return self._ids.labels[class_id]

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self._ids.labels)

    @property
    def ids(self) -> List[int]:
        """Each label's id object, in id order: a loaded window maps its ids
        onto these, so it holds one int per class, as a run does. A list,
        which indexes faster than a tuple; each call gives a new one."""
        return list(self._ids.values())

    def __iter__(self) -> Iterator[str]:
        """The labels in id order, without a copy."""
        return iter(self._ids.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return f"Interner({len(self._ids)} labels)"


def state_fields(state: Mapping[str, object], **kinds: type) -> List[object]:
    """The values of an estimator's state dict, in the order of ``kinds``.

    ``kinds`` maps each field name to int, float or list. The names must
    match exactly. An int, and every element of a list, must be an int >= 0;
    a float must be finite. A list field also takes an unsigned ``array``,
    as state() gives it and a snapshot loads it, whose items need no check.
    Raises ValueError otherwise.
    """
    extra = sorted(state.keys() - kinds.keys())
    missing = [name for name in kinds if name not in state]
    if extra or missing:
        raise ValueError(f"unexpected field {extra[0]!r}" if extra else f"missing field {missing[0]!r}")
    values = []
    for name, kind in kinds.items():
        value = state[name]
        if kind is list and _is_unsigned_array(value):
            values.append(value)
            continue
        if type(value) is not kind:
            raise ValueError(f"{name} must be of type {kind.__name__}")
        if kind is float:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        elif kind is int:
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        elif not set(map(type, value)) <= {int} or min(value, default=0) < 0:
            raise ValueError(f"{name} must hold ints >= 0")
        values.append(value)
    return values


def _is_unsigned_array(value: object) -> bool:
    """Whether ``value`` is an ``array`` of an unsigned typecode, whose items
    are ints >= 0. ``array`` is imported here and in unsigned_array(), not
    at module level: a run that saves and loads no state never loads the
    extension module, which costs about 0.1 MiB of peak RSS."""
    from array import array

    return type(value) is array and value.typecode in "BHILQ"


def unsigned_array(top: int, items: Iterable[int] = ()) -> array:
    """An unsigned ``array`` of ``items``, of the narrowest typecode that
    holds ``top``, an int at least as large as every item.

    The items are copied in slices of 4096, so no list of them all is
    built. OverflowError if no typecode holds ``top`` or an item is below 0
    or above its range; TypeError if an item is no int.
    """
    from array import array

    for code in "BHILQ":
        if not top >> 8 * array(code).itemsize:
            break
    else:
        raise OverflowError(f"{top} is below 0 or too large for every unsigned array")
    values = array(code)
    items = iter(items)
    while chunk := list(islice(items, 4096)):
        values.fromlist(chunk)
    return values


def check_counts(by_id: Sequence[int], events: int, n_labels: int) -> None:
    """ValueError unless ``events`` events over ``n_labels`` labels can give
    the class counts ``by_id``, a list or array indexed by interned class id."""
    if len(by_id) > n_labels:
        raise ValueError(f"{len(by_id)} counts for {n_labels} labels")
    total = sum(by_id)
    if total != events:
        raise ValueError(f"the counts sum to {total}, not to the {events} events seen")


class ExactEstimator:
    """Reference stream estimator: unbounded counts, brute-force metrics.

    observe() is O(1); every metrics() call recomputes both metrics from the
    full count vector in O(k). This is the expensive baseline the
    incremental estimators replace, and the oracle they are tested against.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[Hashable, int] = {}

    def observe(self, label: Hashable) -> None:
        counts = self.counts
        counts[label] = counts.get(label, 0) + 1

    def metrics(self) -> Tuple[float, float]:
        return (gini_exact(self.counts), entropy_exact(self.counts))

    def observe_block(self, labels: Sequence[Hashable], seen: int, every: int) -> List[float]:
        """Observe ``labels`` as the events after the first ``seen`` of a
        stream; returns the flat rows ``[index, gini, entropy, index, …]`` of
        each event whose count is a multiple of ``every``, its index one
        less. The metrics are computed only for those rows."""
        counts = self.counts
        get = counts.get
        rows: List[float] = []
        for label in labels:
            counts[label] = get(label, 0) + 1
            seen += 1
            if seen % every == 0:
                rows += (seen - 1, gini_exact(counts), entropy_exact(counts))
        return rows

    def state(self) -> Dict[str, object]:
        """The fields that restore this estimator; see ``snapshot``."""
        counts = self.counts
        # A negative id would index the array from its end.
        if min(counts, default=0) < 0:
            raise IndexError("class id below 0")
        by_id = unsigned_array(max(counts.values(), default=0), repeat(0, max(counts, default=-1) + 1))
        for class_id, count in counts.items():
            by_id[class_id] = count
        return {"counts": by_id}

    @classmethod
    def from_state(cls, state: Mapping[str, object], events: int, ids: Sequence[int]) -> "ExactEstimator":
        """Rebuild an estimator from state() after ``events`` events over the
        labels whose ids are ``ids``; ValueError if no run reaches that state."""
        (by_id,) = state_fields(state, counts=list)
        check_counts(by_id, events, len(ids))
        estimator = cls()
        estimator.counts = {class_id: count for class_id, count in enumerate(by_id) if count}
        return estimator
