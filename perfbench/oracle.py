"""Independent reference values and the trace checker.

Nothing here imports the package under test. The window reference keeps
exact integer class counts over the sliding window: Gini comes from the
integer sum of squared counts, entropy from a ``math.fsum`` over the
histogram of counts. The fading reference runs the published recurrence in
a rearranged form (running n^2(1 - G) and n*H instead of G and H), so its
rounding differs from the program's.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

# Printed values carry 9 decimals, so they may sit up to 5e-10 from the value.
PRINT_SLACK = 5e-10
# The repository's accuracy contract: window traces stay within 1e-9 of exact
# with a refresh and 1e-6 without one; fading traces within 1e-9.
WINDOW_TOL_REFRESH = 1e-9
WINDOW_TOL_PLAIN = 1e-6
FADING_TOL = 1e-9

_LN2 = math.log(2.0)


@dataclass
class Reference:
    """Reference (gini, entropy) at each of the sorted event ``indices``."""

    indices: List[int]
    gini: array
    entropy: array

    def max_deviation(self, observed: Sequence[int], gini: Sequence[float], entropy: Sequence[float]):
        """Largest |gini|, |entropy| error of values observed at event indices."""
        worst_g = worst_h = 0.0
        for index, g, h in zip(observed, gini, entropy):
            k = bisect_left(self.indices, index)
            if k == len(self.indices) or self.indices[k] != index:
                raise ValueError(f"no reference value at event {index}")
            worst_g = max(worst_g, abs(g - self.gini[k]))
            worst_h = max(worst_h, abs(h - self.entropy[k]))
        return worst_g, worst_h


def intern_ids(labels: Iterable[str]) -> List[int]:
    ids: Dict[str, int] = {}
    return [ids.setdefault(label, len(ids)) for label in labels]


def window_reference(ids: Sequence[int], capacity: int, indices: List[int]) -> Reference:
    """Exact metrics of the last ``capacity`` events at each index."""
    ref = Reference(indices, array("d"), array("d"))
    counts = [0] * (max(ids, default=-1) + 1)
    hist: Dict[int, int] = {}  # count value -> number of classes with it
    ssq = 0

    def move(class_id: int, step: int) -> int:
        before = counts[class_id]
        after = before + step
        counts[class_id] = after
        if before:
            left = hist[before] - 1
            if left:
                hist[before] = left
            else:
                del hist[before]
        if after:
            hist[after] = hist.get(after, 0) + 1
        return after * after - before * before

    i = -1
    for index in indices:
        while i < index:
            i += 1
            if i >= capacity:
                ssq += move(ids[i - capacity], -1)
            ssq += move(ids[i], 1)
        n = min(i + 1, capacity)
        ref.gini.append((n * n - ssq) / (n * n))
        ref.entropy.append(math.fsum(m * c * math.log2(n / c) for c, m in hist.items()) / n)
    return ref


def _step(x: int) -> float:
    """(x+1)*log2(x+1) - x*log2(x), without cancellation."""
    return math.log2(x + 1) + x * math.log1p(1.0 / x) / _LN2 if x else 0.0


def fading_reference(ids: Sequence[int], alpha: float, indices: List[int]) -> Reference:
    """Faded metrics of the published recurrence at each index.

    With n events seen and n_i of them in the arriving class:
    n'^2 (1 - G') = (1 - alpha) n^2 + alpha n^2 (1 - G) + 2 n_i + 1 and
    n' H' = alpha n H + f(n+1) - f(n) - f(n_i+1) + f(n_i), f(x) = x log2 x.
    """
    ref = Reference(indices, array("d"), array("d"))
    counts: Dict[int, int] = {}
    n = 0
    ssq = 0.0  # n^2 (1 - G)
    nh = 0.0  # n H
    for index in indices:
        while n <= index:
            class_id = ids[n]
            n_i = counts.get(class_id, 0)
            ssq = (1.0 - alpha) * n * n + alpha * ssq + 2 * n_i + 1
            nh = alpha * nh + _step(n) - _step(n_i)
            n += 1
            counts[class_id] = n_i + 1
        ref.gini.append(1.0 - ssq / (n * n))
        ref.entropy.append(nh / n)
    return ref


def emit_indices(events: int, emit_every: int, part_ends: Iterable[int]) -> List[int]:
    """Indices of the rows a run emits: every ``emit_every``-th event counted
    from the start of the stream, plus the last event of each process."""
    rows = set(range(emit_every - 1, events, emit_every))
    rows.update(end - 1 for end in part_ends if end > 0)
    return sorted(rows)


def count_failures(text: str, reference: Reference, tolerance: float) -> int:
    """Rows of a ``index<TAB>gini<TAB>entropy`` trace that are wrong.

    Rows must come in the reference's index order. A row is wrong when it
    does not parse, has an index the reference does not expect at that
    point, or is off by more than ``tolerance`` in either metric. Every
    expected index without a row counts once.
    """
    failures = 0
    k = 0
    indices = reference.indices
    for line in text.splitlines():
        try:
            index_text, gini_text, entropy_text = line.split("\t")
            index = int(index_text)
            gini, entropy = float(gini_text), float(entropy_text)
        except ValueError:
            failures += 1
            continue
        while k < len(indices) and indices[k] < index:
            failures += 1  # skipped an expected row
            k += 1
        if k == len(indices) or indices[k] != index:
            failures += 1  # extra, repeated or out-of-order row
            continue
        if not (
            abs(gini - reference.gini[k]) <= tolerance
            and abs(entropy - reference.entropy[k]) <= tolerance
        ):
            failures += 1
        k += 1
    return failures + len(indices) - k


def reference_for(workload, ids: Sequence[int], indices: List[int]) -> Reference:
    """Reference values for a workload's estimator at ``indices``."""
    if workload.mode == "window":
        return window_reference(ids, workload.window_size, indices)
    return fading_reference(ids, workload.alpha, indices)


def tolerance_for(workload) -> float:
    """Largest allowed distance of a printed value from the reference."""
    if workload.mode == "fading":
        return FADING_TOL + PRINT_SLACK
    return (WINDOW_TOL_REFRESH if workload.refresh_every else WINDOW_TOL_PLAIN) + PRINT_SLACK
