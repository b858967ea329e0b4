"""Micro-benchmark: incremental per-event updates vs full recomputation.

Times how long one stream event costs (a) when the estimators advance their
metrics incrementally and (b) when both metrics are recomputed from the
class counts on every event. The incremental cost should be flat in the
number of classes; the recomputation cost grows linearly with it.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from .core import entropy_exact, gini_exact
from .fading import FadingEstimator
from .window import SlidingWindowEstimator

__all__ = ["BenchResult", "BENCH_MODES", "generate_labels", "run_bench", "format_report"]

BENCH_MODES = ("window", "fading", "recompute")

DEFAULT_SEED = 12345


class BenchResult(NamedTuple):
    mode: str
    classes: int
    events: int
    ns_per_event: float


def generate_labels(classes: int, events: int, seed: int = DEFAULT_SEED) -> List[int]:
    """Uniform random label stream as dense integer ids."""
    rng = random.Random(seed)
    return [rng.randrange(classes) for _ in range(events)]


def _time_per_event(
    make_observe: Callable[[], Callable[[int], None]],
    labels: Sequence[int],
    repeat: int,
) -> float:
    """Best-of-``repeat`` wall time per event, in nanoseconds.

    Each repetition runs on a fresh estimator; GC is paused inside the timed
    loop to keep measurements clean.
    """
    best = math.inf
    for _ in range(repeat):
        observe = make_observe()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for label in labels:
                observe(label)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        best = min(best, elapsed)
    return best * 1e9 / len(labels)


def _make_recompute_observe() -> Callable[[int], None]:
    counts: Dict[int, int] = {}

    def observe(label: int) -> None:
        counts[label] = counts.get(label, 0) + 1
        gini_exact(counts)
        entropy_exact(counts)

    return observe


def run_bench(
    classes: int,
    events: int,
    modes: Iterable[str] = BENCH_MODES,
    window_size: int = 1000,
    alpha: float = 0.99,
    seed: int = DEFAULT_SEED,
    repeat: int = 3,
) -> List[BenchResult]:
    """Time the requested modes on one synthetic uniform label stream.

    ValueError, before anything is timed, if an argument is out of range for
    a requested mode; ``window_size`` and ``alpha`` are checked by the
    estimators that take them, and only when their mode is requested.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if events < 1:
        raise ValueError("need at least one event")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    labels = generate_labels(classes, events, seed)
    factories: Dict[str, Callable[[], Callable[[int], None]]] = {
        "window": lambda: SlidingWindowEstimator(window_size).observe,
        "fading": lambda: FadingEstimator(alpha).observe,
        "recompute": _make_recompute_observe,
    }
    for mode in modes:
        if mode not in factories:
            raise ValueError(f"unknown bench mode {mode!r}")
        # An out-of-range window size or alpha raises here, before any timing.
        factories[mode]()
    return [
        BenchResult(mode, classes, events, _time_per_event(factories[mode], labels, repeat))
        for mode in modes
    ]


def format_report(results: Sequence[BenchResult]) -> str:
    """Machine-readable TSV report with a speedup-vs-recompute column."""
    baselines = {
        (r.classes, r.events): r.ns_per_event for r in results if r.mode == "recompute"
    }
    lines = ["mode\tclasses\tevents\tns_per_event\tspeedup_vs_recompute"]
    for r in results:
        baseline = baselines.get((r.classes, r.events))
        speedup = f"{baseline / r.ns_per_event:.2f}" if baseline else ""
        lines.append(f"{r.mode}\t{r.classes}\t{r.events}\t{r.ns_per_event:.1f}\t{speedup}")
    return "\n".join(lines) + "\n"
