"""Micro-benchmark: incremental per-event updates vs full recomputation.

Times how long one stream event costs, metrics included, on the path that
``impurity-stream run --emit-every 1`` takes: each estimator's
``observe_block`` over blocks of the CLI's size, asked for a row after
every event. The window and fading estimators advance both metrics
incrementally; ``recompute`` is the ExactEstimator, which recomputes both
from the class counts on every event. The incremental cost should be flat
in the number of classes; the recomputation cost grows linearly with it.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from .cli import _BLOCK
from .core import ExactEstimator
from .fading import FadingEstimator
from .snapshot import Estimator
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


def _time_per_event(make: Callable[[], Estimator], labels: Sequence[int], repeat: int) -> float:
    """Best-of-``repeat`` wall time per event, in nanoseconds.

    Each repetition feeds ``labels`` to a fresh estimator's ``observe_block``
    in blocks of ``_BLOCK``, with a row after every event; each block's rows
    are dropped as its call returns. GC is paused inside the timed loop to
    keep measurements clean.
    """
    best = math.inf
    for _ in range(repeat):
        observe_block = make().observe_block
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for seen in range(0, len(labels), _BLOCK):
                observe_block(labels[seen : seen + _BLOCK], seen, 1)
            elapsed = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        best = min(best, elapsed)
    return best * 1e9 / len(labels)


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
    factories: Dict[str, Callable[[], Estimator]] = {
        "window": lambda: SlidingWindowEstimator(window_size),
        "fading": lambda: FadingEstimator(alpha),
        "recompute": ExactEstimator,
    }
    for mode in modes:
        if mode not in factories:
            raise ValueError(f"unknown bench mode {mode!r}")
        # An out-of-range window size or alpha raises here, before any timing.
        factories[mode]()
    labels = generate_labels(classes, events, seed)
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
