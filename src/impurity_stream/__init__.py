"""Streaming impurity metrics: Gini index and Shannon entropy in O(1) per event.

The package keeps both metrics of a time-changing labeled stream current
without recomputing them from the class distribution: (total, value) pairs
are sufficient statistics that every update formula advances directly.
Recency is handled either by a sliding window over the last w events or by
a fading factor that geometrically discounts older contributions.

Layers:

    core      exact brute-force metrics over count vectors (the oracle),
              label interning, the recompute-everything reference estimator
    gini      incremental Gini state transitions
    entropy   incremental entropy state transitions
    window    sliding-window estimator for both metrics
    fading    fading-factor estimator for both metrics
    snapshot  bit-exact save/restore of estimator state
    bench     incremental-vs-recompute micro-benchmark
    cli       the `impurity-stream` command
"""

from .core import (
    ExactEstimator,
    Interner,
    entropy_exact,
    gini_exact,
    plog2p,
    rescale_entropy,
    sum_squares,
)
from .entropy import EntropyState
from .fading import FadingEstimator
from .gini import GiniState
from .snapshot import LoadedSnapshot, SnapshotError, load_snapshot, save_snapshot
from .window import RefreshError, SlidingWindowEstimator

__version__ = "0.1.0"

__all__ = [
    "EntropyState",
    "ExactEstimator",
    "FadingEstimator",
    "GiniState",
    "Interner",
    "LoadedSnapshot",
    "RefreshError",
    "SlidingWindowEstimator",
    "SnapshotError",
    "entropy_exact",
    "gini_exact",
    "load_snapshot",
    "plog2p",
    "rescale_entropy",
    "save_snapshot",
    "sum_squares",
    "__version__",
]
