"""Versioned text snapshots of estimator state.

A snapshot captures everything needed to resume a stream run so that the
resumed metric trace is byte-identical to an uninterrupted one: the
estimator mode and configuration, the label interning table, the class
counts (plus window contents or faded metric values), and the number of
events already consumed.

The format is line-oriented and self-describing: a header line carrying the
format version and mode, then one key-value or count entry per line. Every
float is serialized as a hexadecimal float literal, which round-trips
bit-exactly. Labels are JSON-encoded strings (UTF-8, one per line) listed
in id order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from .core import ClassCounts, ExactEstimator, Interner
from .fading import FadingEstimator
from .window import SlidingWindowEstimator

__all__ = ["SnapshotError", "LoadedSnapshot", "save_snapshot", "load_snapshot"]

_MAGIC = "impurity-stream-snapshot"
_VERSION = 1
_MODES = ("window", "fading", "exact")

Estimator = Union[SlidingWindowEstimator, FadingEstimator, ExactEstimator]


class SnapshotError(ValueError):
    """A snapshot file is corrupt, has an unknown version, or a wrong mode."""


@dataclass
class LoadedSnapshot:
    mode: str
    estimator: Estimator
    interner: Interner
    events_seen: int


def save_snapshot(
    path: str | Path,
    mode: str,
    estimator: Estimator,
    interner: Interner,
    events_seen: int,
) -> None:
    """Write the full run state to ``path``."""
    if mode not in _MODES:
        raise SnapshotError(f"unknown mode {mode!r}")
    lines: List[str] = [f"{_MAGIC} {_VERSION} {mode}", f"events {events_seen}"]
    lines.append(f"labels {len(interner)}")
    for label in interner.labels:
        lines.append(json.dumps(label, ensure_ascii=False))

    if mode == "window":
        if not isinstance(estimator, SlidingWindowEstimator):
            raise SnapshotError("mode 'window' requires a SlidingWindowEstimator")
        lines.append(f"capacity {estimator.capacity}")
        lines.append(f"refresh_period {estimator.refresh_period}")
        lines.append(f"events_since_refresh {estimator.events_since_refresh}")
        lines.append(f"gini {estimator.gini.total.hex()} {estimator.gini.value.hex()}")
        lines.append(f"entropy {estimator.entropy.total.hex()} {estimator.entropy.value.hex()}")
        _append_int_counts(lines, estimator.counts)
        lines.append(f"window {len(estimator.window)}")
        for class_id in estimator.window:
            lines.append(str(_require_id(class_id)))
    elif mode == "fading":
        if not isinstance(estimator, FadingEstimator):
            raise SnapshotError("mode 'fading' requires a FadingEstimator")
        lines.append(f"alpha {float(estimator.alpha).hex()}")
        lines.append(f"n {estimator.n}")
        lines.append(f"g {estimator.g.hex()}")
        lines.append(f"h {estimator.h.hex()}")
        _append_int_counts(lines, estimator.counts)
    else:
        if not isinstance(estimator, ExactEstimator):
            raise SnapshotError("mode 'exact' requires an ExactEstimator")
        lines.append(f"counts {len(estimator.counts)}")
        for class_id, mass in estimator.counts.items():
            lines.append(f"{_require_id(class_id)} {float(mass).hex()}")

    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_snapshot(path: str | Path) -> LoadedSnapshot:
    """Read a snapshot back; raises SnapshotError on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid UTF-8: {exc}") from None
    reader = _Reader(text.splitlines())

    header = reader.line("header").split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise SnapshotError("not an impurity-stream snapshot")
    if header[1] != str(_VERSION):
        raise SnapshotError(f"unsupported snapshot version {header[1]!r}")
    mode = header[2]
    if mode not in _MODES:
        raise SnapshotError(f"unknown snapshot mode {mode!r}")

    events_seen = reader.int_value("events")
    if events_seen < 0:
        raise SnapshotError(f"bad snapshot: negative event count {events_seen}")
    n_labels = reader.int_value("labels")
    labels = []
    for _ in range(n_labels):
        raw = reader.line("label entry")
        try:
            label = json.loads(raw)
        except json.JSONDecodeError:
            raise SnapshotError(f"bad label entry: {raw!r}") from None
        if not isinstance(label, str):
            raise SnapshotError(f"bad label entry: {raw!r}")
        labels.append(label)
    interner = Interner(labels)

    if mode == "window":
        estimator = _load_window(reader, n_labels)
    elif mode == "fading":
        estimator = _load_fading(reader, n_labels)
    else:
        estimator = _load_exact(reader, n_labels)
    reader.expect_end()
    return LoadedSnapshot(mode, estimator, interner, events_seen)


def _load_window(reader: "_Reader", n_labels: int) -> SlidingWindowEstimator:
    capacity = reader.int_value("capacity")
    refresh_period = reader.int_value("refresh_period")
    since_refresh = reader.int_value("events_since_refresh")
    gini_total, gini_value = reader.float_pair("gini")
    ent_total, ent_value = reader.float_pair("entropy")
    counts = reader.int_counts()
    n_window = reader.int_value("window")
    window = [reader.int_line("window entry") for _ in range(n_window)]

    try:
        estimator = SlidingWindowEstimator(capacity, refresh_period)
    except ValueError as exc:
        raise SnapshotError(f"bad window snapshot: {exc}") from None
    if since_refresh < 0 or (refresh_period and since_refresh >= refresh_period):
        raise SnapshotError(
            f"window snapshot inconsistent: events_since_refresh {since_refresh} "
            f"outside 0 .. refresh period {refresh_period}"
        )
    if n_window > capacity:
        raise SnapshotError("window snapshot inconsistent: contents exceed capacity")
    if Counter(window) != counts:
        raise SnapshotError("window snapshot inconsistent: counts differ from window contents")
    _check_ids("window", counts, n_labels)
    if gini_total != n_window or ent_total != n_window:
        raise SnapshotError("window snapshot inconsistent: stored totals differ from window length")
    estimator.window.extend(window)
    estimator.counts = counts
    estimator.g = gini_value
    estimator.h = ent_value
    estimator.events_since_refresh = since_refresh
    return estimator


def _load_fading(reader: "_Reader", n_labels: int) -> FadingEstimator:
    alpha = reader.float_value("alpha")
    n = reader.int_value("n")
    g = reader.float_value("g")
    h = reader.float_value("h")
    counts = reader.int_counts()
    if sum(counts.values()) != n:
        raise SnapshotError("fading snapshot inconsistent: counts do not sum to n")
    _check_ids("fading", counts, n_labels)
    try:
        estimator = FadingEstimator(alpha)
    except ValueError as exc:
        raise SnapshotError(f"bad fading snapshot: {exc}") from None
    estimator.n = n
    estimator.counts = counts
    estimator.g = g
    estimator.h = h
    return estimator


def _load_exact(reader: "_Reader", n_labels: int) -> ExactEstimator:
    n_counts = reader.int_value("counts")
    counts = ClassCounts()
    for _ in range(n_counts):
        parts = reader.line("count entry").split()
        if len(parts) != 2:
            raise SnapshotError(f"bad count entry: {' '.join(parts)!r}")
        mass = _parse_hex_float(parts[1])
        if not mass >= 0.0:
            raise SnapshotError(f"bad count entry: mass {parts[1]} must be >= 0")
        counts.add(_parse_int(parts[0]), mass)
    _check_ids("exact", counts, n_labels)
    return ExactEstimator(counts)


def _check_ids(mode: str, class_ids: Iterable[int], n_labels: int) -> None:
    if any(not 0 <= class_id < n_labels for class_id in class_ids):
        raise SnapshotError(f"{mode} snapshot inconsistent: class id outside the label table")


def _append_int_counts(lines: List[str], counts: Dict[int, int]) -> None:
    lines.append(f"counts {len(counts)}")
    for class_id, count in counts.items():
        lines.append(f"{_require_id(class_id)} {int(count)}")


def _require_id(class_id: object) -> int:
    if not isinstance(class_id, int) or isinstance(class_id, bool):
        raise SnapshotError(
            f"snapshots require interned integer class ids, got {class_id!r}"
        )
    return class_id


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SnapshotError(f"expected an integer, got {token!r}") from None


def _parse_hex_float(token: str) -> float:
    try:
        return float.fromhex(token)
    except ValueError:
        raise SnapshotError(f"expected a hex float literal, got {token!r}") from None


class _Reader:
    """Sequential line reader with snapshot-flavored error messages."""

    def __init__(self, lines: List[str]) -> None:
        self._lines = lines
        self._pos = 0

    def line(self, what: str) -> str:
        if self._pos >= len(self._lines):
            raise SnapshotError(f"truncated snapshot: missing {what}")
        raw = self._lines[self._pos]
        self._pos += 1
        return raw

    def keyed(self, key: str) -> List[str]:
        parts = self.line(f"'{key}' line").split()
        if not parts or parts[0] != key:
            raise SnapshotError(f"expected '{key}' line, got {' '.join(parts)!r}")
        return parts[1:]

    def int_value(self, key: str) -> int:
        rest = self.keyed(key)
        if len(rest) != 1:
            raise SnapshotError(f"malformed '{key}' line")
        return _parse_int(rest[0])

    def float_value(self, key: str) -> float:
        rest = self.keyed(key)
        if len(rest) != 1:
            raise SnapshotError(f"malformed '{key}' line")
        return _parse_hex_float(rest[0])

    def float_pair(self, key: str) -> Tuple[float, float]:
        rest = self.keyed(key)
        if len(rest) != 2:
            raise SnapshotError(f"malformed '{key}' line")
        return _parse_hex_float(rest[0]), _parse_hex_float(rest[1])

    def int_line(self, what: str) -> int:
        return _parse_int(self.line(what))

    def int_counts(self) -> Dict[int, int]:
        n = self.int_value("counts")
        counts: Dict[int, int] = {}
        for _ in range(n):
            parts = self.line("count entry").split()
            if len(parts) != 2:
                raise SnapshotError(f"bad count entry: {' '.join(parts)!r}")
            class_id = _parse_int(parts[0])
            count = _parse_int(parts[1])
            if count <= 0:
                raise SnapshotError(f"bad count entry: nonpositive count {count}")
            counts[class_id] = count
        return counts

    def expect_end(self) -> None:
        if any(line.strip() for line in self._lines[self._pos :]):
            raise SnapshotError("trailing garbage after snapshot body")
