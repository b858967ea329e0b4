"""Versioned text snapshots of a run's state.

A snapshot holds what a run needs to resume with a trace byte-identical to
an uninterrupted one. Version 3 stores nothing that can be derived:

    impurity-stream-snapshot 3 MODE
    events N          events the run has consumed
    labels [...]      the label table, a JSON array in id order
    FIELD VALUE       one line per field of the estimator's state()

An int is written in decimal, a float as a hex literal (so it round-trips
bit-exactly) and a list of ints as a JSON array. The fields per mode:

    window  capacity, refresh_period, events_since_refresh and window
            (the ids in the window, oldest first)
    fading  alpha, g, h, counts (one per label, in id order)
    exact   counts (one per label, in id order)

The window's counts and its exact power sums follow from its ids, the
fading n from its counts. Each estimator's from_state() rejects a state
that no run reaches; that, and any malformed line, ends in SnapshotError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO, Union

from .core import ExactEstimator, Interner
from .fading import FadingEstimator
from .window import SlidingWindowEstimator

__all__ = ["ESTIMATORS", "SnapshotError", "LoadedSnapshot", "save_snapshot", "write_snapshot", "load_snapshot"]

_MAGIC = "impurity-stream-snapshot"
_VERSION = 3
# The estimator of each run mode, by the mode's name.
ESTIMATORS = {
    "window": SlidingWindowEstimator,
    "fading": FadingEstimator,
    "exact": ExactEstimator,
}

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
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        write_snapshot(out, mode, estimator, interner, events_seen)


def write_snapshot(
    out: TextIO, mode: str, estimator: Estimator, interner: Interner, events_seen: int
) -> None:
    """Write the full run state to the text stream ``out``."""
    kind = ESTIMATORS.get(mode)
    if kind is None:
        raise SnapshotError(f"unknown mode {mode!r}")
    if not isinstance(estimator, kind):
        raise SnapshotError(f"mode {mode!r} requires a {kind.__name__}")
    lines = [
        f"{_MAGIC} {_VERSION} {mode}",
        f"events {events_seen}",
        "labels " + json.dumps(interner.labels, ensure_ascii=False, separators=(",", ":")),
    ]
    try:
        for key, value in estimator.state().items():
            lines.append(f"{key} {_encode(value)}")
    except (TypeError, IndexError):
        raise SnapshotError("snapshots require interned integer class ids") from None
    out.write("\n".join(lines) + "\n")


def load_snapshot(path: str | Path) -> LoadedSnapshot:
    """Read a snapshot back; raises SnapshotError on any problem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid UTF-8: {exc}") from None
    # Labels may hold any character but a newline, so split on "\n" alone.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()

    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != _MAGIC:
        raise SnapshotError("not an impurity-stream snapshot")
    if header[1] != str(_VERSION):
        raise SnapshotError(f"unsupported snapshot version {header[1]!r}")
    mode = header[2]
    kind = ESTIMATORS.get(mode)
    if kind is None:
        raise SnapshotError(f"unknown snapshot mode {mode!r}")

    fields = {}
    for number, line in enumerate(lines[1:], 2):
        key, _, raw = line.partition(" ")
        if key in fields:
            raise SnapshotError(f"line {number}: repeated field {key!r}")
        try:
            fields[key] = _decode(raw)
        except (ValueError, RecursionError):
            raise SnapshotError(
                f"line {number}: {key!r} holds no int, hex float or JSON array"
            ) from None
    events = fields.pop("events", None)
    if type(events) is not int or events < 0:
        raise SnapshotError("bad snapshot: events must be an int >= 0")
    labels = fields.pop("labels", None)
    if type(labels) is not list or not set(map(type, labels)) <= {str}:
        raise SnapshotError("bad snapshot: labels must be a JSON array of strings")
    interner = Interner(labels)
    if len(interner) != len(labels):
        raise SnapshotError("bad snapshot: a label is listed twice")
    try:
        estimator = kind.from_state(fields, events, len(labels))
    except ValueError as exc:
        raise SnapshotError(f"bad {mode} snapshot: {exc}") from None
    return LoadedSnapshot(mode, estimator, interner, events)


def _encode(value: object) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        # int.__repr__ raises TypeError on anything but an int.
        return "[" + ",".join(map(int.__repr__, value)) + "]"
    return int.__repr__(value)


def _decode(raw: str) -> object:
    if raw.startswith("["):
        return json.loads(raw)
    try:
        return int(raw)
    except ValueError:
        return float.fromhex(raw)
