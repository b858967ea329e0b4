"""Versioned text snapshots of a run's state.

A snapshot holds what a run needs to resume with a trace byte-identical to
an uninterrupted one. Version 5 stores nothing that can be derived:

    impurity-stream-snapshot 5 MODE
    events N          events the run has consumed
    labels [...]      the label table, a JSON array in id order
    FIELD VALUE       one line per field of the estimator's state()

An int is written in decimal and a float as a hex literal, so it
round-trips bit-exactly. A list of ints, which state() gives as an
unsigned ``array``, is written as uW:HEX, the hex of its items as unsigned
little-endian ints of W bits, where W is 8, 16, 32 or 64, the fewest that
hold the largest item: ``window u16:0d36…``. The fields per mode:

    window  capacity, refresh_period, events_since_refresh and window
            (the ids in the window, oldest first, as uW:HEX)
    fading  alpha, d (n²·G), u (n·H), counts (one per label, in id order,
            as uW:HEX)
    exact   counts (one per label, in id order, as uW:HEX)

The window's counts and its exact power sums follow from its ids; the
fading n, n·log2(n) and each c·log2(c) follow from its counts. A uW:HEX
field loads as an unsigned ``array``. Each estimator's from_state() rejects
a state that no run reaches; that, any malformed line, and a label that
UTF-8 cannot encode (a lone surrogate, which only a JSON escape can give)
end in SnapshotError, at a load and at a save.

save_snapshot and --save-state write via replacing(): temp file, then rename.
A save writes the labels and each uW field a slice at a time, from the
arrays that state() copies; a load splits the file's text one line at a
time and drops it before it builds the state. Either holds about one copy
of a state at a time.

``json`` is imported in write_snapshot and _read_fields, as ``array`` is
in ``core.unsigned_array``, so a run that neither saves nor loads a state
imports neither.
"""

from __future__ import annotations

import contextlib
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, NamedTuple, TextIO, Tuple, Union

from .core import ExactEstimator, Interner, unsigned_array
from .fading import FadingEstimator
from .window import SlidingWindowEstimator

if TYPE_CHECKING:
    from array import array

__all__ = ["ESTIMATORS", "SnapshotError", "LoadedSnapshot", "replacing", "save_snapshot", "write_snapshot", "load_snapshot"]

_MAGIC = "impurity-stream-snapshot"
_VERSION = 5
_SWAP = sys.byteorder == "big"
# How many labels, and how many items of a uW field, write_snapshot encodes
# into one string before it writes it.
_LABEL_SLICE = 1024
_HEX_SLICE = 4096
# The estimator of each run mode, by the mode's name.
ESTIMATORS = {
    "window": SlidingWindowEstimator,
    "fading": FadingEstimator,
    "exact": ExactEstimator,
}

Estimator = Union[SlidingWindowEstimator, FadingEstimator, ExactEstimator]


class SnapshotError(ValueError):
    """A snapshot file is corrupt, has an unknown version, or a wrong mode,
    or a snapshot's target is not a regular file."""


class LoadedSnapshot(NamedTuple):
    mode: str
    estimator: Estimator
    interner: Interner
    events_seen: int


def save_snapshot(
    path: str | os.PathLike[str],
    mode: str,
    estimator: Estimator,
    interner: Interner,
    events_seen: int,
) -> None:
    """Write the full run state to ``path``, replacing it only on success."""
    with replacing(path) as out:
        write_snapshot(out, mode, estimator, interner, events_seen)


@contextlib.contextmanager
def replacing(path: str | os.PathLike[str]) -> Iterator[TextIO]:
    """A new file ``<path>.tmp-<pid>`` that replaces ``path`` when the block
    succeeds and is removed when it fails.

    A symlink ``path`` is followed: the temp file is made beside the file it
    names, which is replaced, and the link stays. A ``path`` that exists and
    is not a regular file, such as a FIFO, a device or a directory, raises
    SnapshotError before anything is created. An OSError from making the
    temp file, such as in a missing or unwritable directory, names ``path``;
    a temp file left by an earlier process of this pid is named itself.
    """
    given = os.fspath(path)
    target = os.path.realpath(given) if os.path.islink(given) else given
    if os.path.exists(target) and not os.path.isfile(target):
        raise SnapshotError(f"{given} is not a regular file")
    temp = f"{target}.tmp-{os.getpid()}"
    try:
        out = open(temp, "x", encoding="utf-8", newline="\n")
    except FileExistsError:
        raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, given) from None
    try:
        yield out
        out.close()
        os.replace(temp, target)
    except BaseException:
        out.close()
        os.remove(temp)
        raise


def write_snapshot(
    out: TextIO, mode: str, estimator: Estimator, interner: Interner, events_seen: int
) -> None:
    """Write the full run state to the text stream ``out``."""
    kind = ESTIMATORS.get(mode)
    if kind is None:
        raise SnapshotError(f"unknown mode {mode!r}")
    if not isinstance(estimator, kind):
        raise SnapshotError(f"mode {mode!r} requires a {kind.__name__}")
    # Any other label would be written as another JSON value, a file that
    # load_snapshot refuses, or fail in mid-file.
    if not all(issubclass(label_type, str) for label_type in set(map(type, interner))):
        raise SnapshotError("snapshots require str labels")
    try:
        fields = estimator.state()
    except (TypeError, IndexError, OverflowError):
        raise SnapshotError("snapshots require interned integer class ids") from None
    from json.encoder import encode_basestring

    # The labels and each uW field are written a slice at a time, not copied
    # into one string first. The labels make the JSON array that
    # json.dumps(labels, ensure_ascii=False, separators=(",", ":")) gives.
    out.write(f"{_MAGIC} {_VERSION} {mode}\nevents {events_seen}\nlabels [")
    labels = iter(interner)
    for start in range(0, len(interner), _LABEL_SLICE):
        if start:
            out.write(",")
        text = ",".join(map(encode_basestring, islice(labels, _LABEL_SLICE)))
        # Encoded here, so that a lone surrogate, which no UTF-8 file can
        # hold, raises SnapshotError whatever ``out`` is.
        try:
            text.encode()
        except UnicodeEncodeError:
            raise SnapshotError("snapshots require labels that UTF-8 can encode") from None
        out.write(text)
    out.write("]")
    for key, value in fields.items():
        out.write(f"\n{key} ")
        out.writelines(_encode(value))
    out.write("\n")


def load_snapshot(path: str | os.PathLike[str]) -> LoadedSnapshot:
    """Read a snapshot back; raises SnapshotError on any problem."""
    mode, fields = _read_fields(path)
    events = fields.pop("events", None)
    if type(events) is not int or events < 0:
        raise SnapshotError("bad snapshot: events must be an int >= 0")
    labels = fields.pop("labels", None)
    if type(labels) is not list or not set(map(type, labels)) <= {str}:
        raise SnapshotError("bad snapshot: labels must be a JSON array of strings")
    interner = Interner(labels)
    if len(interner) != len(labels):
        raise SnapshotError("bad snapshot: a label is listed twice")
    # The interner holds the labels now; their JSON list goes first.
    del labels
    try:
        estimator = ESTIMATORS[mode].from_state(fields, events, interner.ids)
    except ValueError as exc:
        raise SnapshotError(f"bad {mode} snapshot: {exc}") from None
    return LoadedSnapshot(mode, estimator, interner, events)


def _read_fields(path: str | os.PathLike[str]) -> Tuple[str, Dict[str, object]]:
    """The mode and the decoded fields of the snapshot at ``path``.

    The file's text and its lines are gone when this returns, and only one
    line at a time is split from the text, so a load holds about one copy
    of a state at a time.
    """
    import json

    try:
        with open(path, encoding="utf-8") as source:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid UTF-8: {exc}") from None
    lines = _lines(text)
    del text

    header = next(lines, "").split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise SnapshotError("not an impurity-stream snapshot")
    if header[1] != str(_VERSION):
        raise SnapshotError(f"unsupported snapshot version {header[1]!r}")
    mode = header[2]
    if mode not in ESTIMATORS:
        raise SnapshotError(f"unknown snapshot mode {mode!r}")

    fields: Dict[str, object] = {}
    for number, line in enumerate(lines, 2):
        key, _, raw = line.partition(" ")
        if key in fields:
            raise SnapshotError(f"line {number}: repeated field {key!r}")
        try:
            fields[key] = json.loads(raw) if key == "labels" else _decode(raw)
        except SnapshotError as exc:
            raise SnapshotError(f"line {number}: {key!r} {exc}") from None
        except (ValueError, RecursionError):
            kinds = "JSON array" if key == "labels" else "int, hex float or uW:HEX list"
            raise SnapshotError(f"line {number}: {key!r} holds no {kinds}") from None
        # A UTF-8 file holds no surrogate, so only a \uD800-\uDFFF escape
        # can give a label one; a lone one would fail the next save.
        if key == "labels" and ("\\ud" in raw or "\\uD" in raw):
            _check_utf8(fields[key])
    return mode, fields


def _check_utf8(labels: object) -> None:
    """Raise SnapshotError if a label of the list ``labels`` holds a lone
    surrogate, which UTF-8 cannot encode. An escaped pair such as
    ``\\ud83d\\ude00`` decodes to one character and passes. A list that
    holds anything but strs is left to load_snapshot's type check."""
    if type(labels) is list:
        try:
            for _ in map(str.encode, labels):
                pass
        except UnicodeEncodeError as exc:
            raise SnapshotError(f"bad snapshot: label {exc.object!r} holds a lone surrogate") from None
        except TypeError:
            pass


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, one at a time. Labels may hold any character
    but a newline, so lines end at "\\n" alone, and a final "\\n" starts no
    further line."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def _encode(value: object) -> Iterator[str]:
    """A field's value as strings to write one after another: a float as its
    hex literal, an int in decimal, and an unsigned ``array`` as its "uW:"
    tag, W from its item size, then the hex of its items a slice at a time,
    each item little-endian."""
    if isinstance(value, float):
        yield value.hex()
    elif isinstance(value, int):
        yield int.__repr__(value)
    else:
        yield f"u{8 * value.itemsize}:"
        for start in range(0, len(value), _HEX_SLICE):
            chunk = value[start : start + _HEX_SLICE]
            if _SWAP:
                chunk.byteswap()
            yield memoryview(chunk).hex()


def _decode(raw: str) -> object:
    tag, colon, digits = raw.partition(":")
    if colon:
        return _decode_ints(tag, digits)
    try:
        return int(raw)
    except ValueError:
        return float.fromhex(raw)


def _decode_ints(tag: str, digits: str) -> array:
    """The unsigned array that a uW:HEX field holds. SnapshotError, whose
    message completes "line N: 'FIELD' …", unless the width is known and
    the digits are hex digits alone that make whole items. The sizes of
    "I" and "L" differ between platforms, so a file names the width, not
    the typecode."""
    if tag not in ("u8", "u16", "u32", "u64"):
        raise SnapshotError(f"holds an unknown width {tag!r}")
    items = unsigned_array((1 << int(tag[1:])) - 1)
    if len(digits) % (2 * items.itemsize):
        raise SnapshotError(f"holds {len(digits)} hex digits, no whole number of {tag} items")
    try:
        data = bytes.fromhex(digits)
    except ValueError:
        raise SnapshotError("holds a character that is no hex digit") from None
    # bytes.fromhex skips whitespace between bytes.
    if 2 * len(data) != len(digits):
        raise SnapshotError("holds whitespace among its hex digits")
    items.frombytes(data)
    if _SWAP:
        items.byteswap()
    return items
