"""Seeded random streams through run_stream against a line-by-line reference.

run_stream reads blocks of lines when the estimator takes them and it
writes a row per 16 or more events. Whatever the cadence, resume point,
input object or bad line, its rows, errors, estimator state and summary
must be those of the plain per-line loop below. It must not pull a line
before writing every row due from the lines before it, nor pull again once
the input has ended.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from conftest import bits
from impurity_stream import ExactEstimator, FadingEstimator, Interner, SlidingWindowEstimator
from impurity_stream.cli import InputError, RunConfig, run_stream

EMIT_EVERY = [1, 2, 7, 15, 16, 17, 255, 256, 257, 1000]
BLOCK = 256

ESTIMATORS = [
    lambda: SlidingWindowEstimator(7, refresh_period=3),
    lambda: SlidingWindowEstimator(1000, refresh_period=1000),
    lambda: SlidingWindowEstimator(50),
    lambda: FadingEstimator(0.99),
    ExactEstimator,
]


def reference(cfg, lines, estimator, interner, start_index):
    """run_stream as one loop over single lines: (rows, error text or None, summary)."""
    rows = []
    events = start_index

    def emit():
        gini_value, entropy_value = estimator.metrics()
        rows.append(f"{events - 1}\t{gini_value:.9f}\t{entropy_value:.9f}\n")

    for number, raw in enumerate(lines, 1):
        if cfg.input_format == "csv":
            fields = raw.rstrip("\r\n").split(",")
            if cfg.csv_column >= len(fields):
                return rows, (
                    f"line {number}: expected at least {cfg.csv_column + 1} "
                    f"comma-separated columns, got {len(fields)}"
                ), None
            label = fields[cfg.csv_column].strip()
        else:
            label = raw.strip()
        if not label:
            return rows, f"line {number}: empty label", None
        estimator.observe(interner.intern(label))
        events += 1
        if events % cfg.emit_every == 0:
            emit()
    if events > start_index and events % cfg.emit_every:
        emit()
    return rows, None, (events, len(interner), estimator.metrics())


class Guarded:
    """Yields ``lines`` like a pipe that checks its reader: when line k is
    pulled, ``out`` must hold ``due[k]`` characters, every row due from the
    lines before it and no more; and nothing may be pulled after the end,
    which on a terminal would wait for a second end of input."""

    def __init__(self, lines, out, due):
        self.lines, self.out, self.due = lines, out, due
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        k = self.pulled
        assert k <= len(self.lines), "pulled again after the end of input"
        self.pulled += 1
        if k == len(self.lines):
            raise StopIteration
        assert self.out.tell() == self.due[k], f"line {k + 1} pulled before its rows were written"
        return self.lines[k]


def bad_positions(start_index, emit_every, length):
    """Line offsets of this run at and around the ends of its blocks, which
    include its emit points."""
    events, offsets = start_index, set()
    while events < start_index + length:
        events += min(BLOCK, emit_every - events % emit_every)
        offsets.update(events - start_index + d for d in (-1, 0, 1))
    return sorted(offset for offset in offsets if 0 <= offset < length)


def make_lines(rng, input_format, labels):
    pad = lambda: rng.choice(["", " ", "\t"])
    if input_format == "csv":
        return [
            f"{i},{pad()}{label}{pad()},x" + rng.choice(["\n", "\r\n"]) for i, label in enumerate(labels)
        ]
    return [f"{pad()}{label}{pad()}\n" for label in labels]


def state_of(estimator):
    state = estimator.state()
    if isinstance(estimator, SlidingWindowEstimator):
        state.update(counts=estimator.counts, s2=estimator.s2, t=estimator.t)
    return state, [bits(v) for v in estimator.metrics()]


CASES = [
    (emit_every, input_format, source, bad)
    for emit_every in EMIT_EVERY
    for input_format in ("lines", "csv")
    for source in ("list", "file", "generator", "pipe")
    for bad in (None, "empty", "short")
    if not (bad == "short" and input_format == "lines")
]


@pytest.mark.parametrize("emit_every,input_format,source,bad", CASES)
def test_run_stream_matches_line_by_line(tmp_path, emit_every, input_format, source, bad):
    rng = random.Random(f"{emit_every}-{input_format}-{source}-{bad}")
    make_estimator = ESTIMATORS[rng.randrange(len(ESTIMATORS))]
    start_index = rng.randrange(1, 3 * emit_every + 1) if emit_every > 1 else rng.randrange(4)
    while emit_every > 1 and start_index % emit_every == 0:
        start_index += 1
    length = rng.randrange(2 * emit_every, 3 * emit_every + BLOCK + 50)
    weights = [1.0 / (r + 1) for r in range(40)]
    labels = [f"c{c}" for c in rng.choices(range(40), weights, k=start_index + length)]
    lines = make_lines(rng, input_format, labels[start_index:])
    if bad is not None:
        at = rng.choice(bad_positions(start_index, emit_every, length))
        lines[at] = {"empty": "1, ,x\n" if input_format == "csv" else "  \n", "short": "1\n"}[bad]

    cfg = RunConfig(mode="window", emit_every=emit_every, input_format=input_format, csv_column=1)

    def resumed():
        estimator, interner = make_estimator(), Interner()
        for label in labels[:start_index]:
            estimator.observe(interner.intern(label))
        return estimator, interner

    if source == "file":
        path = tmp_path / "stream.txt"
        path.write_text("".join(lines), encoding="utf-8", newline="")
        with path.open(encoding="utf-8") as f:
            lines = f.readlines()
    ref_estimator, ref_interner = resumed()
    rows, error, summary = reference(cfg, lines, ref_estimator, ref_interner, start_index)

    # due[k]: characters of the rows due from the lines before line k.
    due, written, emitted = [], 0, iter(rows)
    next_row = next(emitted, None)
    for k in range(len(lines)):
        while next_row is not None and int(next_row.split("\t")[0]) < start_index + k:
            written += len(next_row)
            next_row = next(emitted, None)
        due.append(written)

    estimator, interner = resumed()
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        if source == "file":
            given = stack.enter_context(path.open(encoding="utf-8"))
        else:
            given = {
                "list": lines,
                "generator": (raw for raw in lines),
                "pipe": Guarded(lines, out, due),
            }[source]
        if error is None:
            result = run_stream(cfg, given, out, estimator, interner, start_index)
            assert (result.events, result.classes) == summary[:2]
            assert [bits(result.gini), bits(result.entropy)] == [bits(v) for v in summary[2]]
        else:
            with pytest.raises(InputError) as caught:
                run_stream(cfg, given, out, estimator, interner, start_index)
            assert str(caught.value) == error

    assert out.getvalue() == "".join(rows)
    assert state_of(estimator) == state_of(ref_estimator)
    assert interner.labels == ref_interner.labels
