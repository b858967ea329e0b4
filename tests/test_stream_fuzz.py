"""Seeded random streams through run_stream against a line-by-line reference.

run_stream reads a regular file in chunks, and other input in blocks of
lines when it writes a row per 16 or more events. Whatever the cadence,
resume point, input object, chunk size or bad line, its rows, errors,
estimator state and summary must be those of the plain per-line loop below.
From other input it must not pull a line before writing every row due from
the lines before it, nor pull again once the input has ended.
"""

from __future__ import annotations

import contextlib
import io
import random

import pytest

from conftest import bits
from impurity_stream import ExactEstimator, FadingEstimator, Interner, SlidingWindowEstimator
from impurity_stream import cli
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


# (line ending choices, label format, input format): each case's stream.
EDGE_CASES = {
    "crlf": (["\r\n"], "c{}", "lines"),
    "lone-cr": (["\r", "\n", "\r\n"], "c{}", "lines"),
    "no-final-newline": (["\n"], "c{}", "lines"),
    "utf8": (["\n", "\r\n"], "{}\u00e9\u65e5\U0001f600", "lines"),
    "csv": (["\n", "\r\n"], "{},c{},x", "csv"),
    "bad-at-edge": (["\n"], "c{}", "lines"),
    "resumed": (["\n", "\r\n"], "c{}", "lines"),
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_chunked_file_matches_line_by_line(tmp_path, monkeypatch, case, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    endings, label_format, input_format = EDGE_CASES[case]
    rng = random.Random(f"{case}-{chunk}")
    emit_every = rng.choice([1, 3, 16, 1000])
    start_index = rng.randrange(1, 3 * emit_every + 1) if case == "resumed" else 0
    classes = [rng.randrange(30) for _ in range(start_index + 600)]
    labels = [f"c{c}" for c in classes]
    lines = [label_format.format(c, c) + rng.choice(endings) for c in classes[start_index:]]
    if case == "crlf":
        # The \r of line 1361 is byte 8191: it ends the first 8 KiB that the
        # text layer decodes, and its \n starts the next.
        lines = ["w" * 25 + "\r\n"] + [f"c{c:03d}\r\n" for c in classes[:1400]]
    if case == "no-final-newline":
        lines[-1] = lines[-1].rstrip("\r\n")
    if case == "bad-at-edge":
        # Blank out, keeping its length, the line that holds a chunk's first character.
        edge = chunk * (300 // chunk)
        offset = 0
        for at, line in enumerate(lines):
            if offset <= edge < offset + len(line):
                lines[at] = " " * (len(line) - 1) + "\n"
                break
            offset += len(line)
    path = tmp_path / "stream.txt"
    path.write_bytes("".join(lines).encode("utf-8"))
    cfg = RunConfig(mode="window", emit_every=emit_every, input_format=input_format, csv_column=1)
    make_estimator = ESTIMATORS[rng.randrange(len(ESTIMATORS))]

    def resumed():
        estimator, interner = make_estimator(), Interner()
        for label in labels[:start_index]:
            estimator.observe(interner.intern(label))
        return estimator, interner

    ref_estimator, ref_interner = resumed()
    with path.open(encoding="utf-8") as f:
        rows, error, summary = reference(cfg, f.readlines(), ref_estimator, ref_interner, start_index)
    assert (error is not None) == (case == "bad-at-edge")

    estimator, interner = resumed()
    out = io.StringIO()
    with path.open(encoding="utf-8") as f:
        if error is None:
            result = run_stream(cfg, f, out, estimator, interner, start_index)
            assert (result.events, result.classes) == summary[:2]
            assert [bits(result.gini), bits(result.entropy)] == [bits(v) for v in summary[2]]
        else:
            with pytest.raises(InputError) as caught:
                run_stream(cfg, f, out, estimator, interner, start_index)
            assert str(caught.value) == error
    assert out.getvalue() == "".join(rows)
    assert state_of(estimator) == state_of(ref_estimator)
    assert interner.labels == ref_interner.labels


@pytest.mark.parametrize("chunk", [1, 3, 64, 2048])
@pytest.mark.parametrize("newline", ["", "\n", "\r", "\r\n"])
def test_untranslated_newlines_give_the_files_own_lines(tmp_path, monkeypatch, newline, chunk):
    # A file opened without newline translation is split where iterating
    # over it splits it, also when its first "\r" comes after many lines.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    rng = random.Random(f"{newline!r}-{chunk}")
    path = tmp_path / "stream.txt"
    head = [f"c{rng.randrange(20)}\n" for _ in range(150)]
    tail = [f"c{rng.randrange(20)}" + rng.choice(["\n", "\r\n", "\r"]) for _ in range(400)]
    tail.append("c0\n")  # with newline="\r", a last "\r\n" would leave an empty line
    path.write_bytes("".join(head + tail).encode("utf-8"))
    cfg = RunConfig(mode="window", emit_every=rng.choice([1, 3, 16, 1000]))
    for make_estimator in ESTIMATORS:
        ref_estimator, ref_interner = make_estimator(), Interner()
        with path.open(encoding="utf-8", newline=newline) as f:
            rows, error, summary = reference(cfg, f.readlines(), ref_estimator, ref_interner, 0)
        assert error is None
        estimator, interner = make_estimator(), Interner()
        out = io.StringIO()
        with path.open(encoding="utf-8", newline=newline) as f:
            result = run_stream(cfg, f, out, estimator, interner)
        assert out.getvalue() == "".join(rows)
        assert (result.events, result.classes) == summary[:2]
        assert state_of(estimator) == state_of(ref_estimator)
        assert interner.labels == ref_interner.labels


def test_file_read_past_a_header_gives_the_rest(tmp_path):
    # next() turns a text file's tell() off; run_stream reads the rest.
    path = tmp_path / "stream.csv"
    path.write_text("id,label\n" + "".join(f"{k},c{k % 7}\n" for k in range(900)), encoding="utf-8")
    cfg = RunConfig(mode="exact", emit_every=5, input_format="csv", csv_column=1)
    with path.open(encoding="utf-8") as f:
        rows, _, summary = reference(cfg, f.readlines()[1:], ExactEstimator(), Interner(), 0)
    out = io.StringIO()
    with path.open(encoding="utf-8") as f:
        next(f)
        result = run_stream(cfg, f, out, ExactEstimator(), Interner())
    assert out.getvalue() == "".join(rows)
    assert (result.events, result.classes) == summary[:2]


def out_of_range_fading():
    """A fading estimator whose raw values, as a state file may hold them,
    lie outside the range that metrics() clamps to for some events."""
    estimator = FadingEstimator(0.9)
    estimator.observe(0)
    estimator.g, estimator.h = 40.0, -100.0
    return estimator


@pytest.mark.parametrize("every", [1, 2, 5, 16])
@pytest.mark.parametrize("seen", [0, 3])
@pytest.mark.parametrize("make_estimator", ESTIMATORS + [out_of_range_fading])
def test_observe_block_matches_observe_and_metrics(make_estimator, seen, every):
    rng = random.Random(f"{every}-{seen}")
    ids = [rng.randrange(6) for _ in range(40)]
    reference_estimator = make_estimator()
    expected = []
    for count, class_id in enumerate(ids, seen + 1):
        reference_estimator.observe(class_id)
        if count % every == 0:
            expected.append((count - 1, *map(bits, reference_estimator.metrics())))
    for split in range(len(ids) + 1):
        estimator = make_estimator()
        rows = estimator.observe_block(ids[:split], seen, every)
        rows += estimator.observe_block(ids[split:], seen + split, every)
        assert [(index, bits(gini), bits(entropy)) for index, gini, entropy in rows] == expected
        assert state_of(estimator) == state_of(reference_estimator)


class OnlyObserve:
    """An estimator with observe() and metrics() alone."""

    def __init__(self, inner):
        self.observe, self.metrics = inner.observe, inner.metrics


class OnlyIntern:
    """An interner with intern() and len() alone."""

    def __init__(self, inner):
        self.intern, self.inner = inner.intern, inner

    def __len__(self):
        return len(self.inner)


@pytest.mark.parametrize("emit_every", [1, 1000])
@pytest.mark.parametrize("duck", ["estimator", "interner", "both"])
def test_duck_typed_estimator_and_interner_read_a_file(tmp_path, duck, emit_every):
    rng = random.Random(emit_every)
    path = tmp_path / "stream.txt"
    path.write_text("".join(f"c{rng.randrange(40)}\n" for _ in range(3000)), encoding="utf-8")
    cfg = RunConfig(mode="fading", emit_every=emit_every)
    ref_estimator, ref_interner = FadingEstimator(0.99), Interner()
    with path.open(encoding="utf-8") as f:
        rows, _, summary = reference(cfg, f.readlines(), ref_estimator, ref_interner, 0)
    estimator, interner = FadingEstimator(0.99), Interner()
    out = io.StringIO()
    with path.open(encoding="utf-8") as f:
        given_estimator = estimator if duck == "interner" else OnlyObserve(estimator)
        given_interner = interner if duck == "estimator" else OnlyIntern(interner)
        result = run_stream(cfg, f, out, given_estimator, given_interner)
    assert out.getvalue() == "".join(rows)
    assert (result.events, result.classes) == summary[:2]
    assert state_of(estimator) == state_of(ref_estimator)
    assert interner.labels == ref_interner.labels
