"""Seeded random streams through run_stream against a line-by-line reference.

run_stream reads a binary input (anything with ``read1``) through one byte
reader, in reads of ``_CHUNK`` bytes, and takes any iterable of text lines
line by line. Whatever the cadence, resume point, input object, read size
or bad line or byte, its rows, errors, estimator state and summary must be
those of the plain per-line loop below over the lines that a text file
gives. From an iterable it must not pull a line, and from a binary input
it must not read, before writing every row due from the lines before; and
it must not pull or read again once the input has ended.
"""

from __future__ import annotations

import codecs
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
        # The label, in column 1, is the middle field or the last, where
        # the line end follows it.
        return [
            f"{i},{pad()}{label}{pad()}" + rng.choice([",x", ""]) + rng.choice(["\n", "\r\n", "\r"])
            for i, label in enumerate(labels)
        ]
    return [f"{pad()}{label}{pad()}\n" for label in labels]


# The bad lines of each kind: an empty label, in the middle field or the
# last, and a row too short to hold column 1.
BAD_LINES = {
    "lines": {"empty": ["  \n"]},
    "csv": {"empty": ["1, ,x\n", "1, \r\n", "1,\r", "1,\n"], "short": ["1\n", "1\r\n", "1\r"]},
}


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
        lines[at] = rng.choice(BAD_LINES[input_format][bad])

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
            given = stack.enter_context(path.open("rb"))
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
    "split-character": (["\n"], "c{}\U0001f600", "lines"),
    "split-crlf": (["\r\n"], "c{}", "lines"),
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 8192])
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_chunked_file_matches_line_by_line(tmp_path, monkeypatch, case, chunk):
    # run_stream reads a binary file chunk bytes at a time; its rows must be
    # those of the per-line loop over the lines of the same file opened as text.
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    endings, label_format, input_format = EDGE_CASES[case]
    rng = random.Random(f"{case}-{chunk}")
    emit_every = rng.choice([1, 3, 16, 1000])
    start_index = rng.randrange(1, 3 * emit_every + 1) if case == "resumed" else 0
    classes = [rng.randrange(30) for _ in range(start_index + 600)]
    labels = [f"c{c}" for c in classes]
    lines = [label_format.format(c, c) + rng.choice(endings) for c in classes[start_index:]]
    if case == "crlf":
        # The \r of line 1361 is byte 8191: it ends the first 8 KiB read,
        # and its \n starts the next.
        lines = ["w" * 25 + "\r\n"] + [f"c{c:03d}\r\n" for c in classes[:1400]]
    if case in ("split-character", "split-crlf"):
        # A first line that puts the first byte of line 2's 4-byte character,
        # or its \r, last in a read, and the rest of it in the next read.
        before = len(lines[0].encode("utf-8")) - (5 if case == "split-character" else 2)
        lines.insert(0, "w" * ((-2 - before) % chunk or chunk) + "\n")
        assert (len(lines[0]) + before) % chunk == chunk - 1
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

    for source in (path.open("rb"), io.BytesIO(path.read_bytes())):
        estimator, interner = resumed()
        out = io.StringIO()
        with source as f:
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


class GuardedBytes:
    """A binary input like a pipe that checks its reader: ``read1`` hands
    out ``pieces`` in turn and then ``b""``. Before each piece, ``out`` must
    hold ``due[p]`` characters, every row at an emit point due from the
    lines that the pieces before it complete; and nothing may be read after
    the ``b""``."""

    def __init__(self, pieces, out, due):
        self.pieces, self.out, self.due = pieces, out, due
        self.read = 0

    def read1(self, size=-1):
        p = self.read
        assert p <= len(self.pieces), "read again after the end of input"
        self.read += 1
        if p == len(self.pieces):
            return b""
        assert self.out.tell() == self.due[p], f"piece {p} read before the rows due were written"
        return self.pieces[p]


@pytest.mark.parametrize("emit_every", [1, 3, 16, 255, 1000])
@pytest.mark.parametrize("bad", [None, "empty", "utf8"])
def test_byte_reader_writes_rows_before_each_read(emit_every, bad):
    rng = random.Random(f"{emit_every}-{bad}")
    make_estimator = ESTIMATORS[rng.randrange(len(ESTIMATORS))]
    start_index = rng.randrange(0, 2 * emit_every)
    lines = [f" c{rng.randrange(40)}\u00e9 " + rng.choice(["\n", "\r\n", "\r"]) for _ in range(3 * emit_every + 400)]
    data = "".join(lines).encode("utf-8")
    bad_at = None
    if bad is not None:
        bad_at = rng.randrange(len(data) // 2, len(data))
        bad_at = data.index(b"\n", bad_at) + 1 if b"\n" in data[bad_at:] else len(data)
        data = data[:bad_at] + {"empty": b"  \n", "utf8": b"\xff\n"}[bad] + data[bad_at:]
    # Pieces of 1 to 40 bytes, so that a read may end inside a character or
    # between the \r and \n of a line end.
    pieces, at = [], 0
    while at < len(data):
        if bad == "utf8" and at <= bad_at:
            bad_piece = len(pieces)
        size = rng.randrange(1, 41)
        pieces.append(data[at : at + size])
        at += size
    cfg = RunConfig(mode="window", emit_every=emit_every)

    def resumed():
        estimator, interner = make_estimator(), Interner()
        for _ in range(start_index):
            estimator.observe(interner.intern("c0\u00e9"))
        return estimator, interner

    ref_estimator, ref_interner = resumed()
    text = data.decode("utf-8", "replace")
    ref_lines = io.StringIO(text, newline=None).readlines()
    if bad == "utf8":
        ref_lines = ref_lines[: ref_lines.index("\ufffd\n")]
    rows, error, summary = reference(cfg, ref_lines, ref_estimator, ref_interner, start_index)
    emitted = [row for row in rows if (int(row.split("\t")[0]) + 1) % emit_every == 0]

    # due[p]: characters of the rows at emit points due from the lines that
    # the pieces before piece p complete, as a text file decodes them.
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")("replace"), translate=True)
    due, completed, written, at_row = [], 0, 0, 0
    for piece in pieces:
        while at_row < len(emitted) and int(emitted[at_row].split("\t")[0]) < start_index + completed:
            written += len(emitted[at_row])
            at_row += 1
        due.append(written)
        completed += decoder.decode(piece).count("\n")

    estimator, interner = resumed()
    out = io.StringIO()
    source = GuardedBytes(pieces, out, due)
    if bad == "utf8":
        # The piece that holds the bad byte decodes to nothing: no line
        # that it would complete is read.
        with pytest.raises(UnicodeDecodeError):
            run_stream(cfg, source, out, estimator, interner, start_index)
        assert source.read == bad_piece + 1
        rows = "".join(emitted)[: due[bad_piece]]
    elif bad == "empty":
        with pytest.raises(InputError) as caught:
            run_stream(cfg, source, out, estimator, interner, start_index)
        assert str(caught.value) == error
    else:
        result = run_stream(cfg, source, out, estimator, interner, start_index)
        assert (result.events, result.classes) == summary[:2]
        assert source.read == len(pieces) + 1
    assert out.getvalue() == "".join(rows)


@pytest.mark.parametrize("tail", [b"\xff\n", b"\xc3"], ids=["bad-byte", "cut-character"])
def test_utf8_error_rows_match_reading_line_by_line(tmp_path, capsys, tail):
    # A bad byte past the first 8 KiB, or a character cut off by the end of
    # the input, after multi-byte labels: the rows and the error are those
    # of the same file read line by line as text.
    path = tmp_path / "stream.txt"
    path.write_bytes("".join(f"\u00e9{k % 1000}\n" for k in range(20000)).encode("utf-8") + tail)
    caught = []

    def until_error(lines):
        try:
            yield from lines
        except UnicodeDecodeError as exc:
            caught.append(exc)

    cfg = RunConfig(mode="fading", emit_every=1)
    with path.open(encoding="utf-8") as f:
        rows, _, _ = reference(cfg, until_error(f), FadingEstimator(0.99), Interner(), 0)
    assert len(caught) == 1 and 1000 < len(rows) <= 20000
    assert cli.main(["run", "--mode", "fading", "--alpha", "0.99", "--input", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    # Row by row: pytest's diff of two 20000-row strings takes minutes.
    written = captured.out.splitlines(keepends=True)
    assert len(written) == len(rows)
    assert next((k for k, (row, want) in enumerate(zip(written, rows)) if row != want), None) is None
    assert captured.err == f"impurity-stream: error: input is not valid UTF-8: {caught[0]}\n"


@pytest.mark.parametrize("chunk", [1, 3, 64, 2048])
@pytest.mark.parametrize("newline", ["", "\n", "\r", "\r\n"])
def test_untranslated_newlines_give_the_files_own_lines(tmp_path, monkeypatch, newline, chunk):
    # A text file opened without newline translation is split where
    # iterating over it splits it, also when its first "\r" comes after
    # many lines, whatever _CHUNK is.
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
    # A text file that next() has read from gives run_stream the rest.
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
    estimator.d, estimator.u = 40.0, -100.0
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
        assert [(index, bits(gini), bits(entropy)) for index, gini, entropy in zip(*[iter(rows)] * 3)] == expected
        assert len(rows) == 3 * len(expected)
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
    # A text file, as perfbench's traced pass gives it with its per-call
    # timers: the per-line loop needs observe, metrics and intern alone.
    # Every case runs each of the three estimators.
    rng = random.Random(emit_every)
    path = tmp_path / "stream.txt"
    path.write_text("".join(f"c{rng.randrange(40)}\n" for _ in range(3000)), encoding="utf-8")
    cfg = RunConfig(mode="fading", emit_every=emit_every)
    estimators = [lambda: FadingEstimator(0.99), lambda: SlidingWindowEstimator(50, refresh_period=7), ExactEstimator]
    for make_estimator in estimators:
        ref_estimator, ref_interner = make_estimator(), Interner()
        with path.open(encoding="utf-8") as f:
            rows, _, summary = reference(cfg, f.readlines(), ref_estimator, ref_interner, 0)
        estimator, interner = make_estimator(), Interner()
        out = io.StringIO()
        with path.open(encoding="utf-8") as f:
            given_estimator = estimator if duck == "interner" else OnlyObserve(estimator)
            given_interner = interner if duck == "estimator" else OnlyIntern(interner)
            result = run_stream(cfg, f, out, given_estimator, given_interner)
        assert out.getvalue() == "".join(rows)
        assert (result.events, result.classes) == summary[:2]
        assert state_of(estimator) == state_of(ref_estimator)
        assert interner.labels == ref_interner.labels
