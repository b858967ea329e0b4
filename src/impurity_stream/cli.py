"""Command-line front end: stream labeled events, emit metric traces.

Two subcommands:

    impurity-stream run    consume a label stream (stdin, file) through a
                           windowed, fading, or exact estimator and write a
                           TSV metric trace
    impurity-stream bench  time incremental updates against full per-event
                           recomputation on a synthetic stream

Trace rows are ``index<TAB>gini<TAB>entropy`` with 9 fixed decimal places;
selecting a single metric drops the other column. Diagnostics go to stderr,
controlled by IMPURITY_STREAM_LOG (quiet, info, debug). Exit codes: 0 on
success, 1 on a usage error, 2 on an input or state-file error.

``run`` formats and writes its first _HANDOFF rows itself. If it emits more
to a file descriptor, on a platform with ``os.fork``, it forks one writer
process, which formats and writes the rest while the run reads and observes
on: the same bytes, on a second core. The run waits for the writer before
it saves a state or returns.

A window ``run`` over a regular file that is long against its window, with
at most one row every 4 events, forks, before it reads, a second process
that observes the lines past the file's middle byte, and adopts that
process's end state once it has observed the lines before them (see
_Split). Its rows, errors and states are those of one process.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import io
import marshal
import os
import stat
import sys
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, List, NamedTuple, NoReturn, Optional, TextIO, Tuple, Union

from .core import Interner
from .fading import FadingEstimator
from .snapshot import ESTIMATORS, Estimator, LoadedSnapshot, SnapshotError, load_snapshot, replacing, write_snapshot
from .window import RefreshError, SlidingWindowEstimator

__all__ = ["main", "console_main", "run_stream", "RunConfig", "RunSummary"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2

MODES = tuple(ESTIMATORS)
METRICS = ("gini", "entropy", "both")
FORMATS = ("lines", "csv")

# The estimator flags of `run`: flag -> (its RunConfig field, the estimator
# that takes it, the constructor parameter and attribute it sets, whether a
# fresh run requires it). The exact estimator takes none.
_FLAGS = {
    "--window-size": ("window_size", SlidingWindowEstimator, "capacity", True),
    "--refresh-every": ("refresh_period", SlidingWindowEstimator, "refresh_period", False),
    "--alpha": ("alpha", FadingEstimator, "alpha", True),
}

# run_stream reads a binary input with read1(_CHUNK), which returns only
# what is ready, so every row due from the lines received is written before
# the next read waits. 8192 bytes is the chunk that a text file's own
# iteration reads with read1, so a UTF-8 error is met where reading line by
# line meets it, after the same rows. The estimator observes at most _BLOCK
# labels per call, and at most that many rows are held at once: on
# window-zipf, blocks of 2048 lines raised peak RSS by about 0.6 MiB and 256
# by about 0.1.
_CHUNK = 8192
_BLOCK = 256

# The rows a run writes in process before it forks a writer. A fork costs
# about 1.2 ms, so a run that writes fewer rows, and a set-up over empty
# input, never pays it.
_HANDOFF = 16384

# A window run over a regular file splits only if at least 3 * w +
# _SPLIT_MIN lines come before the split line. A split saves about the
# second half's lines, at about 280 ns a line on window-zipf, and costs the
# w lines that the second process reads again, the w labels of its window
# that the run observes again (about 170 ns each), a fork with its wait
# (about 1.3 ms) and the scan (about 1.2 ns a byte). Over window-zipf's 500k
# lines, a split run was about 40 ms slower at w = 200000, even at 100000
# and 25 ms faster at 60000, hence three windows; 16384 more lines pay for
# the fork and the scan about twice over.
_SPLIT_MIN = 16384
# A window run that emits rows more often than every _SPLIT_EVERY events does
# not split: its row writer keeps most of the second core busy, and a third
# process only competes with the two. Over window-zipf's 500k labels at
# w = 1000, written to a file, a split run took 3-7% more time at
# --emit-every 1 (4 of 10 alternating pairs won, twice), was even at 2 (5 of
# 10) and took 16% less at 4 (8 of 10).
_SPLIT_EVERY = 4
# The bytes of each os.pread with which a split run scans its input.
_SCAN = 1 << 16
# The bytes of rows the second process of a split run may send ahead of the
# run, in frames of about 24 bytes a row: Linux's default largest pipe.
_PIPE = 1 << 20

# The diagnostics each IMPURITY_STREAM_LOG value shows.
_LOG_LEVELS = {"quiet": (), "info": ("WARNING", "INFO"), "debug": ("WARNING", "INFO", "DEBUG")}


class UsageError(Exception):
    """Bad command line or inconsistent options (exit code 1)."""


class InputError(Exception):
    """Malformed stream input, an unusable state file or no stdout (exit code 2)."""


class RunConfig(NamedTuple):
    mode: str
    metric: str = "both"
    window_size: Optional[int] = None
    alpha: Optional[float] = None
    refresh_period: Optional[int] = None
    emit_every: int = 1
    input_format: str = "lines"
    csv_column: int = 0


class RunSummary(NamedTuple):
    events: int
    classes: int
    gini: float
    entropy: float


# The text of flat rows [index, gini, entropy, index, …], per --metric, made
# by one % on the row format repeated once per row. An unselected metric is
# never formatted: its fields are deleted from the list first.
_ROWS = {
    "gini": lambda rows: _without(rows, 2) % tuple(rows),
    "entropy": lambda rows: _without(rows, 1) % tuple(rows),
    "both": lambda rows: "%d\t%.9f\t%.9f\n" * (len(rows) // 3) % tuple(rows),
}


def _without(rows: List[float], field: int) -> str:
    """Delete the ``field``-th of every three values of the flat ``rows``
    and return the format of the (index, metric) rows left; a ``%``'s left
    operand is evaluated first, so ``tuple(rows)`` on its right sees them."""
    del rows[field::3]
    return "%d\t%.9f\n" * (len(rows) // 2)


def run_stream(
    cfg: RunConfig,
    source: Union[BinaryIO, Iterable[str]],
    out: TextIO,
    estimator: Estimator,
    interner: Interner,
    start_index: int = 0,
) -> RunSummary:
    """Feed every input line to the estimator, emitting trace rows.

    ``lines`` format takes the whole trimmed line as the label; ``csv``
    splits on commas (no quoting) and takes the configured column. An empty
    label or a short row raises InputError naming the line, counted from
    the first line of this run; rows emitted before it have already been
    written to ``out``.

    One row is written after every ``emit_every``-th event (counted from the
    very start of the stream, so resumed runs keep the original cadence) and
    a final row at stream end if the last event was not already emitted.
    Rows are formatted with ``_ROWS`` and go straight to ``out``, which does
    its own buffering. Exact-mode metrics are only computed at emit points.

    ``source`` is a binary file (anything with ``read1``), decoded as strict
    UTF-8 with universal newlines, or any iterable of text lines. A binary
    file is read in reads of at most ``_CHUNK`` bytes, and every row due
    from the lines a read completes is written before the next read; a bad byte
    raises UnicodeDecodeError after the rows that reading the file line by
    line writes. Its lines go in blocks of at most ``_BLOCK`` to the
    interner's ``intern_many`` and the estimator's ``observe_block``, which
    returns the block's rows as one flat list ``[index, gini, entropy, …]``.
    An iterable of lines is taken line by line, through the estimator's
    ``observe`` and ``metrics`` and the interner's ``intern`` alone. Rows,
    errors and the estimator's state are those that reading line by line
    gives. Everything runs in the calling process. The ``run`` command runs
    the same loop through ``_run``, and may fork for its rows or for the
    second half of a window run (see ``_RowWriter`` and ``_Split``).
    """
    write = out.write
    text = _ROWS[cfg.metric]

    def emit(rows: List[float]) -> None:
        write(text(rows))

    return _run(cfg, source, emit, estimator, interner, start_index)


def _run(
    cfg: RunConfig,
    source: Union[BinaryIO, Iterable[str]],
    emit: Callable[[List[float]], None],
    estimator: Estimator,
    interner: Interner,
    start_index: int,
    split: Optional["_Split"] = None,
) -> RunSummary:
    """run_stream, with each block's flat rows given to ``emit``; a binary
    ``source`` takes its lines from ``split`` past the split line, if one is
    given."""
    events = start_index
    if not hasattr(source, "read1"):
        emit_every = cfg.emit_every
        csv = cfg.input_format == "csv"
        column = cfg.csv_column
        observe = estimator.observe
        metrics = estimator.metrics
        intern = interner.intern
        for raw in source:
            # A line end adds no comma, and strip() takes it off the last field.
            if csv:
                fields = raw.split(",")
                label = fields[column].strip() if column < len(fields) else ""
            else:
                label = raw.strip()
            if not label:
                raise _bad_line(events - start_index + 1, raw, csv, column)
            observe(intern(label))
            events += 1
            if events % emit_every == 0:
                emit([events - 1, *metrics()])
    else:
        blocks = _byte_blocks(source)  # type: ignore[arg-type]
        if split is None:
            events = _observe_blocks(cfg, blocks, emit, estimator, interner, events, start_index)
        else:
            events = split.run(cfg, blocks, emit, estimator, interner, start_index)
    if events > start_index and events % cfg.emit_every:
        emit([events - 1, *estimator.metrics()])
    gini_value, entropy_value = estimator.metrics()
    return RunSummary(events=events, classes=len(interner), gini=gini_value, entropy=entropy_value)


def _observe_blocks(
    cfg: RunConfig,
    blocks: Iterable[List[str]],
    emit: Callable[[List[float]], None],
    estimator: Estimator,
    interner: Interner,
    events: int,
    start_index: int,
) -> int:
    """Observe the lines of ``blocks`` as the events after the first
    ``events``, giving each block's rows to ``emit``; returns the events
    seen. A line without a label raises InputError after the rows before it,
    numbered from event ``start_index``."""
    emit_every = cfg.emit_every
    csv = cfg.input_format == "csv"
    column = cfg.csv_column
    observe_block = estimator.observe_block
    intern_many = interner.intern_many
    for block in blocks:
        labels = _block_labels(block, csv, column)
        good = len(labels)
        if good:
            rows = observe_block(intern_many(labels), events, emit_every)
            if rows:
                emit(rows)
            events += good
        if good < len(block):
            raise _bad_line(events - start_index + 1, block[good], csv, column)
    return events


def _byte_blocks(source: BinaryIO) -> Iterator[List[str]]:
    """The lines of ``source``, decoded as ``open`` decodes a text file by
    default (strict UTF-8, universal newlines) and without their ``"\n"``,
    in blocks of at most _BLOCK. Each read is one ``read1(_CHUNK)``, and the
    lines it completes are yielded before the next read; nothing is read
    after the empty read that ends the input."""
    decode = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True).decode
    read1 = source.read1
    head: List[str] = []  # the pieces of a line that no read has ended yet
    while True:
        data = read1(_CHUNK)
        chunk = decode(data, not data)
        if "\n" in chunk:
            lines = chunk.split("\n")
            if head:
                head.append(lines[0])
                lines[0] = "".join(head)
            head = [lines.pop()]
            for first in range(0, len(lines), _BLOCK):
                yield lines[first : first + _BLOCK]
        elif chunk:
            head.append(chunk)
        if not data:
            break
    last = "".join(head)
    if last:
        yield [last]


def _first_lines(blocks: Iterator[List[str]], count: int, rest: List[List[str]]) -> Iterator[List[str]]:
    """The first ``count`` lines of ``blocks``, in its blocks. The lines after
    them in the block that ends them are appended to ``rest`` as one block,
    and no block after that one is drawn."""
    for block in blocks:
        if len(block) < count:
            count -= len(block)
            yield block
            continue
        yield block[:count]
        rest.append(block[count:])
        return


def _block_labels(block: List[str], csv: bool, column: int) -> List[str]:
    """The labels of ``block``'s lines, which hold no "\r" or "\n" (the
    decoder of _byte_blocks translates both), up to its first line without
    one."""
    if csv:
        # A short row has no label, like an empty one.
        rows = [raw.split(",") for raw in block]
        labels = [fields[column].strip() if column < len(fields) else "" for fields in rows]
    else:
        labels = list(map(str.strip, block))
    if not all(labels):
        del labels[labels.index("") :]
    return labels


def _bad_line(number: int, raw: str, csv: bool, column: int) -> InputError:
    """The error for line ``number`` of a run, ``raw``, which holds no label."""
    if csv:
        fields = raw.split(",")
        if column >= len(fields):
            return InputError(
                f"line {number}: expected at least {column + 1} "
                f"comma-separated columns, got {len(fields)}"
            )
    return InputError(f"line {number}: empty label")


def _say(level: str, message: str) -> None:
    """Write one ``impurity-stream: <level>: <message>`` line to the current
    stderr; a process with no stderr (``sys.stderr`` is None) drops it."""
    if sys.stderr is not None:
        sys.stderr.write(f"impurity-stream: {level}: {message}\n")


def _log(level: str, message: str) -> None:
    """Write one diagnostic line, if IMPURITY_STREAM_LOG shows its level; an
    unknown value shows what 'info' does."""
    setting = os.environ.get("IMPURITY_STREAM_LOG", "info").strip().lower()
    if level in _LOG_LEVELS.get(setting, _LOG_LEVELS["info"]):
        _say(level, message)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # print_usage(None) would write to stdout, into the trace.
        if sys.stderr is not None:
            self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="impurity-stream", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="{run,bench}")

    run_p = sub.add_parser("run", help="stream labels through an estimator, emit a TSV trace")
    run_p.add_argument("--mode", choices=MODES, required=True)
    run_p.add_argument("--metric", choices=METRICS, default="both")
    run_p.add_argument("--window-size", type=int, help="window capacity in events (window mode)")
    run_p.add_argument("--alpha", type=float, help="fading factor in (0, 1] (fading mode)")
    run_p.add_argument(
        "--refresh-every",
        type=int,
        help="rebuild the window's exact sums from its counts every N events; 0 disables (window mode)",
    )
    run_p.add_argument("--emit-every", type=int, default=1, help="emit one trace row per N events")
    run_p.add_argument("--format", choices=FORMATS, default="lines", dest="input_format")
    run_p.add_argument("--column", type=int, help="0-based label column (csv format)")
    run_p.add_argument("--input", default="-", help="input path, or - for stdin")
    run_p.add_argument("--output", default="-", help="output path, or - for stdout")
    run_p.add_argument("--save-state", help="write estimator state here at stream end")
    run_p.add_argument("--load-state", help="resume from a previously saved state file")

    # A bench flag not given is left out, so run_bench's default applies; each
    # flag's dest is the name of the run_bench parameter it sets.
    bench_p = sub.add_parser(
        "bench", help="time incremental updates vs full recomputation", argument_default=argparse.SUPPRESS
    )
    bench_p.add_argument("--classes", type=int, required=True)
    bench_p.add_argument("--events", type=int, required=True)
    bench_p.add_argument("--modes", nargs="+", help="any of window, fading and recompute (default: all three)")
    bench_p.add_argument("--window-size", type=int)
    bench_p.add_argument("--alpha", type=float)
    bench_p.add_argument("--seed", type=int)
    bench_p.add_argument("--repeat", type=int)
    return parser


def _validate_run_args(args: argparse.Namespace) -> RunConfig:
    if args.emit_every < 1:
        raise UsageError("--emit-every must be >= 1")

    if args.input_format == "csv":
        column = args.column if args.column is not None else 0
        if column < 0:
            raise UsageError("--column must be >= 0")
    else:
        if args.column is not None:
            raise UsageError("--column only applies to --format csv")
        column = 0

    return RunConfig(
        mode=args.mode,
        metric=args.metric,
        window_size=args.window_size,
        alpha=args.alpha,
        refresh_period=args.refresh_every,
        emit_every=args.emit_every,
        input_format=args.input_format,
        csv_column=column,
    )


def _start(cfg: RunConfig, load_state: Optional[str]) -> LoadedSnapshot:
    """The estimator ``cfg`` describes, built new, or loaded from
    ``load_state`` and checked against the flags ``cfg`` gives."""
    kind = ESTIMATORS[cfg.mode]
    given = {}
    for flag, (field, taker, param, required) in _FLAGS.items():
        value = getattr(cfg, field)
        if value is None:
            if taker is kind and required and load_state is None:
                raise UsageError(f"{cfg.mode} mode requires {flag}")
        elif taker is not kind:
            raise UsageError(f"{flag} does not apply to {cfg.mode} mode")
        else:
            given[param] = (flag, value)

    if load_state is None:
        try:
            estimator = kind(**{param: value for param, (_, value) in given.items()})
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return LoadedSnapshot(cfg.mode, estimator, Interner(), 0)

    loaded = load_snapshot(load_state)
    if loaded.mode != cfg.mode:
        raise InputError(
            f"state file holds mode {loaded.mode!r}, which does not match --mode {cfg.mode}"
        )
    for param, (flag, value) in given.items():
        saved = getattr(loaded.estimator, param)
        if value != saved:
            raise UsageError(f"{flag} {value} conflicts with saved {param} {saved}")
    _log("DEBUG", f"resumed {loaded.mode} state from {load_state} at event {loaded.events_seen}")
    return loaded


def _check_targets(source: BinaryIO, output: str, save_state: Optional[str], load_state: Optional[str]) -> None:
    """Raise UsageError, before anything is opened for writing, if --output
    or --save-state names the regular file ``source`` reads, which opening
    --output would truncate and --save-state would replace, if --output
    names the --load-state file, which it would truncate, or if --output
    and --save-state name one path."""
    named = [] if output == "-" else [("--output", output)]
    if save_state is not None:
        named.append(("--save-state", save_state))
    read = os.fstat(source.fileno())
    for flag, path in named:
        if os.path.isfile(path) and os.path.samestat(read, os.stat(path)):
            raise UsageError(f"{flag} {path} is the run's input")
    if output != "-" and load_state is not None and os.path.isfile(output):
        if os.path.samestat(os.stat(load_state), os.stat(output)):
            raise UsageError(f"--output {output} is the --load-state file")
    if len(named) == 2 and os.path.realpath(save_state) == os.path.realpath(output):
        raise UsageError(f"--output and --save-state both name {output}")


def _stdout() -> TextIO:
    """sys.stdout, which is None in a process started with fd 1 closed."""
    if sys.stdout is None:
        raise InputError("stdout is closed")
    return sys.stdout


class _RowWriter:
    """The rows of a CLI run, written to ``out`` as ``_ROWS`` formats them.

    The first _HANDOFF rows are formatted and written in process. If ``out``
    has a file descriptor and the platform has ``os.fork``, the process then
    flushes ``out`` and stderr and forks one writer, and each later block of
    flat rows goes to it through a pipe as a marshal frame after its 4-byte
    little-endian length. The writer formats each frame with the same
    ``_ROWS`` function and writes it to the ``out`` it inherited. A failed
    fork leaves the rows in process.

    close() ends the pipe and waits for the writer; leaving the ``with``
    block does too, whether or not it raised. If the writer failed, which it
    reports in its own error line, close() raises SystemExit with its exit
    code, and InputError if a signal ended it.
    """

    def __init__(self, out: TextIO, metric: str) -> None:
        self.out = out
        self.text = _ROWS[metric]
        # The values left to write before the fork; 0 when there is none.
        self.left = 0
        if hasattr(os, "fork"):
            with contextlib.suppress(OSError):  # io.UnsupportedOperation: no descriptor
                out.fileno()
                self.left = 3 * _HANDOFF
        self.pipe: Optional[BinaryIO] = None
        self.pid = 0

    def write(self, rows: List[float]) -> None:
        """Write the flat rows ``[index, gini, entropy, …]``."""
        if self.pipe is not None:
            self.write_frame(marshal.dumps(rows))
            return
        left = self.left - len(rows)
        self.out.write(self.text(rows))
        if left <= 0 < self.left:
            self._fork()
        self.left = left

    def write_frame(self, data: bytes) -> None:
        """Write the flat rows of ``data``, a marshal frame; past the fork
        it goes to the writer as it is."""
        pipe = self.pipe
        if pipe is None:
            self.write(marshal.loads(data))
            return
        _put_frame(pipe, data)
        pipe.flush()

    def _fork(self) -> None:
        """Start the writer; if the fork fails, the rows stay in process."""
        self.out.flush()
        if sys.stderr is not None:
            sys.stderr.flush()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # such as EAGAIN at a process limit
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:
            os.close(write_end)
            _write_frames(read_end, self.out, self.text)
        os.close(read_end)
        self.pid = pid
        self.pipe = open(write_end, "wb")

    def close(self) -> None:
        pid, self.pid = self.pid, 0
        if not pid:
            return
        try:
            self.pipe.close()  # type: ignore[union-attr]
        except OSError:
            pass  # the writer has stopped reading; its status says why
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code < 0:
            raise InputError(f"the row writer was ended by signal {-code}")
        if code:
            raise SystemExit(code)  # main() returns it; the writer wrote the error line

    def __enter__(self) -> "_RowWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _write_frames(pipe: int, out: TextIO, text: Callable[[List[float]], str]) -> NoReturn:
    """The writer process: format the rows of each frame read from ``pipe``
    with ``text`` and write them to ``out``, up to the end of the pipe or a
    frame it cuts short, then flush ``out`` and exit. A failed write ends the
    process with one error line and exit code 2."""
    code = EXIT_INPUT
    try:
        write = out.write
        loads = marshal.loads
        for data in _frames(open(pipe, "rb").read):
            write(text(loads(data)))
        out.flush()
        code = EXIT_OK
    except OSError as exc:
        _say("error", str(exc))
    finally:
        if sys.stderr is not None:
            with contextlib.suppress(OSError):
                sys.stderr.flush()
        os._exit(code)


def _put_frame(out: BinaryIO, data: bytes) -> None:
    """Write the frame ``data`` to ``out`` after its 4-byte little-endian
    length."""
    out.write(len(data).to_bytes(4, "little"))
    out.write(data)


def _frames(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """The frames that ``read`` gives, each after its 4-byte little-endian
    length, up to the end of the pipe or a frame it cuts short."""
    while True:
        head = read(4)
        size = int.from_bytes(head, "little")
        data = read(size)
        if len(head) < 4 or len(data) < size:
            return
        yield data


class _Split:
    """A window run over a regular file, observed as two halves on two cores.

    The split line m is the first line of the run that starts past the
    middle byte of its input. A second process, forked before the run reads
    anything, reads the input from line m - w on with ``os.pread``, which
    leaves the shared file offset alone. With a fresh estimator and interner
    it observes those w lines without rows, which fills its window as the
    run's stands at line m, and then every line to the end. The window's
    values depend on its contents alone, so its rows are the run's. They
    come through a pipe as marshal frames of flat rows, as _RowWriter sends
    them, then an empty frame and a frame holding its end: ``(events, its
    labels in first-seen order, its window's ids)``, the message of the
    InputError or RefreshError that stopped it, or None if it refused the
    input, which it does before any row if the bytes past line m - w are not
    valid UTF-8.

    run() observes the run's lines up to line m in process, then forwards
    the second process's rows and adopts its end, so that the rows, errors
    and state are those of one process. close() kills and waits for the
    second process if run() has not waited for it.
    """

    def __init__(
        self, pid: int, pipe: BinaryIO, fd: int, lines: int, since: int, forward: Callable[[bytes], None]
    ) -> None:
        self.pid = pid
        self.pipe = pipe
        self.fd = fd
        self.lines = lines  # m
        self.since = since  # the estimator's events_since_refresh before the run
        self.forward = forward

    @classmethod
    def start(
        cls, cfg: RunConfig, source: BinaryIO, estimator: Estimator, start_index: int, forward: Callable[[bytes], None]
    ) -> Optional["_Split"]:
        """Fork the second process of the window run that reads ``source``,
        with rows going to ``forward`` as frames; None, and no fork, if the
        run stays in one process (see _SPLIT_EVERY and _split_point)."""
        if cfg.mode != "window" or cfg.emit_every < _SPLIT_EVERY or not hasattr(os, "fork"):
            return None
        fd = source.fileno()
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            return None
        capacity, period = estimator.capacity, estimator.refresh_period  # type: ignore[union-attr]
        point = _split_point(fd, source.tell(), info.st_size, capacity)
        if point is None:
            return None
        lines, offset = point
        read_end, write_end = os.pipe()
        _widen(write_end)
        try:
            pid = os.fork()
        except OSError:  # such as EAGAIN at a process limit
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            os.close(read_end)
            _second_half(cfg, fd, offset, capacity, period, start_index + lines, start_index, write_end)
        os.close(write_end)
        since = estimator.events_since_refresh  # type: ignore[union-attr]
        return cls(pid, open(read_end, "rb"), fd, lines, since, forward)

    def run(
        self,
        cfg: RunConfig,
        blocks: Iterator[List[str]],
        emit: Callable[[List[float]], None],
        estimator: Estimator,
        interner: Interner,
        start_index: int,
    ) -> int:
        """Observe ``blocks`` up to line m, then take the rest of the run
        from the second process; returns the events seen. If it refused the
        input, the rest of ``blocks`` is observed here."""
        rest: List[List[str]] = []
        first = _first_lines(blocks, self.lines, rest)
        events = _observe_blocks(cfg, first, emit, estimator, interner, start_index, start_index)
        if events - start_index == self.lines:
            ended = self._join(estimator, interner, start_index)  # type: ignore[arg-type]
            if ended is not None:
                return ended
        return _observe_blocks(cfg, chain(rest, blocks), emit, estimator, interner, events, start_index)

    def _join(self, estimator: SlidingWindowEstimator, interner: Interner, start_index: int) -> Optional[int]:
        """Forward the second process's rows and wait for it; then raise its
        InputError, or adopt its end and return the run's events, or return
        None if it refused the input."""
        frames = _frames(self.pipe.read)
        for data in frames:
            if not data:
                break
            self.forward(data)
        end = next(frames, None)
        code = self._reap()
        if end is None:
            raise InputError(
                f"the run's second process was ended by signal {-code}"
                if code < 0
                else f"the run's second process exited with code {code}"
            )
        result = marshal.loads(end)
        if result is None:
            return None
        if isinstance(result, str):
            raise InputError(result)
        events, labels, window = result
        ids = interner.intern_many(labels)
        # In blocks, as the run observes its lines, so that no count
        # outgrows those of a run.
        window = [ids[i] for i in window]
        for first in range(0, len(window), _BLOCK):
            estimator.observe_many(window[first : first + _BLOCK])
        seen = self.since + events - start_index
        period = estimator.refresh_period
        estimator.events_since_refresh = seen % period if period else seen
        # Where a run that read the input to its end leaves a shared offset,
        # as that of a stdin redirected from the file.
        os.lseek(self.fd, 0, os.SEEK_END)
        return events

    def _reap(self) -> int:
        pid, self.pid = self.pid, 0
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def close(self) -> None:
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL
            self._reap()
        self.pipe.close()

    def __enter__(self) -> "_Split":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _widen(pipe: int) -> None:
    """Let ``pipe`` hold up to _PIPE bytes where the platform allows it, so
    that the second process runs that far ahead of the run."""
    try:
        import fcntl

        fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, _PIPE)
    except (ImportError, AttributeError, OSError):  # not Linux, or over the user's limit
        pass


def _split_point(fd: int, begin: int, end: int, capacity: int) -> Optional[Tuple[int, int]]:
    """Where a window run of ``capacity`` over the bytes ``begin`` to ``end``
    of the regular file ``fd`` splits: the number m of lines before the
    split line, and the offset of line m - capacity. None if the run stays
    in one process: if no line starts past the middle byte, if a "\r" comes
    before the split line, which would make the decoder's lines differ from
    the newlines counted, or if fewer than 3 * capacity + _SPLIT_MIN lines
    come before it."""
    middle = (begin + end) // 2
    least = 3 * capacity + _SPLIT_MIN
    if middle - begin < least:  # every line holds its "\n"
        return None
    lines = 0
    pos = begin
    while True:
        data = os.pread(fd, _SCAN, pos)
        cut = data.find(b"\n", max(middle - pos, 0)) + 1
        size = cut or len(data)
        if not size or data.find(b"\r", 0, size) >= 0:
            return None
        lines += data.count(b"\n", 0, size)
        pos += size
        if cut:
            break
    if lines < least:
        return None
    # Line m - capacity starts after the (capacity + 1)-th "\n" before pos.
    need = capacity + 1
    while pos > begin:
        size = min(_SCAN, pos - begin)
        pos -= size
        data = os.pread(fd, size, pos)
        found = data.count(b"\n")
        if found >= need:
            for _ in range(need):
                size = data.rfind(b"\n", 0, size)
            return lines, pos + size + 1
        need -= found
    return lines, begin


class _Pread:
    """The bytes of ``fd`` from ``offset`` on, read with ``os.pread``."""

    def __init__(self, fd: int, offset: int) -> None:
        self.fd = fd
        self.offset = offset

    def read1(self, size: int) -> bytes:
        data = os.pread(self.fd, size, self.offset)
        self.offset += len(data)
        return data


def _second_half(
    cfg: RunConfig, fd: int, offset: int, capacity: int, period: int, first: int, start_index: int, pipe: int
) -> NoReturn:
    """The second process of a split run: observe the lines of ``fd`` from
    ``offset`` on, the first ``capacity`` of them without rows and the rest
    as the events after the first ``first``, and send their rows and end
    through ``pipe`` as _Split describes; then exit."""
    code = EXIT_INPUT
    try:
        with open(pipe, "wb") as out:
            end: object = None
            if _valid_utf8(fd, offset):
                blocks = _byte_blocks(_Pread(fd, offset))  # type: ignore[arg-type]
                estimator = SlidingWindowEstimator(capacity, period)
                end = _observe_rest(
                    cfg, blocks, lambda rows: _put_frame(out, marshal.dumps(rows)), estimator, first, start_index
                )
            _put_frame(out, b"")
            _put_frame(out, marshal.dumps(end))
        code = EXIT_OK
    finally:
        os._exit(code)


def _valid_utf8(fd: int, offset: int) -> bool:
    """Whether the bytes of ``fd`` from ``offset`` on are valid UTF-8."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        while True:
            data = os.pread(fd, _SCAN, offset)
            decode(data, not data)
            if not data:
                return True
            offset += len(data)
    except UnicodeDecodeError:
        return False


def _observe_rest(
    cfg: RunConfig,
    blocks: Iterator[List[str]],
    emit: Callable[[List[float]], None],
    estimator: SlidingWindowEstimator,
    first: int,
    start_index: int,
) -> object:
    """The second process's end (see _Split) after observing ``blocks``:
    the window's capacity of lines without rows, then the rest as the
    events after the first ``first``, their rows given to ``emit``."""
    interner = Interner()
    csv = cfg.input_format == "csv"
    rest: List[List[str]] = []
    for block in _first_lines(blocks, estimator.capacity, rest):
        labels = _block_labels(block, csv, cfg.csv_column)
        if len(labels) < len(block):
            return None  # the first process stops at this line
        estimator.observe_many(interner.intern_many(labels))
    if len(estimator) < estimator.capacity:
        return None  # the input is shorter than it was when it was split
    try:
        events = _observe_blocks(cfg, chain(rest, blocks), emit, estimator, interner, first, start_index)
    except (InputError, RefreshError) as exc:
        return str(exc)
    return events, list(interner), list(estimator.window)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _validate_run_args(args)
    start = _start(cfg, args.load_state)
    _log("DEBUG", f"config: {cfg}")

    with contextlib.ExitStack() as stack:
        stdin = args.input == "-"
        source = stack.enter_context(open(0 if stdin else args.input, "rb", closefd=not stdin))
        _check_targets(source, args.output, args.save_state, args.load_state)
        if args.save_state is not None:
            # Opened before any input is read, so an unwritable path fails first.
            state_out = stack.enter_context(replacing(args.save_state))
        if args.output == "-":
            out = _stdout()
        else:
            out = stack.enter_context(open(args.output, "w", encoding="utf-8", newline="\n"))
        rows = stack.enter_context(_RowWriter(out, cfg.metric))
        split = _Split.start(cfg, source, start.estimator, start.events_seen, rows.write_frame)
        if split is not None:
            stack.enter_context(split)
        summary = _run(cfg, source, rows.write, start.estimator, start.interner, start.events_seen, split)
        rows.close()
        out.flush()
        if args.save_state is not None:
            write_snapshot(state_out, cfg.mode, start.estimator, start.interner, summary.events)

    if args.save_state is not None:
        _log("DEBUG", f"saved {cfg.mode} state to {args.save_state}")
    _log(
        "INFO",
        f"events={summary.events} distinct_classes={summary.classes} "
        f"gini={summary.gini:.9f} entropy={summary.entropy:.9f}",
    )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.events < 10_000:
        raise UsageError("--events must be >= 10000")
    out = _stdout()
    from .bench import format_report, run_bench

    given = {name: value for name, value in vars(args).items() if name != "command"}
    try:
        results = run_bench(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out.write(format_report(results))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    setting = os.environ.get("IMPURITY_STREAM_LOG", "info").strip().lower()
    if setting not in _LOG_LEVELS:
        _log("WARNING", f"unknown IMPURITY_STREAM_LOG value {setting!r}; using 'info'")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except UsageError as exc:
        _say("error", str(exc))
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        _say("error", f"input is not valid UTF-8: {exc}")
        return EXIT_INPUT
    except (InputError, SnapshotError, RefreshError, OSError) as exc:
        _say("error", str(exc))
        return EXIT_INPUT
    except SystemExit as exc:  # argparse --help, or a failed row writer's code
        return exc.code if isinstance(exc.code, int) else EXIT_OK


def console_main() -> NoReturn:
    """The ``impurity-stream`` command: run main() on sys.argv and end the
    process with its exit code.

    Both standard streams are flushed, and the process ends with
    ``os._exit``, which skips the interpreter's teardown and ``atexit``:
    the teardown is a sizeable share of a short run's time. Every file a
    run opens is closed before main() returns. If the flush fails after a
    successful run, one error line is written and the exit code is 2; an
    earlier failure keeps its code. Call main() to run the command in
    process.
    """
    code = main()
    # stdout first, so that its error line is flushed with stderr.
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError as exc:
            if code == EXIT_OK:
                code = EXIT_INPUT
                with contextlib.suppress(OSError):
                    _say("error", str(exc))
    os._exit(code)
