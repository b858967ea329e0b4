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
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import io
import os
import sys
from typing import BinaryIO, Iterable, Iterator, List, NamedTuple, NoReturn, Optional, TextIO, Union

from .core import Interner
from .fading import FadingEstimator
from .snapshot import ESTIMATORS, Estimator, LoadedSnapshot, SnapshotError, load_snapshot, replacing, write_snapshot
from .window import SlidingWindowEstimator

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
    Rows go straight to ``out``, which does its own buffering. Exact-mode
    metrics are only computed at emit points.

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
    gives.
    """
    write = out.write
    text = _ROWS[cfg.metric]
    emit_every = cfg.emit_every
    csv = cfg.input_format == "csv"
    column = cfg.csv_column
    events = start_index
    if hasattr(source, "read1"):
        observe_block = estimator.observe_block
        intern_many = interner.intern_many
        for block in _byte_blocks(source):  # type: ignore[arg-type]
            labels = _block_labels(block, csv, column)
            good = len(labels)
            if good:
                rows = observe_block(intern_many(labels), events, emit_every)
                if rows:
                    write(text(rows))
                events += good
            if good < len(block):
                raise _bad_line(events - start_index + 1, block[good], csv, column)
    else:
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
                write(text([events - 1, *metrics()]))
    if events > start_index and events % emit_every:
        write(text([events - 1, *estimator.metrics()]))
    gini_value, entropy_value = estimator.metrics()
    return RunSummary(events=events, classes=len(interner), gini=gini_value, entropy=entropy_value)


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
        summary = run_stream(cfg, source, out, start.estimator, start.interner, start.events_seen)
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
    except (InputError, SnapshotError, OSError) as exc:
        _say("error", str(exc))
        return EXIT_INPUT
    except SystemExit as exc:  # argparse --help
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
