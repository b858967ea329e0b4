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
import contextlib
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, TextIO

from .bench import BENCH_MODES, DEFAULT_SEED, format_report, run_bench
from .core import Interner
from .fading import FadingEstimator
from .snapshot import ESTIMATORS, Estimator, LoadedSnapshot, SnapshotError, load_snapshot, write_snapshot
from .window import SlidingWindowEstimator

__all__ = ["main", "run_stream", "RunConfig", "RunSummary"]

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

# The diagnostics each IMPURITY_STREAM_LOG value shows.
_LOG_LEVELS = {"quiet": (), "info": ("WARNING", "INFO"), "debug": ("WARNING", "INFO", "DEBUG")}


class UsageError(Exception):
    """Bad command line or inconsistent options (exit code 1)."""


class InputError(Exception):
    """Malformed stream input or an unusable state file (exit code 2)."""


@dataclass
class RunConfig:
    mode: str
    metric: str = "both"
    window_size: Optional[int] = None
    alpha: Optional[float] = None
    refresh_period: Optional[int] = None
    emit_every: int = 1
    input_format: str = "lines"
    csv_column: int = 0


@dataclass
class RunSummary:
    events: int
    classes: int
    gini: float
    entropy: float


# One row format per --metric. Every row formats (index, gini, entropy); the
# field numbers pick the columns, so an unselected metric is never formatted.
_ROW_FORMATS = {
    "gini": "{0}\t{1:.9f}\n",
    "entropy": "{0}\t{2:.9f}\n",
    "both": "{0}\t{1:.9f}\t{2:.9f}\n",
}


def run_stream(
    cfg: RunConfig,
    lines: Iterable[str],
    out: TextIO,
    estimator: Estimator,
    interner: Interner,
    start_index: int = 0,
) -> RunSummary:
    """Feed every input line to the estimator, emitting trace rows.

    ``lines`` format takes the whole trimmed line as the label; ``csv``
    splits on commas (no quoting) and takes the configured column. An empty
    label or a short row raises InputError naming the line; rows emitted
    before it have already been written to ``out``.

    One row is written after every ``emit_every``-th event (counted from the
    very start of the stream, so resumed runs keep the original cadence) and
    a final row at stream end if the last event was not already emitted.
    Rows go straight to ``out``, which does its own buffering. Exact-mode
    metrics are only computed at emit points.
    """
    observe = estimator.observe
    metrics = estimator.metrics
    intern = interner.intern
    write = out.write
    row = _ROW_FORMATS[cfg.metric].format
    emit_every = cfg.emit_every
    csv = cfg.input_format == "csv"
    column = cfg.csv_column
    events = start_index
    for raw in lines:
        if csv:
            fields = raw.rstrip("\r\n").split(",")
            if column >= len(fields):
                raise InputError(
                    f"line {events - start_index + 1}: expected at least {column + 1} "
                    f"comma-separated columns, got {len(fields)}"
                )
            label = fields[column].strip()
        else:
            label = raw.strip()
        if not label:
            raise InputError(f"line {events - start_index + 1}: empty label")
        observe(intern(label))
        events += 1
        if events % emit_every == 0:
            gini_value, entropy_value = metrics()
            write(row(events - 1, gini_value, entropy_value))
    if events > start_index and events % emit_every:
        gini_value, entropy_value = metrics()
        write(row(events - 1, gini_value, entropy_value))
    gini_value, entropy_value = metrics()
    return RunSummary(events=events, classes=len(interner), gini=gini_value, entropy=entropy_value)


def _log(level: str, message: str) -> None:
    """Write one diagnostic line to the current stderr, if IMPURITY_STREAM_LOG
    shows its level; an unknown value shows what 'info' does."""
    setting = os.environ.get("IMPURITY_STREAM_LOG", "info").strip().lower()
    if level in _LOG_LEVELS.get(setting, _LOG_LEVELS["info"]) and sys.stderr is not None:
        sys.stderr.write(f"impurity-stream: {level}: {message}\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
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

    bench_p = sub.add_parser("bench", help="time incremental updates vs full recomputation")
    bench_p.add_argument("--classes", type=int, required=True)
    bench_p.add_argument("--events", type=int, required=True)
    bench_p.add_argument(
        "--modes", nargs="+", choices=BENCH_MODES, default=list(BENCH_MODES)
    )
    bench_p.add_argument("--window-size", type=int, default=1000)
    bench_p.add_argument("--alpha", type=float, default=0.99)
    bench_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bench_p.add_argument("--repeat", type=int, default=3)
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


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[TextIO]:
    """A new file ``<path>.tmp-<pid>`` that replaces ``path`` when the block
    succeeds and is removed when it fails."""
    temp = f"{path}.tmp-{os.getpid()}"
    out = open(temp, "x", encoding="utf-8", newline="\n")
    try:
        yield out
        out.close()
        os.replace(temp, path)
    except BaseException:
        out.close()
        os.remove(temp)
        raise


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _validate_run_args(args)
    start = _start(cfg, args.load_state)
    _log("DEBUG", f"config: {cfg}")

    with contextlib.ExitStack() as stack:
        if args.save_state is not None:
            # Opened before any input is read, so an unwritable path fails first.
            state_out = stack.enter_context(_replacing(args.save_state))
        if args.input == "-":
            lines: Iterable[str] = sys.stdin
        else:
            lines = stack.enter_context(open(args.input, "r", encoding="utf-8"))
        if args.output == "-":
            out = sys.stdout
        else:
            out = stack.enter_context(open(args.output, "w", encoding="utf-8", newline="\n"))
        summary = run_stream(cfg, lines, out, start.estimator, start.interner, start.events_seen)
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
    if args.classes < 2:
        raise UsageError("--classes must be >= 2")
    if args.events < 10_000:
        raise UsageError("--events must be >= 10000")
    if args.window_size < 1:
        raise UsageError("--window-size must be >= 1")
    if not 0.0 < args.alpha <= 1.0:
        raise UsageError("--alpha must be in (0, 1]")
    if args.repeat < 1:
        raise UsageError("--repeat must be >= 1")
    results = run_bench(
        args.classes,
        args.events,
        args.modes,
        window_size=args.window_size,
        alpha=args.alpha,
        seed=args.seed,
        repeat=args.repeat,
    )
    sys.stdout.write(format_report(results))
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
        print(f"impurity-stream: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"impurity-stream: error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, SnapshotError, OSError) as exc:
        print(f"impurity-stream: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else EXIT_OK
