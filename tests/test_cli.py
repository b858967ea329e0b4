"""End-to-end CLI behavior: traces, formats, exit codes, resume, logging."""

from __future__ import annotations

import inspect
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import hex_ints
from impurity_stream import ExactEstimator, FadingEstimator, Interner, SlidingWindowEstimator
from impurity_stream.bench import run_bench
from impurity_stream.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    FORMATS,
    METRICS,
    MODES,
    InputError,
    RunConfig,
    console_main,
    main,
    run_stream,
)


@pytest.fixture()
def cli(tmp_path, capsys):
    """Run the CLI in-process against an input file; returns (code, rows, err)."""

    def invoke(args, input_lines=None):
        argv = list(args)
        if input_lines is not None:
            input_path = tmp_path / f"input-{len(list(tmp_path.iterdir()))}.txt"
            input_path.write_text("".join(line + "\n" for line in input_lines), encoding="utf-8")
            argv += ["--input", str(input_path)]
        code = main(argv)
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        return code, rows, captured.err

    return invoke


class TestGoldenTraces:
    def test_window_trace(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "window", "--window-size", "2", "--metric", "both"],
            input_lines=["a", "b", "a"],
        )
        assert code == EXIT_OK
        assert len(rows) == 3
        assert rows[-1] == "2\t0.500000000\t1.000000000"

    def test_exact_trace_with_sparse_emission(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--emit-every", "3"],
            input_lines=["a", "a", "a"],
        )
        assert code == EXIT_OK
        assert rows == ["2\t0.000000000\t0.000000000"]

    def test_fading_trace_without_fading(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "fading", "--alpha", "1.0"],
            input_lines=["a", "b"],
        )
        assert code == EXIT_OK
        assert rows[-1] == "1\t0.500000000\t1.000000000"


class TestOutputShape:
    def test_single_metric_drops_other_column(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--metric", "gini"], input_lines=["a", "b"]
        )
        assert code == EXIT_OK
        assert rows == ["0\t0.000000000", "1\t0.500000000"]
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--metric", "entropy"], input_lines=["a", "b"]
        )
        assert rows == ["0\t0.000000000", "1\t1.000000000"]

    def test_emit_cadence_includes_final_row(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--emit-every", "2"],
            input_lines=["a", "b", "a", "b", "a"],
        )
        assert code == EXIT_OK
        assert [row.split("\t")[0] for row in rows] == ["1", "3", "4"]

    def test_rows_increase_and_parse_losslessly(self, cli):
        rng = random.Random(3)
        labels = [f"c{rng.randrange(4)}" for _ in range(300)]
        code, rows, _ = cli(
            ["run", "--mode", "window", "--window-size", "16", "--emit-every", "7"],
            input_lines=labels,
        )
        assert code == EXIT_OK
        previous = -1
        for row in rows:
            index_str, gini_str, entropy_str = row.split("\t")
            index = int(index_str)
            assert index > previous
            previous = index
            assert 0.0 <= float(gini_str) <= 1.0
            assert float(entropy_str) >= 0.0
        assert previous == len(labels) - 1

    def test_output_file_written(self, cli, tmp_path):
        out_path = tmp_path / "trace.tsv"
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--output", str(out_path)], input_lines=["a", "b"]
        )
        assert code == EXIT_OK
        assert rows == []  # nothing on stdout
        assert out_path.read_text() == "0\t0.000000000\t0.000000000\n1\t0.500000000\t1.000000000\n"

    @pytest.mark.parametrize("emit_every", ["1", "16"])
    def test_window_larger_than_maxsize(self, cli, emit_every):
        """Both run loops, per line (1) and in blocks (16), take a window
        larger than sys.maxsize; on a short stream it is a large window."""
        rng = random.Random(16)
        labels = [f"c{rng.randrange(5)}" for _ in range(40)]
        large, huge = (
            cli(["run", "--mode", "window", "--window-size", size, "--emit-every", emit_every], input_lines=labels)
            for size in ("1000000", "100000000000000000000")
        )
        assert large[0] == EXIT_OK
        assert huge == large

    def test_empty_input_emits_no_rows(self, cli):
        code, rows, err = cli(["run", "--mode", "exact"], input_lines=[])
        assert code == EXIT_OK
        assert rows == []
        assert "events=0" in err


_ESTIMATORS = {
    "window": lambda: SlidingWindowEstimator(5, refresh_period=4),
    "fading": lambda: FadingEstimator(0.9),
    "exact": ExactEstimator,
}


def _reference_rows(mode, metric, labels, start_index, emit_every):
    """Rows from metrics() after each event, formatted and emitted as
    run_stream did before its loop was flattened."""
    estimator, interner = _ESTIMATORS[mode](), Interner()
    rows = []
    last_emitted = -1
    for index, label in enumerate(labels):
        estimator.observe(interner.intern(label))
        if index < start_index:
            continue
        if (index + 1) % emit_every == 0 or (index == len(labels) - 1 and last_emitted != index):
            gini_value, entropy_value = estimator.metrics()
            if metric == "gini":
                row = f"{index}\t{gini_value:.9f}"
            elif metric == "entropy":
                row = f"{index}\t{entropy_value:.9f}"
            else:
                row = f"{index}\t{gini_value:.9f}\t{entropy_value:.9f}"
            rows.append(row + "\n")
            last_emitted = index
    return "".join(rows), estimator.metrics()


class TestRunStreamRows:
    @pytest.mark.parametrize("start_index", [0, 10])
    @pytest.mark.parametrize("emit_every", [1, 7])
    @pytest.mark.parametrize("input_format", FORMATS)
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("mode", MODES)
    def test_rows_match_old_formatting(self, mode, metric, input_format, emit_every, start_index):
        rng = random.Random(f"{mode}-{metric}-{input_format}-{emit_every}-{start_index}")
        labels = [f"c{rng.randrange(6)}" for _ in range(start_index + 57)]
        if input_format == "csv":
            lines = [
                f"{i}, {label} ,x" + ("\r\n" if i % 3 else "\n") for i, label in enumerate(labels)
            ]
        else:
            lines = [f"  {label}\t\n" for label in labels]
        cfg = RunConfig(
            mode=mode,
            metric=metric,
            emit_every=emit_every,
            input_format=input_format,
            csv_column=1,
        )
        estimator, interner = _ESTIMATORS[mode](), Interner()
        for label in labels[:start_index]:
            estimator.observe(interner.intern(label))

        out = io.StringIO()
        summary = run_stream(cfg, lines[start_index:], out, estimator, interner, start_index)

        expected, final = _reference_rows(mode, metric, labels, start_index, emit_every)
        assert out.getvalue() == expected
        assert (summary.events, summary.classes) == (len(labels), len(set(labels)))
        assert (summary.gini, summary.entropy) == final

    @pytest.mark.parametrize(
        "input_format,bad,message",
        [
            ("lines", "  \n", "line 4: empty label"),
            ("csv", "7\n", "line 4: expected at least 2 comma-separated columns, got 1"),
            ("csv", "7, ,x\n", "line 4: empty label"),
        ],
    )
    def test_rows_before_bad_line_are_written(self, input_format, bad, message):
        cfg = RunConfig(mode="fading", alpha=0.9, input_format=input_format, csv_column=1)
        lines = ["0,a\n", "1,b\n", "2,a\n", bad, "4,b\n"]
        if input_format == "lines":
            lines = [line.split(",")[-1] for line in lines]
        out = io.StringIO()
        # Line numbers count this run's input, not the resumed event index.
        with pytest.raises(InputError) as caught:
            run_stream(cfg, lines, out, FadingEstimator(0.9), Interner(), start_index=10)
        assert str(caught.value) == message
        assert [row.split("\t")[0] for row in out.getvalue().splitlines()] == ["10", "11", "12"]

    def test_cli_keeps_rows_before_bad_line(self, cli):
        code, rows, err = cli(["run", "--mode", "exact"], input_lines=["a", "b", " ", "c"])
        assert code == EXIT_INPUT
        assert rows == ["0\t0.000000000\t0.000000000", "1\t0.500000000\t1.000000000"]
        assert err == "impurity-stream: error: line 3: empty label\n"


class TestCsvFormat:
    def test_selects_configured_column(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--format", "csv", "--column", "1"],
            input_lines=["3,red,x", "4,blue,y", "5,red,z"],
        )
        assert code == EXIT_OK
        assert rows[-1].startswith("2\t")
        assert rows[-1].split("\t")[1] == f"{1 - (4 + 1) / 9:.9f}"

    def test_short_row_aborts_with_line_number(self, cli):
        code, _, err = cli(
            ["run", "--mode", "exact", "--format", "csv", "--column", "2"],
            input_lines=["a,b,c", "a,b"],
        )
        assert code == EXIT_INPUT
        assert "line 2" in err

    def test_default_column_is_zero(self, cli):
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--format", "csv"],
            input_lines=["red,1", "red,2"],
        )
        assert code == EXIT_OK
        assert rows[-1] == "1\t0.000000000\t0.000000000"


class TestInputErrors:
    def test_empty_label_aborts_with_line_number(self, cli):
        code, _, err = cli(["run", "--mode", "exact"], input_lines=["a", "", "b"])
        assert code == EXIT_INPUT
        assert "line 2" in err

    def test_missing_input_file(self, cli, tmp_path):
        code, _, err = cli(
            ["run", "--mode", "exact", "--input", str(tmp_path / "nope.txt")]
        )
        assert code == EXIT_INPUT
        assert "error" in err

    def test_non_utf8_input(self, cli, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a\n\xff\xfe\n")
        code, _, err = cli(["run", "--mode", "exact", "--input", str(bad)])
        assert code == EXIT_INPUT
        assert "UTF-8" in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--mode", "window"],
            ["run", "--mode", "banana"],
            ["run"],
            ["run", "--mode", "fading"],
            ["run", "--mode", "fading", "--alpha", "1.5"],
            ["run", "--mode", "fading", "--alpha", "0"],
            ["run", "--mode", "exact", "--window-size", "5"],
            ["run", "--mode", "exact", "--alpha", "0.5"],
            ["run", "--mode", "exact", "--refresh-every", "5"],
            ["run", "--mode", "window", "--window-size", "2", "--alpha", "0.5"],
            ["run", "--mode", "fading", "--alpha", "0.5", "--refresh-every", "2"],
            ["run", "--mode", "window", "--window-size", "0"],
            ["run", "--mode", "window", "--window-size", "2", "--refresh-every", "-1"],
            ["run", "--mode", "window", "--window-size", "2", "--emit-every", "0"],
            ["run", "--mode", "exact", "--column", "1"],
            ["run", "--mode", "exact", "--format", "csv", "--column", "-1"],
            ["bench", "--classes", "1", "--events", "10000"],
            ["bench", "--classes", "5", "--events", "500"],
            ["bench", "--classes", "5", "--events", "10000", "--repeat", "0"],
            ["bench", "--classes", "5", "--events", "10000", "--alpha", "2.0"],
            ["bench", "--classes", "5", "--events", "10000", "--window-size", "0"],
            [],
            ["bench", "--classes", "5", "--events", "10000", "--modes", "window", "nope"],
        ],
    )
    def test_bad_invocations_exit_one(self, cli, argv):
        code, rows, err = cli(argv)
        assert code == EXIT_USAGE
        assert rows == []
        assert err.splitlines()[-1].startswith("impurity-stream: error:")
        if "nope" in argv:
            assert err == "impurity-stream: error: unknown bench mode 'nope'\n"

    def test_bench_ignores_flags_of_modes_it_does_not_run(self, cli):
        code, rows, err = cli(
            ["bench", "--classes", "5", "--events", "10000", "--modes", "recompute"]
            + ["--alpha", "2.0", "--repeat", "1"]
        )
        assert code == EXIT_OK
        assert rows[1].startswith("recompute\t5\t10000\t")
        assert err == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["run", "--help"]) == EXIT_OK
        capsys.readouterr()


def _env():
    """The environment of a CLI process: this checkout's package, the info
    log level, and stdout block-buffered whatever PYTHONUNBUFFERED says here."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "IMPURITY_STREAM_LOG": "info"}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _spawn(argv, data=b"", redirect="", cwd=None):
    """Run the CLI in a new process with ``data`` on its stdin; ``redirect``
    is a shell redirection, such as ``<&-``, applied to it. Its stdout is a
    pipe. The call returns once the process has exited and its stdout and
    stderr have reached their end, which no process left running would
    allow within the timeout."""
    return subprocess.run(
        ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, "-m", "impurity_stream", *argv],
        input=data,
        capture_output=True,
        cwd=cwd,
        env=_env(),
        timeout=120,
    )


class TestStdinStdout:
    @pytest.mark.parametrize(
        "data,fmt,last_row",
        [
            (b"a\nb\n", "lines", "1\t0.500000000\t1.000000000"),
            # A lone \r ends a line, as universal newlines read it from a file.
            (b"a\rb\na\n", "lines", "2\t0.444444444\t0.918295834"),
            (b"a\r\nb\r\n", "lines", "1\t0.500000000\t1.000000000"),
            (b"a\r\nb\r\n", "csv", "1\t0.500000000\t1.000000000"),
        ],
        ids=["lf", "lone-cr", "crlf", "crlf-csv"],
    )
    def test_stdin_reads_like_a_file(self, tmp_path, data, fmt, last_row):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        argv = ["run", "--mode", "exact", "--format", fmt]
        piped = _spawn(argv, data)
        read = _spawn(argv + ["--input", str(path)])
        assert piped.returncode == read.returncode == EXIT_OK, piped.stderr
        assert piped.stdout == read.stdout
        assert piped.stderr == read.stderr
        assert piped.stdout.decode().splitlines()[-1] == last_row

    @pytest.mark.parametrize(
        "argv,redirect",
        [
            (["run", "--mode", "exact"], "<&-"),
            (["run", "--mode", "exact"], ">&-"),
            (["bench", "--classes", "5", "--events", "10000"], ">&-"),
        ],
        ids=["run-no-stdin", "run-no-stdout", "bench-no-stdout"],
    )
    def test_closed_fd_is_one_error_line(self, argv, redirect):
        proc = _spawn(argv, b"a\n", redirect)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_INPUT, err
        assert err.startswith("impurity-stream: error:") and err.count("\n") == 1

    def test_bench_checks_stdout_before_timing(self, monkeypatch):
        monkeypatch.setattr("impurity_stream.bench.run_bench", lambda *a, **k: pytest.fail("timed"))
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["bench", "--classes", "5", "--events", "10000"]) == EXIT_INPUT

    def test_bench_leaves_the_defaults_to_run_bench(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("impurity_stream.bench.run_bench", lambda *a, **k: calls.append((a, k)) or [])
        assert main(["bench", "--classes", "5", "--events", "10000"]) == EXIT_OK
        assert calls == [((), {"classes": 5, "events": 10000})]
        capsys.readouterr()

    def test_bench_passes_each_flag_by_its_parameter_name(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("impurity_stream.bench.run_bench", lambda *a, **k: calls.append((a, k)) or [])
        flags = ["--modes", "fading", "window", "--window-size", "7", "--alpha", "0.5", "--seed", "3", "--repeat", "2"]
        assert main(["bench", "--classes", "5", "--events", "10000", *flags]) == EXIT_OK
        given = {"modes": ["fading", "window"], "window_size": 7, "alpha": 0.5, "seed": 3, "repeat": 2}
        assert calls == [((), {"classes": 5, "events": 10000, **given})]
        assert set(calls[0][1]) == set(inspect.signature(run_bench).parameters)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args,stdin",
        [
            (["--input", "f.txt", "--output", "f.txt"], None),
            (["--output", "f.txt"], "f.txt"),
            (["--input", "f.txt", "--output", "o.txt", "--save-state", "o.txt"], None),
            (["--input", "f.txt", "--save-state", "f.txt"], None),
            (["--save-state", "f.txt"], "f.txt"),
        ],
        ids=["input", "stdin", "save-state", "state-input", "state-stdin"],
    )
    def test_output_naming_the_input_is_a_usage_error(self, tmp_path, args, stdin):
        # Opening --output truncates it, and --save-state replaces it; the run
        # would read nothing, or lose its rows or its input.
        files = {"f.txt": b"a\nb\n", "o.txt": b"old\n"}
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        proc = _spawn(["run", "--mode", "exact", *args], redirect=f"< {stdin}" if stdin else "", cwd=tmp_path)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_USAGE, err
        assert err.startswith("impurity-stream: error:") and err.count("\n") == 1
        assert proc.stdout == b""
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_dev_null_may_be_input_and_output(self, capsys):
        assert main(["run", "--mode", "exact", "--input", os.devnull, "--output", os.devnull]) == EXIT_OK

    def test_non_utf8_stdin_is_rejected_like_a_file(self, tmp_path):
        # UTF-8 mode gives sys.stdin the surrogateescape handler; a run must
        # not take that, or --save-state fails to encode the label.
        src = str(Path(__file__).resolve().parents[1] / "src")
        state = tmp_path / "S"
        proc = subprocess.run(
            [sys.executable, "-m", "impurity_stream", "run", "--mode", "exact", "--save-state", str(state)],
            input=b"a\n\xff\n",
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "1", "IMPURITY_STREAM_LOG": "info"},
        )
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_INPUT, err
        assert err.startswith("impurity-stream: error:") and err.count("\n") == 1 and "UTF-8" in err
        assert proc.stdout == b""
        assert list(tmp_path.iterdir()) == []


class TestTraceEquivalence:
    def test_window_fading_exact_agree_without_recency(self, cli):
        rng = random.Random(55)
        labels = [f"c{rng.randrange(5)}" for _ in range(10_000)]
        traces = {}
        for mode, extra in [
            ("window", ["--window-size", "10000"]),
            ("fading", ["--alpha", "1.0"]),
            ("exact", []),
        ]:
            code, rows, _ = cli(["run", "--mode", mode] + extra, input_lines=labels)
            assert code == EXIT_OK
            traces[mode] = [
                (int(i), float(g), float(h))
                for i, g, h in (row.split("\t") for row in rows)
            ]
        for mode in ("fading", "exact"):
            for (ia, ga, ha), (ib, gb, hb) in zip(traces["window"], traces[mode]):
                assert ia == ib
                assert abs(ga - gb) <= 1e-9
                assert abs(ha - hb) <= 1e-9


# The int-list lines that a state saved after "a b a" holds.
_WINDOW_ABA = "window " + hex_ints(8, [0, 1, 0])
_COUNTS_ABA = "counts " + hex_ints(8, [2, 1])


def _window_id_beyond_labels(lines):
    # window [0, 1, 0] -> [0, 7, 0]: id 7 names no label.
    lines[lines.index(_WINDOW_ABA)] = "window " + hex_ints(8, [0, 7, 0])


def _fading_beyond_exact_counts(lines):
    # 2**53 + 1 events, which the counts sum to, but a float does not hold.
    lines[lines.index("events 3")] = "events 9007199254740993"
    lines[lines.index(_COUNTS_ABA)] = "counts " + hex_ints(64, [2**53, 1])


def _window_beyond_capacity(lines):
    # Four events in a window of 3, with the event count to match.
    lines[lines.index("events 3")] = "events 4"
    lines[lines.index(_WINDOW_ABA)] = "window " + hex_ints(8, [0, 1, 0, 1])


def _replace_line(old, new):
    def tamper(lines):
        lines[lines.index(old)] = new

    return tamper


def _append_line(line):
    def tamper(lines):
        lines.append(line)

    return tamper


def _replace_field(key, value):
    def tamper(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[at] = f"{key} {value}"

    return tamper


# Each case saves a state after "a b a" (ids 0, 1, 0), edits one line and
# resumes from it; every edit must be rejected at load time.
_TAMPERED_SNAPSHOTS = [
    pytest.param(
        ["fading", "--alpha", "0.9"],
        _replace_line(_COUNTS_ABA, "counts " + hex_ints(8, [2, 0, 0, 0, 0, 0, 0, 1])),
        id="fading-id-beyond-labels",
    ),
    pytest.param(
        ["exact"],
        _replace_line(_COUNTS_ABA, "counts " + hex_ints(8, [2, 0, 0, 0, 0, 0, 0, 1])),
        id="exact-id-beyond-labels",
    ),
    # No width holds a negative mass: written as the signed list [-1, 4],
    # the field is malformed, and as the byte 0xff, -1 reads 255.
    pytest.param(["exact"], _replace_line(_COUNTS_ABA, "counts [-1,4]"), id="exact-negative-mass"),
    pytest.param(["exact"], _replace_line(_COUNTS_ABA, "counts u8:ff04"), id="exact-negative-mass-as-byte"),
    pytest.param(
        ["window", "--window-size", "3"],
        _replace_line("events 3", "events -5"),
        id="negative-events",
    ),
    pytest.param(
        ["window", "--window-size", "3", "--refresh-every", "2"],
        _replace_line("events_since_refresh 1", "events_since_refresh -1"),
        id="negative-since-refresh",
    ),
    pytest.param(
        ["window", "--window-size", "3", "--refresh-every", "2"],
        _replace_line("events_since_refresh 1", "events_since_refresh 2"),
        id="since-refresh-at-period",
    ),
    # Non-finite floats: a NaN d would read as Gini 0 from then on.
    pytest.param(["fading", "--alpha", "0.9"], _replace_field("d", "nan"), id="fading-d-nan"),
    pytest.param(["fading", "--alpha", "0.9"], _replace_field("u", "inf"), id="fading-u-inf"),
    # d = n²·G only ever gains alpha·d and 2·(n - c), which are >= 0.
    pytest.param(["fading", "--alpha", "0.9"], _replace_field("d", "-0x1.0p-10"), id="fading-d-negative"),
    pytest.param(["fading", "--alpha", "0.9"], _fading_beyond_exact_counts, id="fading-beyond-2**53"),
    # A window state has no float field; an h left over from version 2 is refused.
    pytest.param(["window", "--window-size", "3"], _append_line("h inf"), id="window-h-inf"),
    # The event count must agree with the estimator's own count.
    pytest.param(
        ["fading", "--alpha", "0.9"], _replace_line("events 3", "events 100"), id="fading-events-above-n"
    ),
    pytest.param(["exact"], _replace_line("events 3", "events 2"), id="exact-events-below-counts"),
    pytest.param(
        ["window", "--window-size", "3"], _replace_line("events 3", "events 1"), id="window-events-below-length"
    ),
    # After 3 events a window of 3 holds 3 ids, not none.
    pytest.param(
        ["window", "--window-size", "3"], _replace_line(_WINDOW_ABA, "window u8:"), id="window-shorter-than-run"
    ),
]


class TestStatePersistence:
    def _labels(self, n, k, seed):
        rng = random.Random(seed)
        return [f"c{rng.randrange(k)}" for _ in range(n)]

    @pytest.mark.parametrize(
        "mode,extra",
        [
            ("window", ["--window-size", "23", "--refresh-every", "9"]),
            ("fading", ["--alpha", "0.9"]),
            ("exact", []),
        ],
    )
    def test_resume_equals_uninterrupted(self, cli, tmp_path, mode, extra):
        labels = self._labels(400, 6, seed={"window": 101, "fading": 202, "exact": 303}[mode])
        state = tmp_path / "state.snap"

        code, full_rows, _ = cli(["run", "--mode", mode] + extra, input_lines=labels)
        assert code == EXIT_OK
        code, head_rows, _ = cli(
            ["run", "--mode", mode, *extra, "--save-state", str(state)],
            input_lines=labels[:137],
        )
        assert code == EXIT_OK
        code, tail_rows, _ = cli(
            ["run", "--mode", mode, "--load-state", str(state)],
            input_lines=labels[137:],
        )
        assert code == EXIT_OK
        assert head_rows + tail_rows == full_rows

    def test_load_mode_mismatch(self, cli, tmp_path):
        state = tmp_path / "state.snap"
        code, _, _ = cli(
            ["run", "--mode", "fading", "--alpha", "0.5", "--save-state", str(state)],
            input_lines=["a", "b"],
        )
        assert code == EXIT_OK
        code, _, err = cli(
            ["run", "--mode", "window", "--load-state", str(state)], input_lines=["a"]
        )
        assert code == EXIT_INPUT
        assert "mode" in err

    def test_load_corrupt_file(self, cli, tmp_path):
        state = tmp_path / "state.snap"
        state.write_text("garbage\n")
        code, _, err = cli(
            ["run", "--mode", "exact", "--load-state", str(state)], input_lines=["a"]
        )
        assert code == EXIT_INPUT
        assert "error" in err

    def test_load_non_utf8_state(self, cli, tmp_path):
        state = tmp_path / "state.snap"
        state.write_bytes(b'impurity-stream-snapshot 5 exact\nevents 1\nlabels ["\xff"]\ncounts u8:01\n')
        code, rows, err = cli(["run", "--mode", "exact", "--load-state", str(state)], input_lines=["a"])
        assert code == EXIT_INPUT
        assert rows == []
        assert err.startswith("impurity-stream: error: snapshot is not valid UTF-8:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "tamper",
        [_window_id_beyond_labels, _window_beyond_capacity],
        ids=["id-beyond-labels", "beyond-capacity"],
    )
    def test_inconsistent_window_snapshot_rejected(self, cli, tmp_path, tamper):
        state = tmp_path / "state.snap"
        code, _, _ = cli(
            ["run", "--mode", "window", "--window-size", "3", "--save-state", str(state)],
            input_lines=["a", "b", "a"],
        )
        assert code == EXIT_OK
        lines = state.read_text(encoding="utf-8").splitlines()
        assert _WINDOW_ABA in lines
        tamper(lines)
        state.write_text("\n".join(lines) + "\n", encoding="utf-8")

        code, rows, err = cli(
            ["run", "--mode", "window", "--load-state", str(state)],
            input_lines=["b", "a", "c", "a"],
        )
        assert code == EXIT_INPUT
        assert rows == []
        assert err.startswith("impurity-stream: error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode_args,tamper", _TAMPERED_SNAPSHOTS)
    def test_tampered_snapshot_rejected(self, cli, tmp_path, mode_args, tamper):
        state = tmp_path / "state.snap"
        code, _, _ = cli(
            ["run", "--mode", *mode_args, "--save-state", str(state)], input_lines=["a", "b", "a"]
        )
        assert code == EXIT_OK
        lines = state.read_text(encoding="utf-8").splitlines()
        tamper(lines)
        state.write_text("\n".join(lines) + "\n", encoding="utf-8")

        code, rows, err = cli(
            ["run", "--mode", mode_args[0], "--load-state", str(state)], input_lines=["b", "a", "c"]
        )
        assert code == EXIT_INPUT
        assert rows == []
        assert err.startswith("impurity-stream: error:")
        assert err.count("\n") == 1

    def test_version_1_state_rejected(self, cli, tmp_path):
        state = tmp_path / "state.snap"
        state.write_text(
            "impurity-stream-snapshot 1 exact\nevents 1\nlabels 1\n\"a\"\ncounts 1\n0 0x1.0000000000000p+0\n",
            encoding="utf-8",
        )
        code, rows, err = cli(["run", "--mode", "exact", "--load-state", str(state)], input_lines=["a"])
        assert code == EXIT_INPUT
        assert rows == []
        assert err == "impurity-stream: error: unsupported snapshot version '1'\n"

    def test_version_2_state_rejected(self, cli, tmp_path):
        # What version 2 saved after "a b a" in a window of 3.
        state = tmp_path / "state.snap"
        state.write_text(
            "impurity-stream-snapshot 2 window\nevents 3\nlabels [\"a\",\"b\"]\ncapacity 3\n"
            "refresh_period 0\nevents_since_refresh 3\ng 0x1.c71c71c71c71cp-2\n"
            "h 0x1.d62adf1ea257dp-1\nwindow [0,1,0]\nclasses [0,1]\n",
            encoding="utf-8",
        )
        code, rows, err = cli(["run", "--mode", "window", "--load-state", str(state)], input_lines=["a"])
        assert code == EXIT_INPUT
        assert rows == []
        assert err == "impurity-stream: error: unsupported snapshot version '2'\n"

    def test_version_3_state_rejected(self, cli, tmp_path):
        # What version 3 saved after "a b a" at alpha 0.9: the fading
        # estimator then carried G and H, not n²·G and n·H.
        state = tmp_path / "state.snap"
        state.write_text(
            "impurity-stream-snapshot 3 fading\nevents 3\nlabels [\"a\",\"b\"]\nalpha 0x1.ccccccccccccdp-1\n"
            "g 0x1.b05b05b05b05ap-2\nh 0x1.b408bcfc8035bp-1\ncounts [2,1]\n",
            encoding="utf-8",
        )
        code, rows, err = cli(["run", "--mode", "fading", "--load-state", str(state)], input_lines=["a"])
        assert code == EXIT_INPUT
        assert rows == []
        assert err == "impurity-stream: error: unsupported snapshot version '3'\n"

    @pytest.mark.parametrize(
        "mode,text",
        [
            # What version 4 saved after "a b a": int lists were JSON arrays.
            ("exact", 'impurity-stream-snapshot 4 exact\nevents 3\nlabels ["a","b"]\ncounts [2,1]\n'),
            (
                "window",
                'impurity-stream-snapshot 4 window\nevents 3\nlabels ["a","b"]\ncapacity 3\n'
                "refresh_period 0\nevents_since_refresh 3\nwindow [0,1,0]\n",
            ),
        ],
        ids=["exact", "window"],
    )
    def test_version_4_state_rejected(self, cli, tmp_path, mode, text):
        state = tmp_path / "state.snap"
        state.write_text(text, encoding="utf-8")
        code, rows, err = cli(["run", "--mode", mode, "--load-state", str(state)], input_lines=["a"])
        assert code == EXIT_INPUT
        assert rows == []
        assert err == "impurity-stream: error: unsupported snapshot version '4'\n"
        # Under version 5, the same lines are malformed.
        state.write_text(text.replace("snapshot 4", "snapshot 5", 1), encoding="utf-8")
        code, rows, err = cli(["run", "--mode", mode, "--load-state", str(state)], input_lines=["a"])
        assert (code, rows) == (EXIT_INPUT, [])
        assert err.startswith("impurity-stream: error: line ") and err.count("\n") == 1

    def test_unwritable_save_path_fails_before_any_row(self, cli, tmp_path):
        target = tmp_path / "missing-dir" / "state.snap"
        code, rows, err = cli(
            ["run", "--mode", "exact", "--save-state", str(target)], input_lines=["a", "b"]
        )
        assert code == EXIT_INPUT
        assert rows == []
        assert err.startswith("impurity-stream: error:")
        assert err.count("\n") == 1

    def test_save_state_in_a_missing_directory_names_the_path_given(self, tmp_path):
        # Not the temp file beside it, "nope/x.state.tmp-<pid>", which the
        # user never named.
        proc = _spawn(["run", "--mode", "exact", "--save-state", "nope/x.state"], b"a\nb\n", cwd=tmp_path)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == b"impurity-stream: error: [Errno 2] No such file or directory: 'nope/x.state'\n"
        assert proc.stdout == b""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_save_state_that_is_no_regular_file_fails_before_any_row(self, tmp_path, kind):
        # Renaming the state over it would turn a FIFO or an empty directory
        # into a regular file.
        target = tmp_path / "target"
        os.mkfifo(target) if kind == "fifo" else target.mkdir()
        proc = _spawn(["run", "--mode", "exact", "--save-state", "target"], b"a\nb\n", cwd=tmp_path)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_INPUT, err
        assert err == "impurity-stream: error: target is not a regular file\n"
        assert proc.stdout == b""
        assert [p.name for p in tmp_path.iterdir()] == ["target"]
        assert target.is_fifo() if kind == "fifo" else target.is_dir()

    def test_save_state_through_a_symlink_replaces_its_target(self, cli, tmp_path):
        real = tmp_path / "real.snap"
        real.write_text("previous\n", encoding="utf-8")
        link = tmp_path / "link.snap"
        link.symlink_to(real.name)
        code, _, _ = cli(["run", "--mode", "exact", "--save-state", str(link)], input_lines=["a", "b"])
        assert code == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text(encoding="utf-8").startswith("impurity-stream-snapshot 5 exact\n")
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".snap") == ["link.snap", "real.snap"]

    def test_output_naming_the_load_state_file_is_a_usage_error(self, cli, tmp_path):
        # Opening --output would truncate the state the run has just loaded.
        state = tmp_path / "state.snap"
        link = tmp_path / "link.snap"
        link.symlink_to(state.name)
        assert cli(["run", "--mode", "exact", "--save-state", str(state)], input_lines=["a", "b"])[0] == EXIT_OK
        saved = state.read_bytes()
        for output in (state, link):
            code, rows, err = cli(
                ["run", "--mode", "exact", "--load-state", str(state), "--output", str(output)],
                input_lines=["a", "c"],
            )
            assert code == EXIT_USAGE
            assert rows == []
            assert err == f"impurity-stream: error: --output {output} is the --load-state file\n"
            assert state.read_bytes() == saved
        # Resuming in place stays legal.
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--load-state", str(state), "--save-state", str(state)],
            input_lines=["a", "c"],
        )
        assert code == EXIT_OK
        assert [row.split("\t")[0] for row in rows] == ["2", "3"]
        assert state.read_text(encoding="utf-8").startswith("impurity-stream-snapshot 5 exact\nevents 4\n")

    def test_failed_run_leaves_no_temp_state(self, cli, tmp_path):
        state = tmp_path / "state.snap"
        state.write_text("previous\n", encoding="utf-8")
        code, rows, _ = cli(
            ["run", "--mode", "exact", "--save-state", str(state)], input_lines=["a", "", "b"]
        )
        assert code == EXIT_INPUT
        assert rows == ["0\t0.000000000\t0.000000000"]
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("state")) == ["state.snap"]
        assert state.read_text(encoding="utf-8") == "previous\n"

    # (mode flags of the saved run, the flag given again on resume, a value
    # other than the saved one)
    _RESUME_FLAGS = [
        (["--mode", "window", "--window-size", "8", "--refresh-every", "3"], "--window-size", "9"),
        (["--mode", "window", "--window-size", "8", "--refresh-every", "3"], "--refresh-every", "0"),
        (["--mode", "fading", "--alpha", "0.5"], "--alpha", "0.25"),
    ]

    def _save(self, cli, state, mode_args):
        code, _, _ = cli(["run", *mode_args, "--save-state", str(state)], input_lines=["a", "b"])
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "mode_args,flag,other", _RESUME_FLAGS, ids=[flag for _, flag, _ in _RESUME_FLAGS]
    )
    def test_conflicting_flag_on_resume(self, cli, tmp_path, mode_args, flag, other):
        state = tmp_path / "state.snap"
        self._save(cli, state, mode_args)
        code, rows, err = cli(
            ["run", *mode_args[:2], flag, other, "--load-state", str(state)], input_lines=["a"]
        )
        assert code == EXIT_USAGE
        assert rows == []
        assert err.startswith(f"impurity-stream: error: {flag} {other} conflicts with saved ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "mode_args,flag,other", _RESUME_FLAGS, ids=[flag for _, flag, _ in _RESUME_FLAGS]
    )
    def test_matching_flag_on_resume_is_fine(self, cli, tmp_path, mode_args, flag, other):
        state = tmp_path / "state.snap"
        self._save(cli, state, mode_args)
        saved = mode_args[mode_args.index(flag) + 1]
        code, rows, _ = cli(
            ["run", *mode_args[:2], flag, saved, "--load-state", str(state)], input_lines=["b"]
        )
        assert code == EXIT_OK
        assert [row.split("\t")[0] for row in rows] == ["2"]

    @pytest.mark.parametrize(
        "argv,flag,construct",
        [
            (["--mode", "window", "--window-size", "0"], "--window-size", lambda: SlidingWindowEstimator(0)),
            (
                ["--mode", "window", "--window-size", "-3", "--refresh-every", "2"],
                "--window-size",
                lambda: SlidingWindowEstimator(-3, 2),
            ),
            (
                ["--mode", "window", "--window-size", "5", "--refresh-every", "-1"],
                "--refresh-every",
                lambda: SlidingWindowEstimator(5, -1),
            ),
            (["--mode", "fading", "--alpha", "0"], "--alpha", lambda: FadingEstimator(0.0)),
            (["--mode", "fading", "--alpha", "-0.5"], "--alpha", lambda: FadingEstimator(-0.5)),
            (["--mode", "fading", "--alpha", "1.5"], "--alpha", lambda: FadingEstimator(1.5)),
            (["--mode", "fading", "--alpha", "nan"], "--alpha", lambda: FadingEstimator(float("nan"))),
        ],
        ids=["window-size-0", "window-size-neg", "refresh-every-neg", "alpha-0", "alpha-neg", "alpha-1.5", "alpha-nan"],
    )
    def test_out_of_range_flag_creates_nothing(self, cli, tmp_path, argv, flag, construct):
        state = tmp_path / "state.snap"
        output = tmp_path / "out.tsv"
        code, rows, err = cli(
            ["run", *argv, "--output", str(output), "--save-state", str(state)], input_lines=["a"]
        )
        assert code == EXIT_USAGE
        assert rows == []
        assert err.startswith("impurity-stream: error: ")
        assert err.count("\n") == 1
        assert not output.exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("state")]
        # The message names the rejected flag or is the constructor's own,
        # and never lists a flag that was valid.
        with pytest.raises(ValueError) as constructor:
            construct()
        assert flag in err or err == f"impurity-stream: error: {constructor.value}\n"
        for valid in argv[2::2]:
            if valid != flag:
                assert valid not in err


class TestDiagnostics:
    def test_summary_on_stderr_by_default(self, cli, monkeypatch):
        monkeypatch.delenv("IMPURITY_STREAM_LOG", raising=False)
        _, _, err = cli(["run", "--mode", "exact"], input_lines=["a", "b", "a"])
        assert "events=3" in err
        assert "distinct_classes=2" in err

    def test_quiet_suppresses_summary(self, cli, monkeypatch):
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "quiet")
        code, rows, err = cli(["run", "--mode", "exact"], input_lines=["a"])
        assert code == EXIT_OK
        assert rows  # trace still emitted
        assert "events=" not in err

    def test_unknown_level_warns_and_defaults(self, cli, monkeypatch):
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "chatty")
        _, _, err = cli(["run", "--mode", "exact"], input_lines=["a"])
        assert "IMPURITY_STREAM_LOG" in err
        assert "events=1" in err

    def test_unknown_level_lines_exactly(self, cli, monkeypatch):
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "chatty")
        code, _, err = cli(["run", "--mode", "exact"], input_lines=["a", "b", "a"])
        assert code == EXIT_OK
        assert err == (
            "impurity-stream: WARNING: unknown IMPURITY_STREAM_LOG value 'chatty'; using 'info'\n"
            "impurity-stream: INFO: events=3 distinct_classes=2 gini=0.444444444 entropy=0.918295834\n"
        )

    def test_debug_resume_and_save_lines_exactly(self, cli, monkeypatch, tmp_path):
        first = tmp_path / "first.snap"
        second = tmp_path / "second.snap"
        code, _, _ = cli(
            ["run", "--mode", "window", "--window-size", "2", "--save-state", str(first)],
            input_lines=["a", "b", "a"],
        )
        assert code == EXIT_OK
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "debug")
        code, _, err = cli(
            ["run", "--mode", "window", "--load-state", str(first), "--save-state", str(second)],
            input_lines=["a", "b", "a"],
        )
        assert code == EXIT_OK
        lines = err.splitlines(keepends=True)
        assert len(lines) == 4
        assert lines[0] == f"impurity-stream: DEBUG: resumed window state from {first} at event 3\n"
        assert lines[1] == (
            "impurity-stream: DEBUG: config: RunConfig(mode='window', metric='both', window_size=None, "
            "alpha=None, refresh_period=None, emit_every=1, input_format='lines', csv_column=0)\n"
        )
        assert lines[2:] == [
            f"impurity-stream: DEBUG: saved window state to {second}\n",
            "impurity-stream: INFO: events=6 distinct_classes=2 gini=0.500000000 entropy=1.000000000\n",
        ]

    def test_missing_stderr_drops_diagnostics(self, cli, monkeypatch):
        # sys.stderr is None in a process with no console, such as under pythonw.
        monkeypatch.setattr(sys, "stderr", None)
        code, rows, _ = cli(["run", "--mode", "exact"], input_lines=["a", "b"])
        assert code == EXIT_OK
        assert rows == ["0\t0.000000000\t0.000000000", "1\t0.500000000\t1.000000000"]

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["run", "--mode", "window"], EXIT_USAGE),
            (["run"], EXIT_USAGE),
            (["run", "--mode", "exact", "--input", "no-such-file.txt"], EXIT_INPUT),
        ],
    )
    def test_missing_stderr_drops_errors(self, capsys, monkeypatch, argv, code):
        """With no stderr, error lines and usage go nowhere, not into the trace."""
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == code
        assert capsys.readouterr().out == ""

    def test_cli_import_leaves_logging_out(self):
        # A run needs none of these; dataclasses alone pulls in inspect, ast and tokenize.
        unused = ["logging", "dataclasses", "inspect", "pathlib"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys, impurity_stream.cli; print([m for m in {unused} if m in sys.modules])"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_parse_error_message_survives_quiet(self, cli, monkeypatch):
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "quiet")
        code, _, err = cli(["run", "--mode", "exact"], input_lines=[""])
        assert code == EXIT_INPUT
        assert "line 1" in err


class _FailingFlush(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestConsoleMain:
    """console_main ends the process with os._exit after one flush of each
    standard stream, so nothing may depend on the interpreter's teardown."""

    @pytest.fixture()
    def exits(self, monkeypatch):
        codes = []
        monkeypatch.setattr(os, "_exit", codes.append)
        return codes

    def _run(self, monkeypatch, code, stdout, stderr):
        monkeypatch.setattr("impurity_stream.cli.main", lambda: code)
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        console_main()

    def test_flushes_both_streams(self, monkeypatch, exits):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        out.write("0\t0.000000000\t0.000000000\n")
        err.write("impurity-stream: INFO: events=1")
        self._run(monkeypatch, EXIT_OK, out, err)
        assert exits == [EXIT_OK]
        assert out.buffer.getvalue() == b"0\t0.000000000\t0.000000000\n"
        assert err.buffer.getvalue() == b"impurity-stream: INFO: events=1"

    def test_failed_flush_after_success_is_one_error_line(self, monkeypatch, exits):
        err = io.StringIO()
        self._run(monkeypatch, EXIT_OK, _FailingFlush(), err)
        assert exits == [EXIT_INPUT]
        assert err.getvalue() == "impurity-stream: error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("code", [EXIT_USAGE, EXIT_INPUT])
    def test_failed_flush_keeps_an_earlier_failure(self, monkeypatch, exits, code):
        err = io.StringIO()
        self._run(monkeypatch, code, _FailingFlush(), err)
        assert exits == [code]
        assert err.getvalue() == ""

    def test_failed_stderr_flush_fails_the_run(self, monkeypatch, exits):
        self._run(monkeypatch, EXIT_OK, io.StringIO(), _FailingFlush())
        assert exits == [EXIT_INPUT]

    @pytest.mark.parametrize("missing", ["stdout", "stderr", "both"])
    def test_missing_streams_are_not_flushed(self, monkeypatch, exits, missing):
        # A process started with fd 1 or fd 2 closed has sys.stdout or
        # sys.stderr set to None.
        out = None if missing in ("stdout", "both") else io.StringIO()
        err = None if missing in ("stderr", "both") else io.StringIO()
        self._run(monkeypatch, EXIT_OK, out, err)
        assert exits == [EXIT_OK]

    @pytest.mark.parametrize(
        "mode", [["window", "--window-size", "1000"], ["fading", "--alpha", "0.999"], ["exact"]], ids=lambda m: m[0]
    )
    def test_process_writes_what_main_writes(self, tmp_path, capsys, mode):
        """Rows through a pipe, rows to --output and the saved state of a
        process are byte for byte those of main() in process."""
        rng = random.Random(19)
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"c{rng.randrange(50)}\n" for _ in range(20000)), encoding="utf-8")
        argv = ["run", "--mode", *mode, "--emit-every", "1", "--input", str(labels)]
        assert main([*argv, "--save-state", str(tmp_path / "main.snap")]) == EXIT_OK
        rows = capsys.readouterr().out.encode()
        assert rows.count(b"\n") == 20000

        piped = _spawn([*argv, "--save-state", str(tmp_path / "piped.snap")])
        assert piped.returncode == EXIT_OK, piped.stderr
        written = _spawn([*argv, "--output", str(tmp_path / "out.tsv"), "--save-state", str(tmp_path / "out.snap")])
        assert written.returncode == EXIT_OK, written.stderr
        assert piped.stdout == rows
        assert (tmp_path / "out.tsv").read_bytes() == rows
        state = (tmp_path / "main.snap").read_bytes()
        assert (tmp_path / "piped.snap").read_bytes() == state
        assert (tmp_path / "out.snap").read_bytes() == state

    def test_help_through_a_pipe(self, capsys):
        # main() flushes no stream after --help; console_main's flush writes it.
        assert main(["--help"]) == EXIT_OK
        proc = _spawn(["--help"])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_empty_run_imports_no_json_or_bench(self):
        # Without site, which imports random on some hosts; -X importtime
        # lists every module the process imports, up to its os._exit.
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "impurity_stream", "run", "--mode", "exact"],
            input=b"",
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "IMPURITY_STREAM_LOG": "info"},
        )
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_OK, err
        imported = {line.rpartition("|")[2].strip() for line in err.splitlines() if line.startswith("import time:")}
        assert {"impurity_stream.cli", "argparse"} <= imported
        assert imported.isdisjoint({"json", "impurity_stream.bench", "random", "array"})
        assert err.endswith("INFO: events=0 distinct_classes=0 gini=0.000000000 entropy=0.000000000\n")


_HANDOFF = 16384


def _labels_file(path, count, bad_line=None):
    """``count`` labels over 50 classes, one a line, with line ``bad_line``
    (counted from 1) left empty."""
    rng = random.Random(count)
    lines = [f"c{rng.randrange(50)}\n" for _ in range(count)]
    if bad_line is not None:
        lines[bad_line - 1] = "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _in_process_rows(cfg, path, estimator):
    """The rows run_stream writes to a text file from ``path``, formatted in
    this process, and the error it raised, if any."""
    out = io.StringIO()
    try:
        with open(path, "rb") as source:
            run_stream(cfg, source, out, estimator, Interner())
    except InputError as exc:
        return out.getvalue().encode(), str(exc)
    return out.getvalue().encode(), None


class TestRowWriter:
    """A CLI run that emits more than _HANDOFF rows to a file descriptor
    formats and writes the rest in a forked writer process: the same bytes,
    errors and states as one process."""

    @pytest.mark.parametrize(
        "mode,metric",
        [
            (["fading", "--alpha", "0.999"], "both"),
            (["fading", "--alpha", "0.999"], "gini"),
            (["fading", "--alpha", "0.999"], "entropy"),
            (["window", "--window-size", "1000"], "gini"),
            (["exact"], "entropy"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_rows_across_the_handoff_are_run_streams(self, tmp_path, mode, metric):
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF + 100)
        estimator = {"fading": lambda: FadingEstimator(0.999), "window": lambda: SlidingWindowEstimator(1000)}
        cfg = RunConfig(mode=mode[0], metric=metric)
        expected, _ = _in_process_rows(cfg, labels, estimator.get(mode[0], ExactEstimator)())
        assert expected.count(b"\n") == 2 * _HANDOFF + 100
        argv = ["run", "--mode", *mode, "--metric", metric, "--input", str(labels)]
        piped = _spawn(argv)
        written = _spawn([*argv, "--output", str(tmp_path / "out.tsv")])
        for proc in (piped, written):
            assert proc.returncode == EXIT_OK, proc.stderr
            assert proc.stderr.decode().count("\n") == 1
        assert piped.stdout == expected
        assert (tmp_path / "out.tsv").read_bytes() == expected

    @pytest.mark.parametrize("bad_line", [1000, _HANDOFF + 5000], ids=["before", "after"])
    def test_a_bad_line_ends_the_run_after_its_rows(self, tmp_path, bad_line):
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF, bad_line)
        cfg = RunConfig(mode="fading", alpha=0.999)
        expected, message = _in_process_rows(cfg, labels, FadingEstimator(0.999))
        assert expected.count(b"\n") == bad_line - 1
        state = tmp_path / "state.snap"
        state.write_bytes(b"old state\n")
        proc = _spawn(
            ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels), "--save-state", str(state)]
        )
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == expected
        assert proc.stderr.decode() == f"impurity-stream: error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt", "state.snap"]
        assert state.read_bytes() == b"old state\n"

    @pytest.mark.parametrize("redirect", [">/dev/full", ">&-"], ids=["dev-full", "closed-stdout"])
    def test_an_unwritable_stdout_is_one_error_line(self, tmp_path, redirect):
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF)
        state = tmp_path / "state.snap"
        state.write_bytes(b"old state\n")
        argv = ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels), "--save-state", str(state)]
        proc = _spawn(argv, redirect=redirect)
        err = proc.stderr.decode()
        assert proc.returncode == EXIT_INPUT, err
        assert err.startswith("impurity-stream: error:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt", "state.snap"]
        assert state.read_bytes() == b"old state\n"

    @pytest.mark.parametrize("keep", [10, 1_000_000], ids=["in-process", "writer"])
    def test_a_reader_that_stops_is_one_error_line(self, tmp_path, keep):
        """As ``| head -c KEEP``: the reader takes ``keep`` bytes and closes
        the pipe. 10 bytes end the run before the handoff; a million, about
        36000 rows, end it in the writer, whose error line and exit code the
        run reports in place of its own."""
        labels = _labels_file(tmp_path / "labels.txt", 3 * _HANDOFF)
        state = tmp_path / "state.snap"
        argv = ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels), "--save-state", str(state)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "impurity_stream", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_env(),
        )
        try:
            assert len(proc.stdout.read(keep)) == keep
            proc.stdout.close()
            err = proc.communicate(timeout=120)[1].decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert proc.returncode == EXIT_INPUT, err
        assert err == "impurity-stream: error: [Errno 32] Broken pipe\n"
        assert not state.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt"]

    def test_a_killed_run_ends_its_writer(self, tmp_path):
        """The writer reads its rows from a pipe that only the run writes to:
        when the run is killed, the writer meets the end of the pipe, writes
        the rows it has and exits, and the run's stdout reaches its end."""
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF).read_bytes()
        proc = subprocess.Popen(
            [sys.executable, "-m", "impurity_stream", "run", "--mode", "fading", "--alpha", "0.999"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        # Stdin is fed and stdout drained from threads, so neither pipe fills
        # whatever its size. The feeder finishes once the run has read every
        # label; stdin stays open, so the run then waits for more. The reader
        # finishes when stdout reaches its end. It reads the descriptor, not
        # the buffered file, so closing the file below never waits for it.
        chunks = []
        stdout = proc.stdout.fileno()

        def drain():
            while chunk := os.read(stdout, 65536):
                chunks.append(chunk)

        feeder = threading.Thread(target=proc.stdin.write, args=(labels,))
        reader = threading.Thread(target=drain, daemon=True)
        feeder.start()
        reader.start()
        try:
            feeder.join(timeout=120)
            assert not feeder.is_alive(), "the run stopped reading its stdin"
            deadline = time.monotonic() + 120
            while sum(chunk.count(b"\n") for chunk in chunks) <= _HANDOFF + 256:
                assert reader.is_alive(), "stdout ended before the writer wrote a row"
                assert time.monotonic() < deadline, "the writer wrote no row past the handoff"
                time.sleep(0.01)
            proc.kill()
            assert proc.wait(timeout=120) == -9
            reader.join(timeout=60)
            assert not reader.is_alive(), "stdout still open after the run was killed"
            assert b"".join(chunks).endswith(b"\n")
        finally:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()

    @pytest.mark.parametrize("rows,forks", [(_HANDOFF - 100, 0), (_HANDOFF + 100, 1)])
    def test_main_forks_once_past_the_handoff(self, tmp_path, monkeypatch, rows, forks):
        """main() in process forks, once, only when it emits more than
        _HANDOFF rows to a file descriptor; the rows are those of run_stream."""
        labels = _labels_file(tmp_path / "labels.txt", rows)
        expected, _ = _in_process_rows(RunConfig(mode="fading", alpha=0.999), labels, FadingEstimator(0.999))
        pids = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        argv = ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels), "--output", str(tmp_path / "out.tsv")]
        assert main(argv) == EXIT_OK
        assert len(pids) == forks
        assert (tmp_path / "out.tsv").read_bytes() == expected

    @pytest.mark.parametrize("platform", ["no-fork", "failed-fork", "no-descriptor"])
    def test_rows_stay_in_process_without_a_fork(self, tmp_path, monkeypatch, capsys, platform):
        """Where os.fork is missing or fails, or ``out`` has no descriptor,
        such as the stdout that capsys gives main(), the run writes every
        row itself."""
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF)
        expected, _ = _in_process_rows(RunConfig(mode="fading", alpha=0.999), labels, FadingEstimator(0.999))
        if platform == "no-fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked") if platform == "no-descriptor" else _eagain())
        argv = ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels)]
        if platform != "no-descriptor":
            argv += ["--output", str(tmp_path / "out.tsv")]
        assert main(argv) == EXIT_OK
        written = capsys.readouterr().out.encode()
        if platform != "no-descriptor":
            written = (tmp_path / "out.tsv").read_bytes()
        assert written == expected

    @pytest.mark.parametrize(
        "end,code,err",
        [
            (lambda: os._exit(3), 3, ""),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), EXIT_INPUT, "the row writer was ended by signal 9"),
        ],
        ids=["exit-3", "killed"],
    )
    def test_the_writers_end_is_the_runs(self, tmp_path, monkeypatch, capsys, end, code, err):
        """A writer that exits with a code has written its own error line, so
        the run exits with that code and writes none; one that a signal ends
        is named in the run's line. Either way no state is saved."""
        labels = _labels_file(tmp_path / "labels.txt", 2 * _HANDOFF)
        state = tmp_path / "state.snap"
        state.write_bytes(b"old state\n")
        # The forked writer runs this in place of its loop.
        monkeypatch.setattr("impurity_stream.cli._write_frames", lambda *args: end())
        argv = ["run", "--mode", "fading", "--alpha", "0.999", "--input", str(labels), "--save-state", str(state)]
        assert main([*argv, "--output", str(tmp_path / "out.tsv")]) == code
        assert capsys.readouterr().err == (f"impurity-stream: error: {err}\n" if err else "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt", "out.tsv", "state.snap"]
        assert state.read_bytes() == b"old state\n"


def _eagain():
    raise BlockingIOError(11, "Resource temporarily unavailable")


# A split run's window, refresh period and input length: the lines before
# the middle byte hold more than the window plus the split's minimum.
_W = ["--window-size", "500", "--refresh-every", "1000"]
_LINES = 40000


def _split_file(path, count=_LINES, fmt="lines", bad_line=None):
    """``count`` labels, one a line, as ``lines`` of 5 bytes or as the third
    column of ``csv``, with line ``bad_line`` (counted from 1) left empty.
    The labels of line i are drawn from 50 + i // 1000 classes, so that
    classes are first seen in both halves of a split run."""
    rng = random.Random(count)
    template = "%d,x,c%03d\n" if fmt == "csv" else "%.0sc%03d\n"
    lines = [template % (index, rng.randrange(50 + index // 1000)) for index in range(count)]
    if bad_line is not None:
        lines[bad_line - 1] = "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _split_line(data):
    """The number m of lines before the first line that starts past the
    middle byte of ``data``, where a split run splits."""
    return data.count(b"\n", 0, data.index(b"\n", len(data) // 2) + 1)


class TestSplitRun:
    """A window run over a regular file, with at most one row every 4
    events, observes the lines past its middle in a second process: the
    rows, errors, exit code and state are those of the same run in one
    process."""

    def _runs(self, tmp_path, monkeypatch, capsys, argv, stdin=None):
        """main(argv) with --output and --save-state, as it runs and with no
        os.fork: (exit code, rows, stderr, state, stdin offset, forks) of
        each, which but for the forks must be equal."""
        out, state = tmp_path / "out.tsv", tmp_path / "state.snap"
        argv = [*argv, "--output", str(out), "--save-state", str(state)]
        runs = []
        for fork in (True, False):
            pids = []
            with monkeypatch.context() as patch:
                if fork:
                    real = os.fork
                    patch.setattr(os, "fork", lambda: pids.append(real()) or pids[-1])
                else:
                    patch.delattr(os, "fork")
                out.unlink(missing_ok=True)
                state.write_bytes(b"old state\n")
                saved = os.dup(0)
                try:
                    if stdin is not None:
                        with open(stdin, "rb") as source:
                            os.dup2(source.fileno(), 0)
                    code = main(argv)
                    # Where the run leaves stdin's offset, which a file
                    # descriptor shared with a later process keeps.
                    offset = os.lseek(0, 0, os.SEEK_CUR) if stdin is not None else None
                finally:
                    os.dup2(saved, 0)
                    os.close(saved)
            captured = capsys.readouterr()
            assert captured.out == ""
            rows = out.read_bytes() if out.exists() else None
            runs.append((code, rows, captured.err, state.read_bytes(), offset, len(pids)))
        split, alone = runs
        assert split[:5] == alone[:5]
        assert alone[5] == 0
        return split[:4] + split[5:]

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_each_format_and_metric(self, tmp_path, monkeypatch, capsys, fmt, metric):
        labels = _split_file(tmp_path / "labels.txt", fmt=fmt)
        argv = ["run", "--mode", "window", *_W, "--metric", metric, "--emit-every", "7", "--input", str(labels)]
        if fmt == "csv":
            argv += ["--format", "csv", "--column", "2"]
        code, rows, err, _, forks = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forks) == (EXIT_OK, 1)
        assert rows.count(b"\n") == -(-_LINES // 7)
        assert err.startswith(f"impurity-stream: INFO: events={_LINES} ")

    @pytest.mark.parametrize(
        "every,lines,forks",
        # At --emit-every 4 over 4 * _LINES lines the writer starts in the
        # first half, and over 2 * _LINES while the second half's rows are
        # forwarded: three processes. Rows more often than every 4 events,
        # with the writer (1) or without it (3), keep the run in one process.
        [(1, _LINES, 1), (3, _LINES, 0), (4, 4 * _LINES, 2), (4, 2 * _LINES, 2), (7, _LINES, 1), (1000, _LINES, 1)],
    )
    def test_each_cadence(self, tmp_path, monkeypatch, capsys, every, lines, forks):
        labels = _split_file(tmp_path / "labels.txt", lines)
        argv = ["run", "--mode", "window", *_W, "--emit-every", str(every), "--input", str(labels)]
        code, rows, _, _, forked = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forked) == (EXIT_OK, forks)
        assert rows.count(b"\n") == -(-lines // every)

    @pytest.mark.parametrize("on_boundary", [True, False], ids=["on-boundary", "off-boundary"])
    def test_split_line_and_emit_boundary(self, tmp_path, monkeypatch, capsys, on_boundary):
        """Whether or not the first half's last event is emitted, the second
        half's first row is the next the cadence gives."""
        labels = _split_file(tmp_path / "labels.txt")
        m = _split_line(labels.read_bytes())
        every = next(e for e in range(4, m) if (m % e == 0) == on_boundary)
        argv = ["run", "--mode", "window", *_W, "--emit-every", str(every), "--input", str(labels)]
        code, rows, _, _, forks = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forks) == (EXIT_OK, 1)
        indexes = [int(row.split(b"\t")[0]) for row in rows.splitlines()]
        assert (m - 1 in indexes) == on_boundary

    def test_resumed_run_splits(self, tmp_path, monkeypatch, capsys):
        """A run resumed from a state splits after its own window's worth of
        lines, and saves the state that one process saves."""
        first = _split_file(tmp_path / "first.txt", 5000)
        resumed = tmp_path / "resumed.snap"
        assert main(["run", "--mode", "window", *_W, "--input", str(first), "--save-state", str(resumed)]) == EXIT_OK
        capsys.readouterr()
        labels = _split_file(tmp_path / "labels.txt")
        argv = ["run", "--mode", "window", "--emit-every", "7", "--load-state", str(resumed), "--input", str(labels)]
        code, rows, _, state, forks = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forks) == (EXIT_OK, 1)
        assert int(rows.splitlines()[0].split(b"\t")[0]) == 5000 + 7 - 5000 % 7 - 1
        whole = tmp_path / "whole.txt"
        whole.write_bytes(first.read_bytes() + labels.read_bytes())
        alone = tmp_path / "alone.snap"
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            argv = ["run", "--mode", "window", *_W, "--input", str(whole), "--output", os.devnull]
            assert main([*argv, "--save-state", str(alone)]) == EXIT_OK
        capsys.readouterr()
        assert state == alone.read_bytes()

    @pytest.mark.parametrize("where", ["before", "warm-up", "after"])
    def test_a_bad_line(self, tmp_path, monkeypatch, capsys, where):
        """A bad line before the split line stops the first half; one among
        the second half's window lines, which it observes without rows, too;
        one past it ends the run after the second half's rows before it."""
        m = _split_line(_split_file(tmp_path / "labels.txt").read_bytes())
        bad_line = {"before": 5000, "warm-up": m - 10, "after": m + 5000}[where]
        labels = _split_file(tmp_path / "labels.txt", bad_line=bad_line)
        argv = ["run", "--mode", "window", *_W, "--emit-every", "4", "--input", str(labels)]
        code, rows, err, state, forks = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forks) == (EXIT_INPUT, 1)
        assert err == f"impurity-stream: error: line {bad_line}: empty label\n"
        assert rows.count(b"\n") == (bad_line - 1) // 4
        assert state == b"old state\n"

    @pytest.mark.parametrize("where", ["split-chunk", "past-it"])
    def test_a_bad_utf8_byte(self, tmp_path, monkeypatch, capsys, where):
        """A bad byte in the chunk that holds the split line fails that read
        in the first half; one past it makes the second process refuse the
        input, and the first half reads on alone to the error."""
        data = bytearray(_split_file(tmp_path / "labels.txt").read_bytes())
        m = _split_line(data)
        start = data.index(b"\n", len(data) // 2) + 1  # line m, 5 bytes a line
        at = {"split-chunk": start + 5, "past-it": 3 * len(data) // 4}[where]
        assert (at // 8192 == start // 8192) == (where == "split-chunk")
        data[at] = 0xFF
        (tmp_path / "labels.txt").write_bytes(data)
        argv = ["run", "--mode", "window", *_W, "--emit-every", "1000", "--input", str(tmp_path / "labels.txt")]
        code, rows, err, state, forks = self._runs(tmp_path, monkeypatch, capsys, argv)
        assert (code, forks) == (EXIT_INPUT, 1)
        assert err.startswith("impurity-stream: error: input is not valid UTF-8: ") and err.count("\n") == 1
        assert rows.count(b"\n") == (at // 8192 * 8192 // 5) // 1000
        assert state == b"old state\n"
        assert m < at // 5

    def test_stdin_from_a_regular_file_splits(self, tmp_path, monkeypatch, capsys):
        labels = _split_file(tmp_path / "labels.txt")
        argv = ["run", "--mode", "window", *_W, "--emit-every", "7"]
        code, rows, _, _, forks = self._runs(tmp_path, monkeypatch, capsys, argv, stdin=labels)
        assert (code, forks) == (EXIT_OK, 1)
        assert rows == self._runs(tmp_path, monkeypatch, capsys, [*argv, "--input", str(labels)])[1]

    @pytest.mark.parametrize(
        "case", ["crlf", "lone-cr", "shorter-than-window", "window-of-a-tenth", "stdin-pipe", "fading", "exact"]
    )
    def test_inputs_that_never_fork(self, tmp_path, monkeypatch, capsys, case):
        """A "\\r" before the split line, fewer lines before it than three
        windows and 16384 more, a pipe and any mode but window keep the run
        in one process: the rows are run_stream's."""
        data = _split_file(tmp_path / "labels.txt").read_bytes()
        argv = ["run", "--mode", "window", *_W]
        estimator = SlidingWindowEstimator(500, 1000)
        if case == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif case == "lone-cr":
            data = data[:1003] + b"\r" + data[1004:]  # a line ended by "\r" alone
        elif case == "shorter-than-window":
            argv[4] = str(_LINES + 1)
            estimator = SlidingWindowEstimator(_LINES + 1, 1000)
        elif case == "window-of-a-tenth":
            argv[4] = str(_LINES // 10)
            estimator = SlidingWindowEstimator(_LINES // 10, 1000)
        elif case == "fading":
            argv[2:] = ["fading", "--alpha", "0.999"]
            estimator = FadingEstimator(0.999)
        elif case == "exact":
            argv[2:] = ["exact"]
            estimator = ExactEstimator()
        labels = tmp_path / "labels.txt"
        labels.write_bytes(data)
        cfg = RunConfig(mode=argv[2], emit_every=1000)
        expected, _ = _in_process_rows(cfg, labels, estimator)
        assert expected.count(b"\n") == _LINES // 1000
        pids = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: pids.append(real()) or pids[-1])
        argv += ["--emit-every", "1000", "--output", str(tmp_path / "out.tsv")]
        saved = os.dup(0)
        try:
            if case == "stdin-pipe":
                read_end, write_end = os.pipe()
                feeder = threading.Thread(target=lambda: (os.write(write_end, data), os.close(write_end)))
                feeder.start()
                os.dup2(read_end, 0)
                os.close(read_end)
                assert main(argv) == EXIT_OK
                feeder.join()
            else:
                assert main([*argv, "--input", str(labels)]) == EXIT_OK
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        capsys.readouterr()
        assert pids == []
        assert (tmp_path / "out.tsv").read_bytes() == expected

    def test_a_failed_fork_runs_in_one_process(self, tmp_path, monkeypatch, capsys):
        labels = _split_file(tmp_path / "labels.txt")
        cfg = RunConfig(mode="window", emit_every=7)
        expected, _ = _in_process_rows(cfg, labels, SlidingWindowEstimator(500, 1000))
        monkeypatch.setattr(os, "fork", _eagain)
        argv = ["run", "--mode", "window", *_W, "--emit-every", "7", "--input", str(labels)]
        assert main([*argv, "--output", str(tmp_path / "out.tsv")]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "out.tsv").read_bytes() == expected

    @pytest.mark.parametrize(
        "end,err",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "the run's second process was ended by signal 9"),
            (lambda: os._exit(3), "the run's second process exited with code 3"),
        ],
        ids=["killed", "exit-3"],
    )
    def test_the_second_process_ending_early_is_one_error_line(self, tmp_path, monkeypatch, capsys, end, err):
        labels = _split_file(tmp_path / "labels.txt")
        state = tmp_path / "state.snap"
        state.write_bytes(b"old state\n")
        # The forked second process runs this in place of its half.
        monkeypatch.setattr("impurity_stream.cli._second_half", lambda *args: end())
        argv = ["run", "--mode", "window", *_W, "--emit-every", "7", "--input", str(labels), "--save-state", str(state)]
        assert main([*argv, "--output", str(tmp_path / "out.tsv")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"impurity-stream: error: {err}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.txt", "out.tsv", "state.snap"]
        assert state.read_bytes() == b"old state\n"

    @pytest.mark.parametrize("half", ["first", "second"])
    def test_a_failed_refresh_is_one_error_line(self, tmp_path, monkeypatch, capsys, half):
        """Each half checks its sums at its own refreshes; a mismatch in
        either ends the run with one line, exit 2 and no state saved."""
        labels = _split_file(tmp_path / "labels.txt")
        state = tmp_path / "state.snap"
        state.write_bytes(b"old state\n")
        first = os.getpid()
        real = SlidingWindowEstimator._sums_of_counts
        wrong = (lambda pid: True) if half == "first" else (lambda pid: pid != first)
        monkeypatch.setattr(SlidingWindowEstimator, "_sums_of_counts", lambda self: real(self) + wrong(os.getpid()))
        argv = ["run", "--mode", "window", *_W, "--emit-every", "4", "--input", str(labels), "--save-state", str(state)]
        assert main([*argv, "--output", str(tmp_path / "out.tsv")]) == EXIT_INPUT
        message = "the window's sums do not match its class counts at a refresh"
        assert capsys.readouterr().err == f"impurity-stream: error: {message}\n"
        assert state.read_bytes() == b"old state\n"
        # The first half's first refresh is at line 1000; the second half's
        # past the split line.
        rows = (tmp_path / "out.tsv").read_bytes().count(b"\n")
        assert 4 * rows < 1000 if half == "first" else 4 * rows >= _split_line(labels.read_bytes())

    def test_a_killed_run_leaves_no_process(self, tmp_path):
        """Killed while its rows fill stdout, the run leaves its row writer and
        second process to meet the ends of their pipes: once stdout is read,
        every process that holds it has exited."""
        labels = _split_file(tmp_path / "labels.txt", 10 * _LINES)
        argv = ["run", "--mode", "window", *_W, "--emit-every", "4", "--input", str(labels)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "impurity_stream", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        try:
            # Nothing reads stdout yet, so the run stops in its first half.
            assert proc.stdout.peek(1)
            time.sleep(0.5)
            assert proc.poll() is None
            proc.kill()
            assert proc.wait(timeout=120) == -9
            chunks = []
            reader = threading.Thread(target=lambda: chunks.extend(iter(proc.stdout.read1, b"")), daemon=True)
            reader.start()
            reader.join(timeout=120)
            assert not reader.is_alive(), "stdout still open after the run was killed"
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()


class TestExternalEntryPoints:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "impurity_stream", "run", "--mode", "exact"],
            input="a\nb\n",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "1\t0.500000000\t1.000000000"

    def test_console_script_installed(self, tmp_path):
        """The `impurity-stream` entry point declared in pyproject.toml runs.

        The checkout is not necessarily installed, so the test writes the
        wrapper an installer generates for the declared entry point and runs
        it against `src/`. An installed `impurity-stream` on PATH is run too.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["impurity-stream"]
        module, _, func = entry.partition(":")
        script = tmp_path / "impurity-stream"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = 'impurity-stream'\n"
            f"    sys.exit({func}())\n",
            encoding="utf-8",
        )
        script.chmod(0o755)
        pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        self._check_fading_run(str(script), env)

        installed = shutil.which("impurity-stream")
        if installed:
            self._check_fading_run(installed, None)

    @staticmethod
    def _check_fading_run(exe, env):
        proc = subprocess.run(
            [exe, "run", "--mode", "fading", "--alpha", "1.0"],
            input="a\nb\n",
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, f"{exe} exited {proc.returncode}: {proc.stderr}"
        assert proc.stdout.splitlines()[-1] == "1\t0.500000000\t1.000000000"
