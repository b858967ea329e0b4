"""End-to-end CLI behavior: traces, formats, exit codes, resume, logging."""

from __future__ import annotations

import inspect
import io
import os
import random
import shutil
import subprocess
import sys
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


def _spawn(argv, data=b"", redirect="", cwd=None):
    """Run the CLI in a new process with ``data`` on its stdin; ``redirect``
    is a shell redirection, such as ``<&-``, applied to it. Its stdout is a
    pipe, block-buffered whatever PYTHONUNBUFFERED says here."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "IMPURITY_STREAM_LOG": "info"}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        ["sh", "-c", f'"$@" {redirect}', "sh", sys.executable, "-m", "impurity_stream", *argv],
        input=data,
        capture_output=True,
        cwd=cwd,
        env=env,
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
