"""End-to-end CLI behavior: traces, formats, exit codes, resume, logging."""

from __future__ import annotations

import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from impurity_stream import ExactEstimator, FadingEstimator, Interner, SlidingWindowEstimator
from impurity_stream.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    FORMATS,
    METRICS,
    MODES,
    InputError,
    RunConfig,
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
            [],
        ],
    )
    def test_bad_invocations_exit_one(self, cli, argv):
        code, _, err = cli(argv)
        assert code == EXIT_USAGE
        assert "error" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["run", "--help"]) == EXIT_OK
        capsys.readouterr()


class TestStdinStdout:
    def test_dash_input_reads_stdin(self, cli, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\n"))
        code, rows, _ = cli(["run", "--mode", "exact"])
        assert code == EXIT_OK
        assert rows[-1] == "1\t0.500000000\t1.000000000"


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


def _window_id_beyond_labels(lines):
    # window [0, 1, 0] -> [0, 7, 0]: id 7 names no label.
    lines[lines.index("window [0,1,0]")] = "window [0,7,0]"


def _window_beyond_capacity(lines):
    # Four events in a window of 3, with the event count to match.
    lines[lines.index("events 3")] = "events 4"
    lines[lines.index("window [0,1,0]")] = "window [0,1,0,1]"


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
        _replace_line("counts [2,1]", "counts [2,0,0,0,0,0,0,1]"),
        id="fading-id-beyond-labels",
    ),
    pytest.param(
        ["exact"],
        _replace_line("counts [2,1]", "counts [2,0,0,0,0,0,0,1]"),
        id="exact-id-beyond-labels",
    ),
    pytest.param(["exact"], _replace_line("counts [2,1]", "counts [-1,4]"), id="exact-negative-mass"),
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
    # Non-finite floats: a NaN g would read as Gini 0 from then on.
    pytest.param(["fading", "--alpha", "0.9"], _replace_field("g", "nan"), id="fading-g-nan"),
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
        assert "window [0,1,0]" in lines
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

    def test_unwritable_save_path_fails_before_any_row(self, cli, tmp_path):
        target = tmp_path / "missing-dir" / "state.snap"
        code, rows, err = cli(
            ["run", "--mode", "exact", "--save-state", str(target)], input_lines=["a", "b"]
        )
        assert code == EXIT_INPUT
        assert rows == []
        assert err.startswith("impurity-stream: error:")
        assert err.count("\n") == 1

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
        assert lines[1].startswith("impurity-stream: DEBUG: config: ")
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

    def test_cli_import_leaves_logging_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", "import sys, impurity_stream.cli; print('logging' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_parse_error_message_survives_quiet(self, cli, monkeypatch):
        monkeypatch.setenv("IMPURITY_STREAM_LOG", "quiet")
        code, _, err = cli(["run", "--mode", "exact"], input_lines=[""])
        assert code == EXIT_INPUT
        assert "line 1" in err


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
