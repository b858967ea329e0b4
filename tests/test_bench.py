"""Benchmark harness structure (the timing claims live in the acceptance suite)."""

from __future__ import annotations

import pytest

from impurity_stream import ExactEstimator, FadingEstimator
from impurity_stream.bench import (
    BENCH_MODES,
    BenchResult,
    format_report,
    generate_labels,
    run_bench,
)


def test_generate_labels_is_deterministic():
    assert generate_labels(5, 100, seed=42) == generate_labels(5, 100, seed=42)
    assert generate_labels(5, 100, seed=42) != generate_labels(5, 100, seed=43)
    assert set(generate_labels(3, 1000, seed=1)) == {0, 1, 2}


def test_run_bench_times_all_modes():
    results = run_bench(3, 2000, repeat=1)
    assert [r.mode for r in results] == list(BENCH_MODES)
    for r in results:
        assert r.classes == 3
        assert r.events == 2000
        assert r.ns_per_event > 0.0


def test_run_bench_times_observe_block(monkeypatch):
    # The window is left alone: its observe_block calls its observe for
    # every one-label run, which is every run at a row per event.
    def observe(self, label):
        raise AssertionError("observe() was timed")

    monkeypatch.setattr(FadingEstimator, "observe", observe)
    monkeypatch.setattr(ExactEstimator, "observe", observe)
    results = run_bench(3, 2000, modes=["fading", "recompute"], repeat=1)
    assert [r.mode for r in results] == ["fading", "recompute"]


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError):
        run_bench(1, 2000)
    with pytest.raises(ValueError):
        run_bench(3, 2000, repeat=0)
    with pytest.raises(ValueError, match="at least one event"):
        run_bench(3, 0)
    with pytest.raises(ValueError):
        run_bench(3, 2000, modes=["imaginary"])


def test_report_is_parseable_tsv():
    results = [
        BenchResult("window", 10, 1000, 900.0),
        BenchResult("recompute", 10, 1000, 4500.0),
    ]
    report = format_report(results)
    lines = report.strip().splitlines()
    assert lines[0].split("\t") == [
        "mode",
        "classes",
        "events",
        "ns_per_event",
        "speedup_vs_recompute",
    ]
    window_row = lines[1].split("\t")
    assert window_row[:3] == ["window", "10", "1000"]
    assert float(window_row[4]) == pytest.approx(5.0, abs=0.01)


def test_report_without_baseline_leaves_ratio_blank():
    report = format_report([BenchResult("fading", 10, 1000, 900.0)])
    assert report.splitlines()[1].endswith("\t")


def test_cli_bench_smoke(capsys):
    from impurity_stream.cli import EXIT_OK, main

    code = main(
        ["bench", "--classes", "2", "--events", "10000", "--modes", "fading", "--repeat", "1"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("mode\t")
    assert lines[1].startswith("fading\t2\t10000\t")
