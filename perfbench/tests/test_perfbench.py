"""Tests of the benchmark itself, on scaled-down workloads.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {
    name: replace(w, events=3000, drift_every=1000, emit_every=min(w.emit_every, 10))
    for name, w in workloads.WORKLOADS.items()
}


@pytest.fixture(scope="module", autouse=True)
def built():
    run.build()


@pytest.fixture
def workdir(request):
    path = run.WORK / "tests" / request.node.name.replace("[", "-").strip("]")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def small_workloads(monkeypatch):
    for name, w in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, w)


def test_benchmark_json_lists_the_workloads():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_generator_is_deterministic_per_seed(workdir):
    w = SMALL["window-resume"]
    first, first_files = workloads.prepare(w, 7, workdir / "a")
    again, again_files = workloads.prepare(w, 7, workdir / "b")
    other, _ = workloads.prepare(w, 8, workdir / "c")
    assert first == again
    assert [p.read_bytes() for p in first_files] == [p.read_bytes() for p in again_files]
    assert first != other
    assert len(first_files) == w.parts and len(first) == w.events


@pytest.mark.parametrize("name", ["window-zipf", "fading-emit-all"])
def test_checker_counts_each_bad_row_once(workdir, name):
    w = SMALL[name]
    labels, inputs = workloads.prepare(w, 3, workdir)
    with run.Launcher() as launcher:
        _, _, failed_parts, trace = run.Runner(launcher, w, workdir, inputs).stream()
    indices = oracle.emit_indices(w.events, w.emit_every, w.part_ends())
    reference = oracle.reference_for(w, oracle.intern_ids(labels), indices)
    tolerance = oracle.tolerance_for(w)
    assert failed_parts == 0
    assert oracle.count_failures(trace, reference, tolerance) == 0

    rows = trace.splitlines()
    index, gini, entropy = rows[5].split("\t")
    perturbed = rows.copy()
    perturbed[5] = f"{index}\t{float(gini) + 1e-8:.9f}\t{entropy}"
    assert oracle.count_failures("\n".join(perturbed), reference, tolerance) == 1
    assert oracle.count_failures("\n".join(rows[:7] + rows[8:]), reference, tolerance) == 1
    assert oracle.count_failures("\n".join(rows[:7] + rows[6:]), reference, tolerance) == 1


def test_peak_rss_excludes_the_drivers_memory(workdir):
    w = SMALL["window-zipf"]
    _, inputs = workloads.prepare(w, 4, workdir)
    with run.Launcher() as launcher:
        alone = run.Runner(launcher, w, workdir, inputs).stream()[1]
        ballast = b"\x01" * (96 << 20)
        beside_ballast = run.Runner(launcher, w, workdir, inputs).stream()[1]
        with run.Launcher() as late:
            from_late_launcher = run.Runner(late, w, workdir, inputs).stream()[1]
        # A child forked straight from the driver is charged the driver's size.
        argv = run.program_argv(w.run_args(0, inputs[0], workdir / "direct.tsv", workdir))
        env = dict(os.environ, PYTHONPATH=str(run.BUILD))
        pid = os.spawnve(os.P_NOWAIT, argv[0], argv, env)
        _, status, usage = os.wait4(pid, 0)
        del ballast
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss / 1024 > 96
    assert alone < 64
    assert abs(beside_ballast - alone) < 2
    assert abs(from_late_launcher - alone) < 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_printed_metrics_are_declared(small_workloads, capsys, name, trace):
    args = ["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {key: metric["unit"] for key, metric in out["metrics"].items()} == declared
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_nonzero_at_full_size(capsys, name, trace):
    args = ["--workload", name, "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["correct"]
    assert [key for key, metric in out["metrics"].items() if not metric["value"] > 0] == []


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
