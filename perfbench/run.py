#!/usr/bin/env python3
"""Benchmark of whole ``impurity-stream run`` processes over generated files.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` this driver runs the workload's command, one child
process at a time (a closed loop with one client), until ``--seconds`` have
passed. It checks every trace against an independent reference and reports
end-to-end metrics as medians over the repetitions:

    events_per_s   events / wall time of all the workload's processes, the
                   wall time of each process taken as its median
    setup_s        wall time of the workload's command over empty input
    peak_rss_mib   largest peak RSS of any of the workload's processes

With ``--trace 1`` it runs the same inputs in-process through timing
wrappers and reports per-layer metrics instead (see layers.py).

The last line of standard output is one JSON object with ``correct``,
``attempted`` (trace rows expected), ``failed`` (rows wrong, missing or extra,
plus processes that failed) and ``metrics``. Work files go to
``.bench_build/perfbench/`` in the checkout, which must hold ``src/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import List, Sequence

import layers
import oracle
from workloads import WORKLOADS, Workload, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# The measured copy of the package, with its bytecode beside it.
BUILD = ROOT / ".bench_build" / "src"

UNITS = {"events_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 15
SETUP_PER_STREAM = 3
# A run must end within 180 s; children still running this long after the
# launcher started are killed.
RUN_LIMIT_S = 170


def program_argv(args: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "impurity_stream", *args]


@dataclass
class Child:
    exit_code: int
    wall_s: float
    peak_rss_mib: float


class Launcher:
    """Runs children through launcher.py, so their peak RSS is their own."""

    def __init__(self) -> None:
        self._deadline = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ, PYTHONPATH=str(BUILD))
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def run(self, argv: Sequence[str], stdin: Path, stdout: Path, stderr: Path) -> Child:
        timeout = max(1, int(self._deadline - time.monotonic()))
        request = [str(timeout), str(stdin), str(stdout), str(stderr), *argv]
        self._proc.stdin.write("\0".join(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        status, wall_ns, maxrss_kib = map(int, reply.split())
        return Child(os.waitstatus_to_exitcode(status), wall_ns / 1e9, maxrss_kib / 1024)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Runner:
    """The workload's processes, run through one launcher in ``workdir``."""

    def __init__(self, launcher: Launcher, workload: Workload, workdir: Path, inputs: List[Path]):
        self.launcher = launcher
        self.workload = workload
        self.workdir = workdir
        self.inputs = inputs
        self.empty = workdir / "empty.input"
        self.empty.touch()

    def child(self, args: Sequence[str]) -> Child:
        return self.launcher.run(
            program_argv(args), self.empty, self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        )

    def stream(self):
        """Run every part in order; returns (wall_s of each part, peak_rss_mib, failed_parts, trace)."""
        walls = []
        rss = 0.0
        failed = 0
        trace = []
        for part, path in enumerate(self.inputs):
            out = self.workdir / f"out{part}.tsv"
            out.unlink(missing_ok=True)
            child = self.child(self.workload.run_args(part, path, out, self.workdir))
            walls.append(child.wall_s)
            rss = max(rss, child.peak_rss_mib)
            if child.exit_code != 0:
                failed += 1
                report_child_error(child, self.workdir)
            trace.append(out.read_text(encoding="utf-8") if out.exists() else "")
        return walls, rss, failed, "".join(trace)

    def uninterrupted(self) -> str:
        """Trace of the whole stream run by one process, for the resume check."""
        whole = self.workdir / "whole.input"
        with whole.open("wb") as dst:
            for path in self.inputs:
                dst.write(path.read_bytes())
        single = replace(self.workload, parts=1)
        out = self.workdir / "whole.tsv"
        child = self.child(single.run_args(0, whole, out, self.workdir))
        if child.exit_code != 0:
            report_child_error(child, self.workdir)
        return out.read_text(encoding="utf-8") if out.exists() else ""

    def setup(self):
        """The command of a mid-stream part over empty input: (wall_s, ok)."""
        out = self.workdir / "setup.tsv"
        out.unlink(missing_ok=True)
        part = self.workload.parts // 2
        child = self.child(self.workload.run_args(part, self.empty, out, self.workdir))
        ok = child.exit_code == 0 and out.exists() and out.stat().st_size == 0
        if child.exit_code != 0:
            report_child_error(child, self.workdir)
        return child.wall_s, ok


def report_child_error(child: Child, workdir: Path) -> None:
    message = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    print(f"child exited with {child.exit_code}: {message.strip()}", file=sys.stderr)


def measure(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics of one workload, tracing off: (rows expected, rows failed, values)."""
    workdir = WORK / workload.name
    labels, inputs = prepare(workload, seed, workdir)
    ids = oracle.intern_ids(labels)
    del labels
    indices = oracle.emit_indices(workload.events, workload.emit_every, workload.part_ends())
    reference = oracle.reference_for(workload, ids, indices)
    tolerance = oracle.tolerance_for(workload)

    walls: List[List[float]] = []  # per stream, the wall time of each part
    peaks: List[float] = []
    setups: List[float] = []
    attempted = failed = 0
    checked = None  # (trace, failures) of the last trace checked in full
    with Launcher() as launcher:
        runner = Runner(launcher, workload, workdir, inputs)
        # Warm-up, untimed: for a chained workload, the uninterrupted run its
        # trace must match byte for byte; otherwise one start-up.
        whole = runner.uninterrupted() if workload.parts > 1 else None
        if whole is None:
            runner.setup()

        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            part_walls, rss, failed_parts, trace = runner.stream()
            walls.append(part_walls)
            peaks.append(rss)
            if checked is None or trace != checked[0]:
                failures = oracle.count_failures(trace, reference, tolerance)
                if whole is not None:
                    failures += sum(a != b for a, b in zip_longest(trace.splitlines(), whole.splitlines()))
                checked = (trace, failures)
            attempted += len(indices)
            failed += checked[1] + failed_parts
            # Set-up samples are spread over the run like the stream runs.
            for _ in range(SETUP_PER_STREAM):
                wall, ok = runner.setup()
                setups.append(wall)
                failed += not ok
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break

        while len(setups) < SETUP_SAMPLES:
            wall, ok = runner.setup()
            setups.append(wall)
            failed += not ok

    # Each part's median wall time over the streams, summed: a part that ran
    # while the host was slow weighs no more than a median part.
    values = {
        "events_per_s": workload.events / sum(map(statistics.median, zip(*walls))),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(peaks),
    }
    print(
        f"{workload.name}: {len(walls)} runs of {workload.events} events at "
        + ", ".join(f"{workload.events / sum(stream):.0f}" for stream in walls)
        + f" events/s; {len(setups)} set-ups",
        file=sys.stderr,
    )
    return attempted, failed, values


def build() -> None:
    """Copy the package to BUILD and compile its bytecode there, as installing
    it does. No measured process compiles it then, even where
    PYTHONDONTWRITEBYTECODE is set, and nothing is written under src/."""
    shutil.rmtree(BUILD, ignore_errors=True)
    shutil.copytree(SRC / "impurity_stream", BUILD / "impurity_stream", ignore=shutil.ignore_patterns("__pycache__"))
    compileall.compile_dir(str(BUILD / "impurity_stream"), quiet=1)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object printed as the last line."""
    build()
    if trace:
        attempted, failed, values = layers.traced(workload, seed, seconds, WORK / workload.name, BUILD)
        units = layers.UNITS
    else:
        attempted, failed, values = measure(workload, seed, seconds)
        units = UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "impurity_stream" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'impurity_stream'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in out["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
