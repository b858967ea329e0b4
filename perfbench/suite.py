#!/usr/bin/env python3
"""Run every workload, interleaved round by round, and print every metric.

    python3 perfbench/suite.py [--rounds 3] [--seconds S]

Round r runs each workload once, tracing off, with seed ``1 + r``; then one
traced run per workload, with seed 1, gives the per-layer metrics. For each
workload the suite prints every metric by name, with its unit: the median
over the rounds for the end-to-end metrics, and the traced run's value for
the per-layer ones. It also prints the error
rate (failed / attempted trace rows) and exits 1 when that rate is above 0.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Sequence

import run
from workloads import WORKLOADS

SEED = 1


def main(argv: Sequence[str] | None = None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if not (run.SRC / "impurity_stream" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {run.SRC}", file=sys.stderr)
        return 2

    results: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
    for round_ in range(args.rounds):
        for name, workload in WORKLOADS.items():
            results[name].append(run.run_workload(workload, SEED + round_, args.seconds, trace=False))
    traced = {name: run.run_workload(workload, SEED, args.seconds, trace=True) for name, workload in WORKLOADS.items()}

    any_failed = False
    for name, outs in results.items():
        runs = outs + [traced[name]]
        attempted = sum(out["attempted"] for out in runs)
        failed = sum(out["failed"] for out in runs)
        any_failed |= failed > 0
        print(f"{name} error_rate {failed / attempted:.6g} ({failed} of {attempted} trace rows failed)")
        for metric, first in outs[0]["metrics"].items():
            values = [out["metrics"][metric]["value"] for out in outs]
            rounds = ", ".join(f"{value:.6g}" for value in values)
            print(f"{name} {metric} {statistics.median(values):.6g} {first['unit']} (rounds: {rounds})")
        for metric, value in traced[name]["metrics"].items():
            print(f"{name} {metric} {value['value']:.6g} {value['unit']}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
