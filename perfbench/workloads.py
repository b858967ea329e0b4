"""Benchmark workloads and their seeded, stdlib-only input generator.

Every workload is a label stream drawn from a Zipf law over a fixed set of
classes. Every ``drift_every`` events the class ranks are reshuffled, so the
head of the distribution moves to other classes the way real streams drift.
The same (workload, seed) pair always writes the same files; the program
under test sees only those files.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    classes: int
    zipf_s: float
    emit_every: int
    events: int = 500_000
    drift_every: int = 100_000
    window_size: Optional[int] = None
    refresh_every: int = 0
    alpha: Optional[float] = None
    csv: bool = False
    # The stream is cut into this many parts, each run by its own process
    # that resumes from the state the previous one saved.
    parts: int = 1

    def part_events(self, part: int) -> int:
        base, extra = divmod(self.events, self.parts)
        return base + (1 if part < extra else 0)

    def part_ends(self) -> List[int]:
        """Event count at the end of each part."""
        return list(accumulate(self.part_events(part) for part in range(self.parts)))

    def run_args(self, part: int, input_path: Path, output_path: Path, state_dir: Path) -> List[str]:
        """Arguments of ``impurity-stream`` for one part of the stream."""
        args = ["run", "--mode", self.mode, "--emit-every", str(self.emit_every)]
        if part == 0:
            if self.mode == "window":
                args += ["--window-size", str(self.window_size)]
                if self.refresh_every:
                    args += ["--refresh-every", str(self.refresh_every)]
            else:
                args += ["--alpha", repr(self.alpha)]
        else:
            args += ["--load-state", str(state_path(state_dir, part - 1))]
        if self.csv:
            args += ["--format", "csv", "--column", "2"]
        args += ["--input", str(input_path), "--output", str(output_path)]
        if self.parts > 1:
            args += ["--save-state", str(state_path(state_dir, part))]
        return args


def state_path(state_dir: Path, part: int) -> Path:
    return state_dir / f"part{part}.state"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="window-zipf",
            why=(
                "window w=1000 with refresh, 1000 Zipf classes, a row per 1000 events: "
                "the window estimator's observe is most of the run"
            ),
            mode="window",
            classes=1000,
            zipf_s=1.1,
            emit_every=1000,
            window_size=1000,
            refresh_every=10_000,
        ),
        Workload(
            name="fading-emit-all",
            why=(
                "fading alpha=0.999, 50 uniform classes, a row per event: row formatting "
                "and writing dominate; window and state transitions are bypassed"
            ),
            mode="fading",
            classes=50,
            zipf_s=0.0,
            emit_every=1,
            alpha=0.999,
        ),
        Workload(
            name="window-resume",
            why=(
                "window w=50000 without refresh, ~20k classes, CSV input, run as 10 "
                "processes chained by save/load state: start-up and snapshots show"
            ),
            mode="window",
            classes=20_000,
            zipf_s=1.0,
            emit_every=1000,
            window_size=50_000,
            csv=True,
            parts=10,
        ),
    )
}


def generate_labels(workload: Workload, seed: int) -> List[str]:
    """The workload's label stream for ``seed``; deterministic per seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    names = [f"c{class_id}" for class_id in range(workload.classes)]
    cum_weights = list(accumulate(1.0 / (rank + 1) ** workload.zipf_s for rank in range(workload.classes)))
    labels: List[str] = []
    for start in range(0, workload.events, workload.drift_every):
        rng.shuffle(names)
        size = min(workload.drift_every, workload.events - start)
        labels += rng.choices(names, cum_weights=cum_weights, k=size)
    return labels


def write_inputs(workload: Workload, labels: List[str], directory: Path) -> List[Path]:
    """Write one input file per part; CSV rows carry the label in column 2."""
    paths = []
    start = 0
    for part in range(workload.parts):
        size = workload.part_events(part)
        chunk = labels[start : start + size]
        if workload.csv:
            rows = [f"{i},u{i * 7919 % 4099},{label},{i % 1000}" for i, label in enumerate(chunk, start)]
        else:
            rows = chunk
        path = directory / f"part{part}.{'csv' if workload.csv else 'txt'}"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(path)
        start += size
    return paths


def prepare(workload: Workload, seed: int, workdir: Path):
    """Empty ``workdir`` and write the workload's inputs for ``seed`` into it.

    Returns the label stream and the input file of each part.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    labels = generate_labels(workload, seed)
    return labels, write_inputs(workload, labels, workdir)
