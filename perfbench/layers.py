"""Per-layer metrics of one workload, from an in-process traced run.

The traced run feeds the workload's generated input files through the
package's own ``run_stream``, chained by ``save_snapshot``/``load_snapshot``
where the workload runs in parts, exactly as the CLI does. The estimator and
the interner are wrapped so that every ``observe``, ``metrics`` and
``intern`` call is timed from outside; spans are summed in memory per name
and written to ``spans.json`` in the work directory when the run ends. The
layer names are the package's module names:

    cli        run_stream minus the calls it makes into the layers below
    core       Interner.intern
    window     SlidingWindowEstimator.observe / metrics
    fading     FadingEstimator.observe / metrics
    gini       GiniState.inc / dec
    entropy    EntropyState.inc / dec
    snapshot   save_snapshot / load_snapshot

Every layer reports on every workload. An estimator the workload does not
use is driven directly with the workload's labels, configured as on the
workload that does use it (window: window-zipf; fading: fading-emit-all).
Refreshes are counted as calls to the window's ``refresh``, on the
workload's window if it refreshes and otherwise on window-zipf's window
driven the same way. The state transitions are timed by replaying the
before/after class counts of the window the workload uses, or window-zipf's
window. Without chained parts, the snapshot layer saves and loads the run's
final state.

The wrappers cost time outside their timed regions too: the call into the
wrapper, the clock reads and the bookkeeping. After every traced pass the
wrappers are timed around estimator and interner stubs. Their cost outside
the timed regions is taken off the ``cli`` self time, which would otherwise
be charged with it; their whole cost over a direct call is the tracing
overhead. Untraced and traced passes alternate, at least twice each, until
the time is up; the untraced passes check the traced ones' output and give
their event rate for comparison.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Dict, List

import oracle
from workloads import WORKLOADS, Workload, prepare, state_path

UNITS = {
    "cli.self_ns_per_event": "ns",
    "cli.rows": "count",
    "cli.output_bytes": "bytes",
    "core.intern_ns": "ns",
    "core.classes": "count",
    "window.observe_ns": "ns",
    "window.metrics_ns": "ns",
    "window.refreshes": "count",
    "window.max_dev_gini": "abs",
    "window.max_dev_entropy": "bits",
    "fading.observe_ns": "ns",
    "fading.metrics_ns": "ns",
    "fading.max_dev_gini": "abs",
    "fading.max_dev_entropy": "bits",
    "gini.inc_ns": "ns",
    "gini.dec_ns": "ns",
    "entropy.inc_ns": "ns",
    "entropy.dec_ns": "ns",
    "snapshot.save_ms": "ms",
    "snapshot.load_ms": "ms",
    "snapshot.state_bytes": "bytes",
    "trace.overhead_ns_per_event": "ns",
}
# Workloads whose configuration an unused estimator borrows.
HOME = {"window": "window-zipf", "fading": "fading-emit-all"}
SNAPSHOT_SAMPLES = 5
CALIBRATION_CALLS = 50_000


class TimedEstimator:
    """Times observe() and metrics(); keeps each metrics() result with the
    index of the last event observed before it, and counts refreshes."""

    def __init__(self, inner) -> None:
        self.events = 0
        self.observe_ns = 0
        self.metrics_ns = 0
        self.refreshes = 0
        self.at = array("q")
        self.gini = array("d")
        self.entropy = array("d")
        self.attach(inner)

    def attach(self, inner) -> None:
        """Wrap ``inner`` from now on; its own calls to refresh() are counted."""
        self.inner = inner
        refresh = getattr(inner, "refresh", None)
        if refresh is not None:

            def counted() -> None:
                self.refreshes += 1
                refresh()

            inner.refresh = counted

    def observe(self, label) -> None:
        start = perf_counter_ns()
        self.inner.observe(label)
        self.observe_ns += perf_counter_ns() - start
        self.events += 1

    def metrics(self):
        start = perf_counter_ns()
        values = self.inner.metrics()
        self.metrics_ns += perf_counter_ns() - start
        self.at.append(self.events - 1)
        self.gini.append(values[0])
        self.entropy.append(values[1])
        return values

    def max_deviation(self, workload: Workload, ids: List[int]):
        reference = oracle.reference_for(workload, ids, sorted(set(self.at)))
        return reference.max_deviation(self.at, self.gini, self.entropy)


class TimedInterner:
    def __init__(self, inner) -> None:
        self.inner = inner
        self.intern_ns = 0

    def intern(self, label: str) -> int:
        start = perf_counter_ns()
        class_id = self.inner.intern(label)
        self.intern_ns += perf_counter_ns() - start
        return class_id

    def __len__(self) -> int:
        return len(self.inner)


class Pass:
    """One run of the workload's stream in-process, traced or not."""

    def __init__(self, pkg, workload: Workload, inputs: List[Path], workdir: Path, traced: bool) -> None:
        cfg = pkg.RunConfig(
            mode=workload.mode,
            window_size=workload.window_size,
            alpha=workload.alpha,
            refresh_period=workload.refresh_every,
            emit_every=workload.emit_every,
            input_format="csv" if workload.csv else "lines",
            csv_column=2 if workload.csv else 0,
        )
        self.spans: Dict[str, List[int]] = {}  # name -> [calls, total ns]
        self.save_ns: List[int] = []
        self.load_ns: List[int] = []
        self.estimator = self.interner = None
        self.timed = TimedEstimator(None) if traced else None
        timed_interner = TimedInterner(None) if traced else None
        events = 0
        start = perf_counter_ns()
        for part, path in enumerate(inputs):
            if part == 0:
                self.estimator = build_estimator(pkg, workload)
                self.interner = pkg.Interner()
            else:
                began = perf_counter_ns()
                loaded = pkg.load_snapshot(state_path(workdir, part - 1))
                self.load_ns.append(perf_counter_ns() - began)
                self.estimator, self.interner = loaded.estimator, loaded.interner
            estimator, interner = self.estimator, self.interner
            if traced:
                self.timed.attach(estimator)
                timed_interner.inner = interner
                estimator, interner = self.timed, timed_interner
            began = perf_counter_ns()
            with open(path, encoding="utf-8") as lines, open(
                workdir / f"out{part}.tsv", "w", encoding="utf-8", newline="\n"
            ) as out:
                events = pkg.run_stream(cfg, lines, out, estimator, interner, events).events
            self.span("cli.run_stream", perf_counter_ns() - began)
            if workload.parts > 1:
                began = perf_counter_ns()
                pkg.save_snapshot(state_path(workdir, part), workload.mode, self.estimator, self.interner, events)
                self.save_ns.append(perf_counter_ns() - began)
        self.wall_ns = perf_counter_ns() - start
        self.events = events
        if traced:
            self.span("core.intern", timed_interner.intern_ns, events)
            self.span(f"{workload.mode}.observe", self.timed.observe_ns, events)
            self.span(f"{workload.mode}.metrics", self.timed.metrics_ns, len(self.timed.at))
            # Measured right after the pass, so that the host runs at about
            # the speed it ran the pass at.
            self.untimed_ns, self.added_ns = wrapper_cost_ns()
        self.trace = "".join(
            (workdir / f"out{part}.tsv").read_text(encoding="utf-8") for part in range(len(inputs))
        )

    def span(self, name: str, ns: int, calls: int = 1) -> None:
        entry = self.spans.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += ns

    def per_call(self, name: str) -> float:
        calls, ns = self.spans[name]
        return ns / calls

    def cli_self_ns_per_event(self) -> float:
        """run_stream minus its child spans and the wrappers' untimed cost."""
        children = 0.0
        for name, (calls, ns) in self.spans.items():
            if name != "cli.run_stream":
                children += ns + calls * self.untimed_ns[name.split(".")[1]]
        return (self.spans["cli.run_stream"][1] - children) / self.events

    def overhead_ns_per_event(self) -> float:
        """What the wrappers add per event over calling the layers directly."""
        added = 0.0
        for name, (calls, _) in self.spans.items():
            if name != "cli.run_stream":
                added += calls * self.added_ns[name.split(".")[1]]
        return added / self.events


class _StubEstimator:
    def observe(self, label) -> None:
        pass

    def metrics(self):
        return 0.5, 1.0


class _StubInterner:
    def intern(self, label: str) -> int:
        return 0


def wrapper_cost_ns():
    """ns per call of each wrapped method: (outside the timed region, over a
    direct call), each a dict by method name.

    Each call is made from a lambda, as run_stream makes it from its loop.
    Outside the timed region: the loop's time, less the same loop calling a
    lambda that does nothing, less the time the wrapper recorded. Over a
    direct call: the loop's time, less the same loop calling the stub itself.
    """
    stub, stub_interner = _StubEstimator(), _StubInterner()
    estimator, interner = TimedEstimator(stub), TimedInterner(stub_interner)
    untimed, added = {}, {}
    for name, call, direct, recorded in (
        ("observe", lambda: estimator.observe(0), lambda: stub.observe(0), lambda: estimator.observe_ns),
        ("metrics", lambda: estimator.metrics(), lambda: stub.metrics(), lambda: estimator.metrics_ns),
        ("intern", lambda: interner.intern("c0"), lambda: stub_interner.intern("c0"), lambda: interner.intern_ns),
    ):
        outside, over = [], []
        for _ in range(3):
            before = recorded()
            wall = calls_ns(call)
            outside.append((wall - calls_ns(lambda: None) - (recorded() - before)) / CALIBRATION_CALLS)
            over.append((wall - calls_ns(direct)) / CALIBRATION_CALLS)
        untimed[name], added[name] = statistics.median(outside), statistics.median(over)
    return untimed, added


def calls_ns(call) -> int:
    start = perf_counter_ns()
    for _ in range(CALIBRATION_CALLS):
        call()
    return perf_counter_ns() - start


def build_estimator(pkg, workload: Workload):
    if workload.mode == "window":
        return pkg.SlidingWindowEstimator(workload.window_size, workload.refresh_every)
    return pkg.FadingEstimator(workload.alpha)


def replay(pkg, workload: Workload, ids: List[int]) -> TimedEstimator:
    """Drive the workload's estimator directly with ``ids``."""
    timed = TimedEstimator(build_estimator(pkg, workload))
    emit_every = workload.emit_every
    for i, class_id in enumerate(ids, 1):
        timed.observe(class_id)
        if i % emit_every == 0:
            timed.metrics()
    return timed


def transition_ns(pkg, capacity: int, ids: List[int]) -> Dict[str, float]:
    """ns per GiniState/EntropyState inc and dec, replaying the class counts a
    window of ``capacity`` passes them (inc: count before; dec: count after)."""
    counts = [0] * (max(ids) + 1)
    before = array("q")
    after = array("q")
    for i, class_id in enumerate(ids):
        if i >= capacity:
            old = ids[i - capacity]
            counts[old] -= 1
            after.append(counts[old])
        before.append(counts[class_id])
        counts[class_id] += 1
    out = {}
    for layer, state_type in (("gini", pkg.GiniState), ("entropy", pkg.EntropyState)):
        state = state_type()
        for step, counts_seen in (("inc", before), ("dec", after)):
            apply = getattr(state_type, step)
            start = perf_counter_ns()
            for count in counts_seen:
                state = apply(state, count)
            out[f"{layer}.{step}_ns"] = (perf_counter_ns() - start) / max(1, len(counts_seen))
    return out


def import_package(src: Path) -> SimpleNamespace:
    sys.path.insert(0, str(src))
    from impurity_stream.cli import RunConfig, run_stream
    from impurity_stream.core import Interner
    from impurity_stream.entropy import EntropyState
    from impurity_stream.fading import FadingEstimator
    from impurity_stream.gini import GiniState
    from impurity_stream.snapshot import load_snapshot, save_snapshot
    from impurity_stream.window import SlidingWindowEstimator

    return SimpleNamespace(**locals())


def traced(workload: Workload, seed: int, seconds: float, workdir: Path, src: Path):
    """Per-layer metrics of ``workload``: (rows expected, rows failed, values)."""
    pkg = import_package(src)
    labels, inputs = prepare(workload, seed, workdir)
    ids = oracle.intern_ids(labels)
    del labels
    indices = oracle.emit_indices(workload.events, workload.emit_every, workload.part_ends())
    reference = oracle.reference_for(workload, ids, indices)
    tolerance = oracle.tolerance_for(workload)

    plain: List[Pass] = []
    timed: List[Pass] = []
    attempted = failed = 0
    start = perf_counter_ns()
    order = [(plain, False), (timed, True)]
    while True:
        began = perf_counter_ns()
        for runs, is_traced in order:
            run = Pass(pkg, workload, inputs, workdir, is_traced)
            runs.append(run)
            attempted += len(indices)
            failed += oracle.count_failures(run.trace, reference, tolerance)
        # Each kind of pass goes first as often as the other.
        order.reverse()
        now = perf_counter_ns()
        if len(timed) >= 2 and (now - start) + (now - began) > seconds * 1e9:
            break

    last = timed[-1]
    own, other = workload.mode, "fading" if workload.mode == "window" else "window"
    values = {
        "cli.self_ns_per_event": statistics.median(run.cli_self_ns_per_event() for run in timed),
        "cli.rows": last.trace.count("\n"),
        "cli.output_bytes": len(last.trace.encode("utf-8")),
        "core.intern_ns": statistics.median(run.per_call("core.intern") for run in timed),
        "core.classes": len(last.interner),
        f"{own}.observe_ns": statistics.median(run.per_call(f"{own}.observe") for run in timed),
        f"{own}.metrics_ns": statistics.median(run.per_call(f"{own}.metrics") for run in timed),
    }
    values[f"{own}.max_dev_gini"], values[f"{own}.max_dev_entropy"] = last.timed.max_deviation(workload, ids)

    home = WORKLOADS[HOME[other]]
    other_run = replay(pkg, home, ids)
    values[f"{other}.observe_ns"] = other_run.observe_ns / len(ids)
    values[f"{other}.metrics_ns"] = other_run.metrics_ns / len(other_run.at)
    values[f"{other}.max_dev_gini"], values[f"{other}.max_dev_entropy"] = other_run.max_deviation(home, ids)

    if own == "window" and workload.refresh_every:
        values["window.refreshes"] = last.timed.refreshes
    elif own == "fading":
        values["window.refreshes"] = other_run.refreshes
    else:
        values["window.refreshes"] = replay(pkg, WORKLOADS[HOME["window"]], ids).refreshes
    window_size = workload.window_size if own == "window" else home.window_size
    values.update(transition_ns(pkg, window_size, ids))

    if workload.parts > 1:
        save_ns = [ns for run in plain + timed for ns in run.save_ns]
        load_ns = [ns for run in plain + timed for ns in run.load_ns]
        state_file = state_path(workdir, workload.parts - 1)
    else:
        state_file = workdir / "final.state"
        save_ns, load_ns = [], []
        for _ in range(SNAPSHOT_SAMPLES):
            began = perf_counter_ns()
            pkg.save_snapshot(state_file, workload.mode, last.estimator, last.interner, last.events)
            save_ns.append(perf_counter_ns() - began)
            began = perf_counter_ns()
            pkg.load_snapshot(state_file)
            load_ns.append(perf_counter_ns() - began)
    values["snapshot.save_ms"] = statistics.median(save_ns) / 1e6
    values["snapshot.load_ms"] = statistics.median(load_ns) / 1e6
    values["snapshot.state_bytes"] = state_file.stat().st_size

    values["trace.overhead_ns_per_event"] = statistics.median(run.overhead_ns_per_event() for run in timed)

    (workdir / "spans.json").write_text(
        json.dumps(
            {
                "untraced": [run.spans for run in plain],
                "traced": [run.spans for run in timed],
                "wrapper_untimed_ns": [run.untimed_ns for run in timed],
                "wrapper_added_ns": [run.added_ns for run in timed],
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(
        f"{workload.name}: {len(timed)} traced passes at {events_per_s(timed):.0f} events/s, "
        f"{len(plain)} untraced at {events_per_s(plain):.0f}",
        file=sys.stderr,
    )
    return attempted, failed, values


def events_per_s(runs: List[Pass]) -> float:
    return statistics.median(run.events / run.wall_ns * 1e9 for run in runs)
