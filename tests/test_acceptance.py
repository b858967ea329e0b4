"""Acceptance suite: one quantitative gate per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from types import SimpleNamespace

import numpy as np

from conftest import bits
from impurity_stream import (
    EntropyState,
    FadingEstimator,
    GiniState,
    SlidingWindowEstimator,
    entropy_exact,
    gini_exact,
)
from impurity_stream.bench import run_bench
from impurity_stream.cli import EXIT_OK, main


def _criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_exhaustive_small_instance_oracle():
    start = time.perf_counter()
    worst = 0.0
    vectors = 0
    for vector in itertools.product(range(7), repeat=4):
        if not any(vector):
            continue
        vectors += 1
        counts = {i: float(c) for i, c in enumerate(vector) if c}
        expected_g = gini_exact(counts)
        expected_h = entropy_exact(counts)

        # (a) one unit-increment per stream event
        g, h = GiniState(), EntropyState()
        for c in counts.values():
            for seen in range(int(c)):
                g = g.inc(float(seen))
                h = h.inc(float(seen))
        worst = max(worst, abs(g.value - expected_g), abs(h.value - expected_h))

        # (b) one append per class
        g, h = GiniState(), EntropyState()
        for c in counts.values():
            g = g.append(c)
            h = h.append(c)
        worst = max(worst, abs(g.value - expected_g), abs(h.value - expected_h))

        # (c) merge of single-class states
        g, h = GiniState(), EntropyState()
        for c in counts.values():
            g = g.merge(GiniState(c, 0.0))
            h = h.merge(EntropyState(c, 0.0))
        worst = max(worst, abs(g.value - expected_g), abs(h.value - expected_h))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "all count vectors (4 classes, counts <= 6) agree with the oracle via "
        "increments, appends, and merges to 1e-10",
        worst <= 1e-10 and vectors == 2400 and elapsed < 5.0,
        f"{vectors} vectors, worst |dev| {worst:.3e}, {elapsed:.2f}s",
    )


def _drift_run(classes: int, capacity: int, refresh: int, events: int) -> tuple[float, float]:
    rng = np.random.default_rng(7919 * classes + 31 * capacity + refresh)
    labels = rng.integers(0, classes, size=events).tolist()
    est = SlidingWindowEstimator(capacity, refresh_period=refresh)
    observe = est.observe
    # The exact functions read a mapping's values(); the window's counts are
    # a list indexed by id, grown in place, so one view serves every event.
    by_id = SimpleNamespace(values=lambda: est.counts)
    metrics = est.metrics
    worst_g = worst_h = 0.0
    for label in labels:
        observe(label)
        gini_value, entropy_value = metrics()
        dev_g = abs(gini_value - gini_exact(by_id))
        dev_h = abs(entropy_value - entropy_exact(by_id))
        if dev_g > worst_g:
            worst_g = dev_g
        if dev_h > worst_h:
            worst_h = dev_h
    return worst_g, worst_h


def test_criterion_2_long_stream_window_drift():
    start = time.perf_counter()
    events = 100_000
    failures = []
    worst_seen = {}
    for refresh, tol in ((0, 1e-6), (10_000, 1e-9)):
        for classes in (2, 10, 100):
            for capacity in (10, 1000):
                worst_g, worst_h = _drift_run(classes, capacity, refresh, events)
                worst_seen[(classes, capacity, refresh)] = max(worst_g, worst_h)
                if worst_g > tol or worst_h > tol:
                    failures.append((classes, capacity, refresh, worst_g, worst_h))
    elapsed = time.perf_counter() - start
    overall = max(worst_seen.values())
    _criterion(
        2,
        "windowed metrics track the window oracle on 1e5-event streams "
        "(1e-6 without refresh, 1e-9 with refresh every 1e4)",
        not failures and elapsed < 30.0,
        f"worst |dev| {overall:.3e} over {len(worst_seen)} runs, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def _random_state(rng: random.Random):
    counts = {
        i: float(rng.randint(2, 200)) for i in range(rng.randint(1, 6))
    }
    return GiniState.from_counts(counts), EntropyState.from_counts(counts)


def test_criterion_3_inverse_and_merge_laws():
    start = time.perf_counter()
    rng = random.Random(271828)
    checks = 10_000
    worst = {"inc_gini": 0.0, "inc_ent": 0.0, "add_gini": 0.0, "add_ent": 0.0, "batch": 0.0}
    commutes = True
    for _ in range(checks):
        g, h = _random_state(rng)

        before = float(rng.randint(0, 100))
        worst["inc_gini"] = max(worst["inc_gini"], abs(g.inc(before).dec(before).value - g.value))
        worst["inc_ent"] = max(worst["inc_ent"], abs(h.inc(before).dec(before).value - h.value))

        mass = rng.uniform(0.5, 50.0) if rng.random() < 0.5 else float(rng.randint(1, 50))
        worst["add_gini"] = max(
            worst["add_gini"], abs(g.add_class(mass).del_class(mass).value - g.value)
        )
        worst["add_ent"] = max(
            worst["add_ent"], abs(h.add_class(mass).del_class(mass).value - h.value)
        )

        g2, h2 = _random_state(rng)
        commutes &= bits(g.merge(g2).value) == bits(g2.merge(g).value)
        commutes &= bits(g.merge(g2).total) == bits(g2.merge(g).total)
        commutes &= bits(h.merge(h2).value) == bits(h2.merge(h).value)
        commutes &= bits(h.merge(h2).total) == bits(h2.merge(h).total)

        current = float(rng.randint(1, 100))
        delta = {"cls": (current, 1.0)}
        worst["batch"] = max(
            worst["batch"],
            abs(g.batch_increase(delta).value - g.inc(current).value),
            abs(h.batch_increase(delta).value - h.inc(current).value),
        )
    elapsed = time.perf_counter() - start
    passed = (
        worst["inc_gini"] <= 1e-12
        and worst["add_gini"] <= 1e-12
        and worst["inc_ent"] <= 1e-10
        and worst["add_ent"] <= 1e-10
        and worst["batch"] <= 1e-10
        and commutes
    )
    _criterion(
        3,
        "unit and class-level inverse laws hold (1e-12 gini, 1e-10 entropy), "
        "merge commutes bit-for-bit, singleton batch equals increment (1e-10)",
        passed,
        f"worst: {', '.join(f'{k}={v:.2e}' for k, v in worst.items())}, "
        f"commutative={commutes}, {checks} checks each, {elapsed:.1f}s",
    )


def test_criterion_4_overlay_with_recomputed_cross_term():
    start = time.perf_counter()
    rng = random.Random(314159)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 20)
        x = [rng.uniform(0.05, 10.0) for _ in range(n)]
        y = [rng.uniform(0.05, 10.0) for _ in range(n)]
        a = GiniState(sum(x), gini_exact(dict(enumerate(x))))
        b = GiniState(sum(y), gini_exact(dict(enumerate(y))))
        cross = sum(xi * yi for xi, yi in zip(x, y))
        combined = a.overlay(b, cross)
        expected = gini_exact({i: xi + yi for i, (xi, yi) in enumerate(zip(x, y))})
        worst = max(worst, abs(combined.value - expected))
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "elementwise-union overlay with brute-force cross term matches the "
        "oracle of the summed vectors to 1e-10",
        worst <= 1e-10,
        f"1000 vector pairs, worst |dev| {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_5_fading_factor_behavior():
    start = time.perf_counter()
    events = 10_000
    classes = 6

    # alpha = 1 reproduces the exact incremental trace
    rng = random.Random(161803)
    est = FadingEstimator(1.0)
    g, h = GiniState(), EntropyState()
    shadow: dict[int, int] = {}
    worst = 0.0
    for _ in range(events):
        label = rng.randrange(classes)
        before = shadow.get(label, 0)
        est.observe(label)
        g = g.inc(float(before))
        h = h.inc(float(before))
        shadow[label] = before + 1
        n = est.n
        worst = max(worst, abs(est.d / (n * n) - g.value), abs(est.u / n - h.value))
    reduction_ok = worst <= 1e-9

    # alpha < 1 stays in range on random streams
    in_range = True
    cap = math.log2(classes) + 1e-9
    for alpha in (0.5, 0.9, 0.99):
        rng = random.Random(int(alpha * 10_000))
        fader = FadingEstimator(alpha)
        for _ in range(events):
            fader.observe(rng.randrange(classes))
            gini_value, entropy_value = fader.metrics()
            in_range &= -1e-9 <= fader.d / (fader.n * fader.n) <= 1.0 + 1e-9
            in_range &= 0.0 <= gini_value <= 1.0
            in_range &= 0.0 <= entropy_value <= cap

    # single-class streams pin d = n²G, u = nH and both metrics at exactly +0.0
    fixpoint = True
    for alpha in (0.5, 0.9, 0.99, 1.0):
        fader = FadingEstimator(alpha)
        for _ in range(events):
            fader.observe(0)
            raw = (fader.d, fader.u, *fader.metrics())
            fixpoint &= [bits(value) for value in raw] == [bits(0.0)] * 4

    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "alpha=1 fading equals the exact incremental trace (1e-9); "
        "alpha<1 stays in range and holds the pure-stream fixpoint exactly",
        reduction_ok and in_range and fixpoint,
        f"worst alpha=1 |dev| {worst:.3e}, in_range={in_range}, "
        f"fixpoint={fixpoint}, {elapsed:.1f}s",
    )


def test_criterion_6_incremental_updates_are_flat_in_class_count():
    start = time.perf_counter()
    events = 20_000
    # Each mode's best of 3 rounds per class count. In each round the two
    # class counts are timed back to back, in turn first, so a switch in the
    # host's speed reaches both sides of a ratio rather than one.
    best = {10: {}, 1000: {}}
    for round_ in range(3):
        for mode in ("window", "fading", "recompute"):
            for classes in (10, 1000) if round_ % 2 == 0 else (1000, 10):
                (result,) = run_bench(classes, events, modes=(mode,), repeat=1)
                best[classes][mode] = min(best[classes].get(mode, math.inf), result.ns_per_event)
    small, large = best[10], best[1000]

    def spread(mode: str) -> float:
        lo, hi = sorted((small[mode], large[mode]))
        return hi / lo

    window_spread = spread("window")
    fading_spread = spread("fading")
    recompute_growth = large["recompute"] / small["recompute"]
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        "per-event incremental cost varies <= 2x between 10 and 1000 classes "
        "while full recomputation grows >= 5x",
        window_spread <= 2.0
        and fading_spread <= 2.0
        and recompute_growth >= 5.0
        and elapsed < 60.0,
        f"window x{window_spread:.2f}, fading x{fading_spread:.2f}, "
        f"recompute x{recompute_growth:.1f}, {elapsed:.1f}s",
    )


def test_criterion_7_cli_golden_rows_and_bit_exact_resume(tmp_path):
    start = time.perf_counter()

    def run_to_file(argv, input_lines, out_name):
        input_path = tmp_path / f"{out_name}.in"
        output_path = tmp_path / f"{out_name}.tsv"
        input_path.write_text("".join(line + "\n" for line in input_lines), encoding="utf-8")
        code = main(argv + ["--input", str(input_path), "--output", str(output_path)])
        assert code == EXIT_OK
        return output_path.read_text(encoding="utf-8")

    golden_ok = True
    out = run_to_file(
        ["run", "--mode", "window", "--window-size", "2", "--metric", "both"],
        ["a", "b", "a"],
        "golden-window",
    )
    golden_ok &= out.splitlines()[-1] == "2\t0.500000000\t1.000000000"
    out = run_to_file(
        ["run", "--mode", "exact", "--emit-every", "3"], ["a", "a", "a"], "golden-exact"
    )
    golden_ok &= out == "2\t0.000000000\t0.000000000\n"
    out = run_to_file(
        ["run", "--mode", "fading", "--alpha", "1.0"], ["a", "b"], "golden-fading"
    )
    golden_ok &= out.splitlines()[-1] == "1\t0.500000000\t1.000000000"

    rng = random.Random(424242)
    labels = [f"c{rng.randrange(7)}" for _ in range(1000)]
    resume_ok = True
    for mode, extra in (
        ("window", ["--window-size", "37", "--refresh-every", "11"]),
        ("fading", ["--alpha", "0.9"]),
    ):
        state = tmp_path / f"{mode}.snap"
        full = run_to_file(["run", "--mode", mode] + extra, labels, f"{mode}-full")
        head = run_to_file(
            ["run", "--mode", mode, *extra, "--save-state", str(state)],
            labels[:500],
            f"{mode}-head",
        )
        tail = run_to_file(
            ["run", "--mode", mode, "--load-state", str(state)],
            labels[500:],
            f"{mode}-tail",
        )
        resume_ok &= (head + tail) == full

    elapsed = time.perf_counter() - start
    _criterion(
        7,
        "CLI reproduces the golden TSV rows and snapshot resume is byte-identical "
        "on a 1e3-event stream",
        golden_ok and resume_ok,
        f"golden={golden_ok}, resume={resume_ok}, {elapsed:.1f}s",
    )
