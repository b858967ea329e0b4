"""Snapshot save/load: bit-exact round-trips and corruption handling."""

from __future__ import annotations

import io
import json
import os
import random
import tracemalloc

import pytest

from conftest import bits, hex_ints
from impurity_stream import (
    ExactEstimator,
    FadingEstimator,
    Interner,
    SlidingWindowEstimator,
    SnapshotError,
    load_snapshot,
    save_snapshot,
)
from impurity_stream.snapshot import ESTIMATORS, _HEX_SLICE, _LABEL_SLICE, write_snapshot


def window_fixture(events=137):
    rng = random.Random(7)
    interner = Interner()
    est = SlidingWindowEstimator(17, refresh_period=11)
    for _ in range(events):
        est.observe(interner.intern(f"label-{rng.randrange(5)}"))
    return est, interner, events


def fading_fixture(events=90):
    rng = random.Random(8)
    interner = Interner()
    est = FadingEstimator(0.1)  # non-dyadic factor exercises hex round-trips
    for _ in range(events):
        est.observe(interner.intern(f"label-{rng.randrange(4)}"))
    return est, interner, events


def exact_fixture(events=60):
    rng = random.Random(9)
    interner = Interner()
    est = ExactEstimator()
    for _ in range(events):
        est.observe(interner.intern(f"label-{rng.randrange(3)}"))
    return est, interner, events


def feed(estimator, labels, seen=0):
    """``estimator`` after ``labels`` as the events after the first ``seen``."""
    estimator.observe_block(labels, seen, 1 << 62)
    return estimator


# A new estimator per mode, and the ids of a short run through it.
NEW = {
    "window": lambda: SlidingWindowEstimator(5, refresh_period=3),
    "fading": lambda: FadingEstimator(0.1),
    "exact": ExactEstimator,
}
HEAD = [0, 1, 0, 2, 1, 1, 3]
TAIL = [2, 2, 0, 3, 3, 1, 0, 0]


def saved_text(mode, estimator, interner, events):
    out = io.StringIO()
    write_snapshot(out, mode, estimator, interner, events)
    return out.getvalue()


class TestState:
    @pytest.mark.parametrize("mode", NEW)
    def test_a_state_taken_does_not_change_with_later_events(self, mode):
        """state() copies the estimator's lists: observing more events
        leaves a state taken earlier as it was."""
        est = feed(NEW[mode](), HEAD)
        taken = est.state()
        feed(est, TAIL, len(HEAD))
        then = feed(NEW[mode](), HEAD)
        assert taken == then.state()
        restored = ESTIMATORS[mode].from_state(taken, len(HEAD), range(4))
        assert restored.state() == then.state()
        assert [bits(v) for v in restored.metrics()] == [bits(v) for v in then.metrics()]

    @pytest.mark.parametrize("mode", NEW)
    @pytest.mark.parametrize("events", [HEAD, HEAD + TAIL, []], ids=["head", "head+tail", "fresh"])
    def test_from_state_of_state_roundtrips(self, mode, events):
        est = feed(NEW[mode](), events)
        restored = ESTIMATORS[mode].from_state(est.state(), len(events), range(4))
        assert restored.state() == est.state()
        assert [bits(v) for v in restored.metrics()] == [bits(v) for v in est.metrics()]
        assert [bits(v) for v in feed(restored, TAIL).metrics()] == [bits(v) for v in feed(est, TAIL).metrics()]

    @pytest.mark.parametrize("top,width", [(255, 8), (256, 16), (65535, 16), (65536, 32)])
    @pytest.mark.parametrize("mode", NEW)
    def test_lists_take_the_fewest_bits_that_hold_them(self, mode, top, width):
        """The window's largest id, or the largest count, sets the width of
        the array that state() gives, and of the field that a save writes."""
        if mode == "window":
            key, events, values = "window", [top, 0, top], [top, 0, top]
            est = feed(SlidingWindowEstimator(3), events)
        else:
            key, events, values = "counts", [0] * top + [1], [top, 1]
            est = feed(NEW[mode](), events)
        assert est.state()[key].itemsize == width // 8
        lines = saved_text(mode, est, Interner(f"c{i}" for i in range(top + 1)), len(events)).splitlines()
        assert lines[-1] == f"{key} " + hex_ints(width, values)

    @pytest.mark.parametrize("ids,width", [([300, 1, 2, 3], 8), ([2, 300, 0, 1], 16), ([0, 0, 0], 8)])
    def test_window_width_is_set_by_the_ids_it_holds(self, ids, width):
        """An id that has left the window, though it is the largest seen,
        does not widen the window's field."""
        est = feed(SlidingWindowEstimator(3), ids)
        assert est.state()["window"].itemsize == width // 8
        lines = saved_text("window", est, Interner(f"c{i}" for i in range(301)), len(ids)).splitlines()
        assert lines[-1] == "window " + hex_ints(width, ids[-3:])


# Each mode's state as version 5 wrote it, byte for byte: the window's ids
# in a u8 field, the fading counts in u16 and the exact counts in u32.
GOLDEN = {
    "window": (
        'impurity-stream-snapshot 5 window\nevents 8\nlabels ["a","b\\"q","日本","tab\\t"]\n'
        "capacity 5\nrefresh_period 3\nevents_since_refresh 2\nwindow u8:0203010100\n"
    ),
    "fading": (
        'impurity-stream-snapshot 5 fading\nevents 307\nlabels ["x","y","z"]\n'
        "alpha 0x1.999999999999ap-4\nd 0x1.34a0000000000p+10\nu 0x1.999999999999ap-4\ncounts u16:2c0100000700\n"
    ),
    "exact": (
        'impurity-stream-snapshot 5 exact\nevents 65539\nlabels ["p","q","r"]\n'
        "counts u32:000001000000000003000000\n"
    ),
}


def golden_state(mode):
    """The fixed state whose file GOLDEN holds, as (estimator, interner, events)."""
    if mode == "window":
        est = feed(SlidingWindowEstimator(5, refresh_period=3), [0, 1, 0, 2, 3, 1, 1, 0])
        return est, Interner(["a", 'b"q', "日本", "tab\t"]), 8
    if mode == "fading":
        state = {"alpha": 0.1, "d": 1234.5, "u": 0.1, "counts": [300, 0, 7]}
        return FadingEstimator.from_state(state, 307, range(3)), Interner(["x", "y", "z"]), 307
    est = ExactEstimator()
    est.counts = {0: 65536, 2: 3}
    return est, Interner(["p", "q", "r"]), 65539


class TestGoldenFiles:
    @pytest.mark.parametrize("mode", GOLDEN)
    def test_save_writes_the_golden_bytes(self, tmp_path, mode):
        path = tmp_path / "state.snap"
        save_snapshot(path, mode, *golden_state(mode))
        assert path.read_bytes() == GOLDEN[mode].encode()
        loaded = load_snapshot(path)
        again = tmp_path / "again.snap"
        save_snapshot(again, mode, loaded.estimator, loaded.interner, loaded.events_seen)
        assert again.read_bytes() == GOLDEN[mode].encode()

    def test_a_swapped_byte_order_applies_to_save_and_load(self, tmp_path, monkeypatch):
        """On a big-endian host each slice is byteswapped on save and the
        items on load. Here that swap turns the items big-endian, so both
        sides agree with each other and not with the golden file."""
        from impurity_stream import snapshot

        monkeypatch.setattr(snapshot, "_SWAP", not snapshot._SWAP)
        path = tmp_path / "state.snap"
        save_snapshot(path, "fading", *golden_state("fading"))
        assert path.read_text(encoding="utf-8").splitlines()[-1] == "counts u16:012c00000007"
        assert list(load_snapshot(path).estimator.counts) == [300.0, 0.0, 7.0]

    @pytest.mark.parametrize("length", [_HEX_SLICE - 1, _HEX_SLICE, 2 * _HEX_SLICE + 1])
    def test_a_field_written_in_slices_is_one_hex_run(self, length):
        """A uW field longer than a slice is the same one line of hex."""
        ids = [(7 * i) % 300 for i in range(length)]
        est = feed(SlidingWindowEstimator(length), ids)
        lines = saved_text("window", est, Interner(f"c{i}" for i in range(300)), length).splitlines()
        assert lines[-1] == "window " + hex_ints(16, ids)


class TestRoundTrips:
    def test_window_state_roundtrips_bit_exactly(self, tmp_path):
        est, interner, events = window_fixture()
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        loaded = load_snapshot(path)

        assert loaded.mode == "window"
        assert loaded.events_seen == events
        assert loaded.interner.labels == interner.labels
        restored = loaded.estimator
        assert restored.capacity == est.capacity
        assert restored.refresh_period == est.refresh_period
        assert restored.events_since_refresh == est.events_since_refresh
        assert list(restored.window) == list(est.window)
        assert restored.counts == est.counts
        assert (restored.s2, restored.t) == (est.s2, est.t)
        assert [bits(v) for v in restored.metrics()] == [bits(v) for v in est.metrics()]

    def test_fading_state_roundtrips_bit_exactly(self, tmp_path):
        est, interner, events = fading_fixture()
        path = tmp_path / "state.snap"
        save_snapshot(path, "fading", est, interner, events)
        restored = load_snapshot(path).estimator
        assert bits(restored.alpha) == bits(est.alpha)
        assert restored.n == est.n
        assert restored.counts == est.counts
        assert restored.plogs == est.plogs
        assert bits(restored.plog_n) == bits(est.plog_n)
        assert bits(restored.d) == bits(est.d)
        assert bits(restored.u) == bits(est.u)

    def test_exact_state_roundtrips(self, tmp_path):
        est, interner, events = exact_fixture()
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, events)
        restored = load_snapshot(path).estimator
        assert list(restored.counts.items()) == list(est.counts.items())
        assert restored.metrics() == est.metrics()

    def test_exact_roundtrip_with_ids_out_of_order(self, tmp_path):
        """A restored exact estimator holds its counts in id order; its metrics
        must not depend on the order in which the ids were first observed."""
        path = tmp_path / "state.snap"
        for seed in range(200):
            rng = random.Random(seed)
            interner = Interner(f"label-{i}" for i in range(6))
            est = ExactEstimator()
            for _ in range(50):
                est.observe(rng.randrange(6))
            save_snapshot(path, "exact", est, interner, 50)
            assert load_snapshot(path).estimator.metrics() == est.metrics()

    def test_fresh_estimator_roundtrips(self, tmp_path):
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", SlidingWindowEstimator(4), Interner(), 0)
        loaded = load_snapshot(path)
        assert loaded.events_seen == 0
        assert len(loaded.estimator.window) == 0
        assert loaded.estimator.metrics() == (0.0, 0.0)

    def test_resumed_copy_stays_bitwise_identical(self, tmp_path):
        est, interner, events = window_fixture()
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        restored = load_snapshot(path).estimator
        rng = random.Random(100)
        for _ in range(300):
            label = interner.intern(f"label-{rng.randrange(5)}")
            est.observe(label)
            restored.observe(label)
            assert (est.s2, est.t) == (restored.s2, restored.t)
            assert [bits(v) for v in est.metrics()] == [bits(v) for v in restored.metrics()]

    def test_window_resumes_in_a_fresh_process(self, tmp_path, monkeypatch):
        """A new process has not grown the window's step table; loading a state
        must grow it to the largest count before the first eviction."""
        from impurity_stream import window as window_module

        est, interner, events = window_fixture()
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        monkeypatch.setattr(window_module, "_STEP", [])
        restored = load_snapshot(path).estimator
        for label in [interner.intern("fresh")] * est.capacity:
            restored.observe(label)
            sums = (restored.s2, restored.t)
            restored.refresh()  # rebuilds both sums from their definition
            assert (restored.s2, restored.t) == sums

    @pytest.mark.parametrize(
        "top,width",
        [(0, 8), (255, 8), (256, 16), (65535, 16), (65536, 32), (2**32 - 1, 32), (2**32, 64), (2**64 - 1, 64)],
    )
    def test_int_lists_take_the_fewest_bits_that_hold_them(self, tmp_path, top, width):
        """An int list is written little-endian at the smallest width that
        holds its largest item, and loads back as the same ints."""
        est = ExactEstimator()
        est.counts = {0: 1, 2: top}
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, Interner(["a", "b", "c"]), top + 1)
        assert path.read_text().splitlines()[-1] == "counts " + hex_ints(width, [1, 0, top])
        assert load_snapshot(path).estimator.counts == ({0: 1, 2: top} if top else {0: 1})

    def test_window_ids_are_hex_in_window_order(self, tmp_path):
        interner = Interner(f"label-{i}" for i in range(300))
        est = SlidingWindowEstimator(4)
        for class_id in [299, 3, 256, 299, 7]:
            est.observe(class_id)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, 5)
        assert "window " + hex_ints(16, [3, 256, 299, 7]) in path.read_text().splitlines()
        assert list(load_snapshot(path).estimator.window) == [3, 256, 299, 7]

    def test_unicode_and_awkward_labels(self, tmp_path):
        interner = Interner()
        est = ExactEstimator()
        awkward = ["héllo", "日本語", "with,comma", 'quote"tab\there', "x" * 200, "line\u2028sep", "\x0c\x1c\x85"]
        for label in awkward:
            est.observe(interner.intern(label))
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, len(awkward))
        loaded = load_snapshot(path)
        assert loaded.interner.labels == interner.labels


# Labels that JSON escapes (quotes, backslashes, control characters) and
# ones it writes as they are (U+2028, U+2029, NEL, characters outside the
# BMP), none of which ends a snapshot line.
AWKWARD = [
    'q"uote',
    "back\\slash",
    "\x00\x01\x1f\x7f",
    "tab\tnew\nline\r",
    "line\u2028sep\u2029",
    "\x85",
    "\U0001d11e\U0001f389",
    "日本語",
    "",
]


class TestLabelSlices:
    @pytest.mark.parametrize(
        "count", [0, 1, _LABEL_SLICE - 1, _LABEL_SLICE, _LABEL_SLICE + 1], ids=["0", "1", "slice-1", "slice", "slice+1"]
    )
    def test_labels_line_is_what_json_dumps_writes(self, tmp_path, count):
        """The labels are written a slice at a time, and the line is the
        one that json.dumps of the whole table gives."""
        labels = [f"{AWKWARD[i % len(AWKWARD)]}{i}" for i in range(count)]
        out = io.StringIO()
        write_snapshot(out, "exact", ExactEstimator(), Interner(labels), 0)
        lines = out.getvalue().split("\n")
        assert lines[2] == "labels " + json.dumps(labels, ensure_ascii=False, separators=(",", ":"))
        path = tmp_path / "state.snap"
        path.write_text(out.getvalue(), encoding="utf-8")
        assert load_snapshot(path).interner.labels == tuple(labels)

    def test_str_subclass_label_saves_as_its_text(self, tmp_path):
        class Name(str):
            pass

        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", ExactEstimator(), Interner(["a", Name("b")]), 0)
        assert load_snapshot(path).interner.labels == ("a", "b")


def large_window_state(tmp_path):
    """A window-resume sized state: 20k labels and 50k window ids, saved."""
    rng = random.Random(20)
    interner = Interner(f"c{i}" for i in range(20000))
    est = SlidingWindowEstimator(50000)
    est.observe_many([rng.randrange(20000) for _ in range(60000)])
    path = tmp_path / "state.snap"
    save_snapshot(path, "window", est, interner, 60000)
    return path, est, interner


class TestLargeState:
    def test_loaded_window_holds_the_interner_ids(self, tmp_path):
        """A loaded window holds one int object per class, the interner's,
        as a run does, not one per event or a second set beside them."""
        path, est, _ = large_window_state(tmp_path)
        loaded = load_snapshot(path)
        intern, label_of = loaded.interner.intern, loaded.interner.label_of
        assert list(loaded.estimator.window) == list(est.window)
        assert all(intern(label_of(class_id)) is class_id for class_id in loaded.estimator.window)
        assert all(class_id is loaded.interner.ids[class_id] for class_id in loaded.estimator.window)

    def test_load_and_save_hold_about_one_copy_of_the_state(self, tmp_path):
        """Traced by tracemalloc, a save peaks below 0.75 times the file's
        size and a load below 1.5 times it above what it keeps. json.dumps
        of the whole label table, the window copied into a list, or a hex
        field encoded into one string, breaks the first; the file's text or
        its lines kept while the state is built break the second."""
        path, _, _ = large_window_state(tmp_path)
        size = path.stat().st_size
        assert 300_000 < size < 400_000
        tracemalloc.start()
        try:
            loaded = load_snapshot(path)
            kept, peak = tracemalloc.get_traced_memory()
            load_excess = peak - kept
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            save_snapshot(tmp_path / "again.snap", "window", loaded.estimator, loaded.interner, loaded.events_seen)
            save_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (tmp_path / "again.snap").read_bytes() == path.read_bytes()
        assert load_excess < 1.5 * size
        assert save_peak < 0.75 * size


class TestErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_text("not-a-snapshot 1 window\n")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        est, interner, events = window_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        text = path.read_text().replace("snapshot 5 window", "snapshot 99 window", 1)
        path.write_text(text)
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(path)

    def test_unknown_mode_tag(self, tmp_path):
        path = tmp_path / "state.snap"
        path.write_text("impurity-stream-snapshot 5 sideways\nevents 0\nlabels []\n")
        with pytest.raises(SnapshotError, match="mode"):
            load_snapshot(path)

    def test_truncated_file(self, tmp_path):
        est, interner, events = window_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_trailing_garbage(self, tmp_path):
        est, interner, events = fading_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "fading", est, interner, events)
        body = path.read_text()
        path.write_text(body + "unexpected trailer\n")
        with pytest.raises(SnapshotError, match="line"):
            load_snapshot(path)
        path.write_text(body + "trailer 1\n")
        with pytest.raises(SnapshotError, match="unexpected field 'trailer'"):
            load_snapshot(path)

    def test_inconsistent_window_counts(self, tmp_path):
        est, interner, events = window_fixture(40)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        # The counts follow from the window, so they can only be wrong by
        # holding more events than the capacity.
        assert load_snapshot(path).estimator.counts == est.counts
        window_line = "window " + hex_ints(8, est.window)
        text = path.read_text().replace(window_line, window_line + "00", 1)
        assert text != path.read_text()
        path.write_text(text)
        with pytest.raises(SnapshotError, match="capacity"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "events,kept", [(3, 0), (3, 2), (40, 16)], ids=["empty-after-3", "2-after-3", "16-of-17-after-40"]
    )
    def test_window_shorter_than_its_run(self, tmp_path, events, kept):
        """A run's window holds its last min(capacity, events) ids, so a
        shorter one is no state a run reaches."""
        est, interner, events = window_fixture(events)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        window_line = "window " + hex_ints(8, est.window)
        path.write_text(path.read_text().replace(window_line, "window " + hex_ints(8, list(est.window)[:kept])))
        message = f"^bad window snapshot: {kept} events in the window, .* give {len(est.window)}$"
        with pytest.raises(SnapshotError, match=message):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "value",
        [
            "u8:0001000",  # an odd length
            "u8:00010g",  # a non-hex digit
            "u8:00 01",  # a space inside
            "u8:00 01 ",  # spaces that keep the length even
            "u8:00\t0100",  # a tab inside
            "u12:000100",  # an unknown width
            "U8:000100",
            "i8:000100",
            ":000100",
            "u16:000100",  # three bytes: no whole number of items
            "u64:0000000000000000000000",
            "[0,1,0]",  # version 4's JSON array
        ],
    )
    def test_malformed_hex_field(self, tmp_path, value):
        est, interner, events = window_fixture(3)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("window u8:") and len(lines[-1]) == len("window u8:000100")
        path.write_text("\n".join(lines[:-1] + ["window " + value]) + "\n")
        with pytest.raises(SnapshotError, match="line 7"):
            load_snapshot(path)

    @pytest.mark.parametrize("past", [0, 1, 2**64 - 1], ids=["first-past-table", "next", "u64-max"])
    def test_window_id_outside_label_table(self, tmp_path, past):
        est, interner, events = window_fixture(3)
        path = tmp_path / "state.snap"
        save_snapshot(path, "window", est, interner, events)
        lines = path.read_text().splitlines()
        first = min(len(interner) + past, 2**64 - 1)
        ids = hex_ints(8 if first < 256 else 64, [first, *est.window][:3])
        path.write_text("\n".join(lines[:-1] + ["window " + ids]) + "\n")
        with pytest.raises(SnapshotError, match="class id outside the label table"):
            load_snapshot(path)

    def test_repeated_label_rejected(self, tmp_path):
        est, interner, events = exact_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, events)
        first, second = interner.labels[:2]
        text = path.read_text().replace(f'"{second}"', f'"{first}"', 1)
        path.write_text(text)
        with pytest.raises(SnapshotError, match="listed twice"):
            load_snapshot(path)

    def test_mangled_float(self, tmp_path):
        est, interner, events = fading_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "fading", est, interner, events)
        text = path.read_text().replace(f"alpha {float(est.alpha).hex()}", "alpha xyz", 1)
        path.write_text(text)
        with pytest.raises(SnapshotError, match="hex float"):
            load_snapshot(path)

    def test_not_utf8(self, tmp_path):
        est, interner, events = exact_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, events)
        path.write_bytes(path.read_bytes().replace(b'"label-0"', b'"label-\xff"', 1))
        with pytest.raises(SnapshotError, match="not valid UTF-8"):
            load_snapshot(path)

    @pytest.mark.parametrize(
        "label,message",
        [
            ('"label-0\\ud800"', "label '.*' holds a lone surrogate"),
            ('"label-0\\uDC00"', "label '.*' holds a lone surrogate"),
            ('"label-0\\ude00\\ud83d"', "label '.*' holds a lone surrogate"),
            ('5,"label-0\\ud800"', "labels must be a JSON array of strings"),
        ],
        ids=["high", "low", "reversed-pair", "beside-an-int"],
    )
    def test_lone_surrogate_label_rejected_on_load(self, tmp_path, label, message):
        """A JSON escape can give a label a lone surrogate, which UTF-8
        cannot encode; such a state loaded, and its save failed later."""
        est, interner, events = exact_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, events)
        path.write_text(path.read_text().replace('"label-0"', label, 1))
        with pytest.raises(SnapshotError, match=f"^bad snapshot: {message}$"):
            load_snapshot(path)

    def test_escaped_surrogate_pair_loads_as_one_character(self, tmp_path):
        est, interner, events = exact_fixture(20)
        path = tmp_path / "state.snap"
        save_snapshot(path, "exact", est, interner, events)
        path.write_text(path.read_text().replace('"label-0"', '"label-0\\ud83d\\uDE00"', 1))
        loaded = load_snapshot(path)
        assert "label-0\U0001f600" in loaded.interner
        save_snapshot(tmp_path / "again.snap", "exact", loaded.estimator, loaded.interner, events)
        assert load_snapshot(tmp_path / "again.snap").interner.labels == loaded.interner.labels

    def test_unknown_mode_on_save(self):
        out = io.StringIO()
        with pytest.raises(SnapshotError, match="unknown mode 'sideways'"):
            write_snapshot(out, "sideways", ExactEstimator(), Interner(), 0)
        assert out.getvalue() == ""

    def test_estimator_mode_mismatch_on_save(self, tmp_path):
        with pytest.raises(SnapshotError):
            save_snapshot(tmp_path / "s", "window", FadingEstimator(0.5), Interner(), 0)
        assert list(tmp_path.iterdir()) == []
        self._check_failed_save_keeps_target(
            tmp_path, "window", FadingEstimator(0.5), Interner(), 0, "requires a SlidingWindowEstimator"
        )

    def test_uninterned_labels_rejected_on_save(self, tmp_path):
        est = ExactEstimator()
        est.observe("raw-string-label")
        with pytest.raises(SnapshotError, match="interned"):
            save_snapshot(tmp_path / "s", "exact", est, Interner(), 1)
        assert list(tmp_path.iterdir()) == []
        self._check_failed_save_keeps_target(tmp_path, "exact", est, Interner(), 1, "interned")

    @pytest.mark.parametrize("at", [0, 1, _LABEL_SLICE + 1], ids=["first", "second", "past-a-slice"])
    def test_non_str_label_rejected_on_save(self, tmp_path, at):
        """json.dumps wrote an int label as 5, in a file that load_snapshot
        refuses; the label slices would stop in mid-file. Nothing is written."""
        labels = [f"c{i}" for i in range(_LABEL_SLICE + 2)]
        labels[at] = 5
        interner = Interner(labels)
        est = ExactEstimator()
        est.observe(interner.intern(5))
        out = io.StringIO()
        with pytest.raises(SnapshotError, match="^snapshots require str labels$"):
            write_snapshot(out, "exact", est, interner, 1)
        assert out.getvalue() == ""
        self._check_failed_save_keeps_target(tmp_path, "exact", est, interner, 1, "^snapshots require str labels$")

    @pytest.mark.parametrize("at", [0, 1, _LABEL_SLICE + 1], ids=["first", "second", "past-a-slice"])
    def test_lone_surrogate_label_rejected_on_save(self, tmp_path, at):
        """A label that UTF-8 cannot encode raised UnicodeEncodeError in
        mid-file, and a text stream took it. It raises SnapshotError, and
        no temp file is left."""
        labels = [f"c{i}" for i in range(_LABEL_SLICE + 2)]
        labels[at] += "\ud800"
        est = feed(ExactEstimator(), [0, 1, at])
        match = "^snapshots require labels that UTF-8 can encode$"
        with pytest.raises(SnapshotError, match=match):
            write_snapshot(io.StringIO(), "exact", est, Interner(labels), 3)
        self._check_failed_save_keeps_target(tmp_path, "exact", est, Interner(labels), 3, match)

    @pytest.mark.parametrize("counts", [{0: 2**64}, {0: 1, 1: -1}], ids=["2**64", "negative"])
    def test_int_outside_every_width_rejected_on_save(self, tmp_path, counts):
        est = ExactEstimator()
        est.counts = counts
        with pytest.raises(SnapshotError, match="interned integer class ids"):
            save_snapshot(tmp_path / "s", "exact", est, Interner(["a", "b"]), 1)
        assert list(tmp_path.iterdir()) == []

    def test_negative_class_id_rejected_on_save(self, tmp_path):
        # Filed by its index, id -1 would land in the list's last slot and
        # save "counts u8:02", which fails its sum check only at the next load.
        est = ExactEstimator()
        for label in (0, -1, -1):
            est.observe(label)
        self._check_failed_save_keeps_target(
            tmp_path, "exact", est, Interner(["a", "b"]), 3, "^snapshots require interned integer class ids$"
        )

    def test_save_over_a_fifo_is_refused(self, tmp_path):
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        est, interner, events = exact_fixture()
        with pytest.raises(SnapshotError, match="is not a regular file"):
            save_snapshot(fifo, "exact", est, interner, events)
        assert fifo.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["p"]

    def test_save_through_a_symlink_replaces_its_target(self, tmp_path):
        real = tmp_path / "real.snap"
        real.write_bytes(b"old\n")
        link = tmp_path / "link.snap"
        link.symlink_to(real)
        est, interner, events = exact_fixture()
        save_snapshot(link, "exact", est, interner, events)
        assert link.is_symlink() and link.resolve() == real
        assert load_snapshot(real).estimator.counts == est.counts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.snap", "real.snap"]

    @staticmethod
    def _check_failed_save_keeps_target(tmp_path, mode, est, interner, events, match):
        """A save that fails leaves the file it would replace byte-identical,
        and no ``*.tmp-*`` file beside it."""
        target = tmp_path / "keep.snap"
        target.write_bytes(b"precious\n")
        with pytest.raises(SnapshotError, match=match):
            save_snapshot(target, mode, est, interner, events)
        assert target.read_bytes() == b"precious\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.snap"]
