"""Tampered state files: each one is rejected cleanly or resumes to sane metrics.

A small state is saved in each mode. Variants of it drop, duplicate or swap
lines, replace each numeric token with an extreme or malformed value, break
or re-encode the hex of the int-list field, put surrogate escapes into a
label, or cut the file after each line.
Every variant must either end in exit 2 with one
``impurity-stream: error:`` line and no rows, or resume through 50 more labels
with exit 0 and finite metrics (Gini in [0, 1], entropy >= 0), and then save
a state that loads again. Each resume runs a second time with a row per 16
events, where the window reads in blocks, and must agree with the first.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re

import pytest

from conftest import hex_ints
from impurity_stream.cli import EXIT_INPUT, EXIT_OK, main

MODES = {
    "window": ["--window-size", "5", "--refresh-every", "4"],
    "fading": ["--alpha", "0.9"],
    "exact": [],
}
# The fields of each mode's state file after its header, every one of which
# the variants drop, duplicate, swap and change.
FIELDS = {
    "window": ["events", "labels", "capacity", "refresh_period", "events_since_refresh", "window"],
    "fading": ["events", "labels", "alpha", "d", "u", "counts"],
    "exact": ["events", "labels", "counts"],
}
# 10**20 is above sys.maxsize: a window that large must still run in blocks.
# -0x1p-10 is a negative float, which no fading d (n²·G) can be.
REPLACEMENTS = ["-1", "0", "1e308", "nan", "inf", "-0x0p+0", "-0x1p-10", "text", "100000000000000000000"]
NUMBER = re.compile(r"-?0x[0-9a-f.]+p[-+]\d+|\d+")
# An int-list field: its name, the width of its items in bits and their hex.
HEX_FIELD = re.compile(r"(\w+) u(8|16|32|64):([0-9a-f]*)")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _resume(name, argv):
    """Run one resume. It must end in exit 2 with one error line and no
    rows, giving None, or in exit 0 with finite metrics, giving its rows."""
    code, out, err = _run(argv)
    if code == EXIT_INPUT:
        assert out == "", name
        assert err.startswith("impurity-stream: error:") and err.count("\n") == 1, (name, err)
        return None
    assert (code, err) == (EXIT_OK, ""), (name, err)
    rows = [row.split("\t") for row in out.splitlines()]
    for _, gini, entropy in rows:
        assert 0.0 <= float(gini) <= 1.0 and 0.0 <= float(entropy) < math.inf, (name, gini, entropy)
    return rows


def _variants(lines):
    """Every tampered copy of a state file's lines, as (name, lines)."""
    for i in range(len(lines)):
        yield f"drop {i}", lines[:i] + lines[i + 1 :]
        yield f"duplicate {i}", lines[: i + 1] + lines[i:]
        yield f"truncate after {i}", lines[:i]
        for j in range(i + 1, len(lines)):
            swapped = list(lines)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield f"swap {i} {j}", swapped
        if lines[i].startswith("labels "):
            # JSON escapes of surrogates put before the first label: a lone
            # one makes a label that no UTF-8 file can hold, a pair one
            # character that it can.
            for escapes in ("\\ud800", "\\uDFFF", "\\ude00\\ud83d", "\\ud83d\\ude00"):
                yield f"line {i} label {escapes}", lines[:i] + [lines[i].replace('["', '["' + escapes, 1)] + lines[i + 1 :]
            continue
        for match in NUMBER.finditer(lines[i]):
            for value in REPLACEMENTS:
                changed = list(lines)
                changed[i] = lines[i][: match.start()] + value + lines[i][match.end() :]
                yield f"line {i} {match.group()} -> {value}", changed
        field = HEX_FIELD.fullmatch(lines[i])
        if field:
            for what, line in _hex_variants(*field.groups()):
                yield f"line {i} {what}", lines[:i] + [line] + lines[i + 1 :]


def _hex_variants(key, width, digits):
    """Broken and re-encoded copies of the line ``key uWIDTH:DIGITS``."""
    data, size = bytes.fromhex(digits), int(width) // 8
    values = [int.from_bytes(data[at : at + size], "little") for at in range(0, len(data), size)]
    assert hex_ints(int(width), values) == f"u{width}:{digits}"
    head = f"{key} u{width}:"
    yield "odd length", head + digits + "0"
    yield "non-hex digit", head + digits[:-1] + "g"
    yield "space inside", head + digits[:2] + " " + digits[2:]
    yield "spaces inside, even length", head + digits[:2] + "  " + digits[2:]
    yield "trailing spaces", head + digits + "  "
    for tag in ("u12", "u0", "i8", "U8", "u", ""):
        yield f"width {tag!r}", f"{key} {tag}:{digits}"
    yield "a byte short of whole u16 items", f"{key} {hex_ints(16, values)[:-2]}"
    yield "wider", f"{key} {hex_ints(64, values)}"
    for value in (0, len(values) + 100, 2**16, 2**53 + 1, 2**64 - 1):
        yield f"first item {value}", f"{key} {hex_ints(64, [value] + values[1:])}"
    yield "one item more", f"{key} {hex_ints(8, values + [0])}"
    yield "one item less", f"{key} {hex_ints(8, values[:-1])}"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_tampered_state_is_rejected_or_resumes_sanely(tmp_path, monkeypatch, mode):
    monkeypatch.setenv("IMPURITY_STREAM_LOG", "quiet")
    rng = random.Random(20261018)
    head = tmp_path / "head.txt"
    head.write_text("".join(f"c{rng.randrange(4)}\n" for _ in range(12)), encoding="utf-8")
    tail = tmp_path / "tail.txt"
    tail.write_text("".join(f"c{rng.randrange(6)}\n" for _ in range(50)), encoding="utf-8")
    state, variant, again = (tmp_path / name for name in ("state", "variant", "again"))
    code, _, _ = _run(["run", "--mode", mode, *MODES[mode], "--input", str(head), "--save-state", str(state)])
    assert code == EXIT_OK
    lines = state.read_text(encoding="utf-8").splitlines()
    assert [line.split(" ", 1)[0] for line in lines[1:]] == FIELDS[mode]
    assert HEX_FIELD.fullmatch(lines[-1])

    count = 0
    for name, changed in _variants(lines):
        count += 1
        variant.write_text("".join(line + "\n" for line in changed), encoding="utf-8")
        resume = ["run", "--mode", mode, "--input", str(tail), "--load-state", str(variant)]
        rows = _resume(name, resume + ["--save-state", str(again)])
        # Once more at a row per 16 events, where the window reads in blocks:
        # the rows that end an interval, and the last, as written above.
        sparse = _resume(name, resume + ["--emit-every", "16"])
        if rows is None:
            assert sparse is None, name
            continue
        assert len(rows) == 50, name
        due = [row for i, row in enumerate(rows, 1) if (int(row[0]) + 1) % 16 == 0 or i == len(rows)]
        assert sparse == due, name
        code, _, err = _run(["run", "--mode", mode, "--input", str(head), "--load-state", str(again)])
        assert (code, err) == (EXIT_OK, ""), (name, err)
    assert count >= 50
