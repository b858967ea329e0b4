"""Shared test helpers: bit-level float comparison, snapshot int fields and
randomized op walks."""

from __future__ import annotations

import random
import struct
from typing import Dict, Iterator, Tuple

from impurity_stream import EntropyState, GiniState


def bits(x: float) -> bytes:
    """Raw IEEE-754 bytes, for bit-for-bit equality assertions."""
    return struct.pack("<d", x)


def hex_ints(width: int, values) -> str:
    """A snapshot's list of ints as version 5 writes it: ``uW:`` and the hex
    of each value as an unsigned little-endian int of ``width`` bits."""
    return f"u{width}:" + b"".join(v.to_bytes(width // 8, "little") for v in values).hex()


def random_impurity_walk(
    rng: random.Random, steps: int, max_classes: int = 40
) -> Iterator[Tuple[str, GiniState, EntropyState, Dict[int, float]]]:
    """Drive both incremental states through a random operation sequence.

    Yields (op, gini_state, entropy_state, shadow) after every step, where
    shadow is the raw label -> mass dict the states must agree with. Ops mix
    unit increments/decrements with whole-class insertions and deletions,
    and mix integer and float masses.
    """
    g = GiniState()
    h = EntropyState()
    shadow: Dict[int, float] = {}
    next_label = 0

    def fresh_mass() -> float:
        if rng.random() < 0.7:
            return float(rng.randint(1, 5))
        return round(rng.uniform(0.5, 4.0), 3)

    for _ in range(steps):
        choices = []
        if len(shadow) < max_classes:
            choices += ["append", "add_class", "inc_new"]
        if shadow:
            choices += ["inc_old"] * 3 + ["del_class"]
            if any(m >= 1.0 for m in shadow.values()):
                choices += ["dec"] * 2
        op = rng.choice(choices)

        if op in ("append", "add_class"):
            mass = fresh_mass()
            g = g.append(mass) if op == "append" else g.add_class(mass)
            h = h.append(mass) if op == "append" else h.add_class(mass)
            shadow[next_label] = mass
            next_label += 1
        elif op == "inc_new":
            g = g.inc(0.0)
            h = h.inc(0.0)
            shadow[next_label] = 1.0
            next_label += 1
        elif op == "inc_old":
            label = rng.choice(list(shadow))
            before = shadow[label]
            g = g.inc(before)
            h = h.inc(before)
            shadow[label] = before + 1.0
        elif op == "dec":
            label = rng.choice([l for l, m in shadow.items() if m >= 1.0])
            after = shadow[label] - 1.0
            g = g.dec(after)
            h = h.dec(after)
            if after > 0.0:
                shadow[label] = after
            else:
                del shadow[label]
        else:  # del_class
            label = rng.choice(list(shadow))
            mass = shadow[label]
            g = g.del_class(mass)
            h = h.del_class(mass)
            del shadow[label]

        yield op, g, h, shadow
