"""Host-speed calibration: fixed Python work timed between the program's
operations, so that timings can be scaled to one reference speed.

On a shared host the same work runs at 1.0x to 1.7x its best time, in
phases from fractions of a second to many minutes. Whatever slows the
program slows other work of the same interpreter at the same moment, so a
fixed sample of work is timed between the program's operations, and each
timing is scaled by the mean of the samples taken around it:

    scaled = seconds * REF_S / mean(samples)

One sample has two parts. Random lookups in a 300 000-entry dict of strings
are interpreter dispatch plus cache misses; alone, they react more strongly
than the program to the slowest phases. A small taxonomy's ancestor sets,
written out as text and read back, are the allocation-heavy string, set and
dict work that the program itself does. Both are the benchmark's code, not
the program's, so a change to the program leaves them alone.
"""

from __future__ import annotations

import random
from time import perf_counter

KEYS = 300_000  # entries of the table: about 38 MB, well past the caches
PROBES = 60_000  # lookups per sample
CLASSES = 400  # classes of the sample taxonomy
ROUNDS = 6  # taxonomy round trips per sample
REF_S = 0.06  # the reference sample time: about an idle host's


def _taxonomy_round_trip() -> dict[str, list[str]]:
    rng = random.Random(7)
    parents = [[rng.randrange(max(0, i - 5), i)] if i else [] for i in range(CLASSES)]
    ancestors: list[set[str]] = []
    for ps in parents:
        anc: set[str] = set()
        for p in ps:
            anc.add(f"C{p:04d}")
            anc |= ancestors[p]
        ancestors.append(anc)
    text = "\n".join(f"class C{i:04d} : " + " ".join(sorted(anc)[:5]) for i, anc in enumerate(ancestors))
    parsed = {}
    for line in text.split("\n"):
        head, _, tail = line.partition(" : ")
        parsed[head.split()[1]] = tail.split()
    return parsed


class Calibration:
    def __init__(self) -> None:
        self.table = {f"k{i}": i for i in range(KEYS)}
        keys = list(self.table)
        random.Random(0).shuffle(keys)
        self.probe = keys[:PROBES]

    def sample(self) -> float:
        """Seconds of one sample of the fixed work."""
        table = self.table
        total = 0
        start = perf_counter()
        for key in self.probe:
            total += table[key]
        for _ in range(ROUNDS):
            _taxonomy_round_trip()
        return perf_counter() - start


def scaled(seconds: float, samples: list[float]) -> float:
    """`seconds` at reference speed, given the samples taken around it."""
    return seconds * REF_S * len(samples) / sum(samples)
