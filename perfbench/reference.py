"""A fixed reference workload that gauges how fast the machine runs now.

On a shared machine the speed of this process changes from one second
to the next: the same operation takes 0.09 s in one call and 0.16 s in
the next, and whole minutes run a third faster or slower than others.
The benchmark runs this workload before and after each timed operation,
untimed, and reports each sample scaled by NOMINAL_S over the mean of
the two reference times around it: seconds on a machine where this
workload takes NOMINAL_S. It imports nothing from `glyphorder`, and the
garbage collector is off while it runs, so the program's heap does not
move it.

A slow stretch need not slow every kind of work alike: against a
reference of parsing and dict work alone, runs of the sweep-heavy
`words` command made in fast stretches scaled about a sixth higher than
those made in slow ones. The repair sweep mostly moves items about in
long lists, so the workload does both kinds of work, in about equal
parts.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_S = 0.020       # about its time on the reference machine
_LIST = 40000
_rng = random.Random(1602)
_MOVES = [(_rng.randrange(_LIST), _rng.randrange(_LIST)) for _ in range(800)]


def reference_seconds() -> float:
    """Seconds taken by pure-Python work of the program's kind: format
    and split lines, fill a dict keyed by CJK characters and sort it;
    then move items about in a long list, as the sweep does."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        text = "".join("%d\t%s\t%d\n" % (k, chr(0x4E00 + k % 3001), k * 7 % 13)
                       for k in range(5000))
        table: dict[str, int] = {}
        for line in text.splitlines():
            a, b, c = line.split("\t")
            table[b] = table.get(b, 0) + int(c) + int(a) % 3
        ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        sum(v / (1 + len(k)) for k, v in ranked)
        items = list(range(_LIST))
        for src, dst in _MOVES:
            items.insert(dst, items.pop(src))
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(seconds: float, reference: float) -> float:
    """`seconds`, taken while the reference workload took `reference`,
    at the nominal machine speed."""
    return seconds * NOMINAL_S / reference
