"""How fast the machine runs plain Python right now.

The virtual machine this benchmark was built on shares its host: the same
single-threaded code switches between two speeds some 50 % apart, for
seconds to minutes at a time, which is more than any bound the benchmark
can set.  So whatever the benchmark times, it also times
``reference()``, a fixed pure-Python loop that touches nothing of
parzeta, right before and right after, and reports the time scaled by
``factor(before, after)``: seconds on this machine at the speed it has
in its fast phase.  The loop runs with the garbage collector off, so
the size of the program's heap does not change it.
"""

from __future__ import annotations

import gc
import time

# reference() in the fast phase of a 2-core x86-64 virtual machine, Python 3.11
REFERENCE_S = 0.00098
_A = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1)


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(c % p for c in out)


def _loop():
    seen = {}
    t0 = time.perf_counter()
    for i in range(120):
        b = tuple((x + i) % 2 for x in _A)
        c = _mul(_A, b, 2)
        seen[c] = seen.get(c, 0) + 1
    return time.perf_counter() - t0


def reference():
    """Seconds the reference loop takes: the fastest of three runs, so a
    cold cache or one interrupt does not count.

    Tuple arithmetic over F_2[t] and dict counting, the kind of work
    parzeta's loops do, with the collector off while it runs.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop() for _ in range(3))
    finally:
        if was_enabled:
            gc.enable()


def factor(before, after):
    """Turns seconds measured between two reference() times into reference
    seconds."""
    return 2 * REFERENCE_S / (before + after)


def timed(fn, *args):
    """(fn's result, its reference-speed seconds) for one call of fn."""
    before = reference()
    t0 = time.perf_counter()
    out = fn(*args)
    elapsed = time.perf_counter() - t0
    return out, elapsed * factor(before, reference())
