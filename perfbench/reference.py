"""A fixed reference loop that tracks the machine's speed during a run.

On small shared virtual machines the speed at which the same pure-Python
code runs swings by up to 1.7x within seconds.  Measured on a 2-vCPU x86 VM,
in 6 s windows of one process: one dense-skeleton job took 0.126-0.209 s
(spread, IQR over median, 0.20), while its ratio to this loop, timed beside
it, had a spread of 0.04.  Such swings make raw times of one run useless for
comparing two commits.  So every job and every set-up probe is bracketed by
timings of this loop, which uses no code of the package, and its time is
scaled to the speed at which the loop takes ``NOMINAL_S``: seconds "at
reference speed".  A change to the package moves the scaled times as it
moves the raw ones; a swing of the machine moves both the job and the loop,
and so not their ratio.  Raw times are kept beside the scaled ones in every
results file.
"""

from __future__ import annotations

import time

# The loop's time on a 2-vCPU x86 VM (Xeon, 2.0 GHz) in its fast phases,
# CPython 3.11.  Any constant would do; this one keeps scaled times close to
# the raw times of an unloaded machine of that kind.
NOMINAL_S = 0.010
ROUNDS = 500

_BYTES = tuple(range(256))
_TABLE = tuple((b * 167 + 13) & 255 for b in _BYTES)
_ROUNDS = (None,) * ROUNDS


def loop() -> int:
    """Interpreter work that allocates nothing: only small ints (which
    CPython caches) and tuples built at import.  Its time therefore follows
    the machine's speed, not the state of the calling process's heap, which
    the jobs before it leave behind."""
    acc = 0
    for _ in _ROUNDS:
        for b in _BYTES:
            acc = _TABLE[acc ^ b]
            if acc & 1:
                acc = (acc + b) & 255
    return acc


def measure() -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def scale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the loop took ``ref_s``, at reference speed."""
    return seconds * NOMINAL_S / ref_s
