"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of one core changes by up to
2.5x within seconds, while the program under test stays the same.  Every
timing is therefore scaled to a fixed reference speed:

    scaled = seconds * REFERENCE_S / mean(calibrate() before, calibrate() after)

where :func:`calibrate` times a fixed pure-Python loop (dict updates and
integer arithmetic, the same kind of work the partitioners do) right before
and right after the timed interval.  ``REFERENCE_S`` is that loop's time on
an uncontended core of the 2-core x86 host the baseline was measured on, so
scaled numbers read as wall time on that host when nobody else is busy.
The correction is partial: through a long busy period the ops slow down
more than the loop, and scaled times still read 10-20% high.  The loop is
the benchmark's own code: a change to ``src/`` cannot move it.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.02


def calibrate() -> float:
    """Seconds for the fixed reference loop, now."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(120000):
        key = i % 997
        counts[key] = counts.get(key, 0) + 1
        acc += (i * key) % 13
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` converted to the reference machine speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
