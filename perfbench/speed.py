"""How fast the shared machine runs at a moment, and times scaled by it.

The benchmark gets a few cores of a host shared with other work. Its speed
there moves by tens of percent within seconds: a fixed loop timed over a
minute took 1.4 to 2.2 ms by turns, while its fastest time in any 20 s
stayed within a few percent. Times taken across such stretches spread with
the machine, not with the code. So the benchmark brackets every op, and
every set-up, with calibrations: a fixed pure-Python loop, timed. A time is
reported scaled by REFERENCE_S over the faster of the calibrations around
it, that is, as it would read on a machine that runs the loop in
REFERENCE_S. The loop is part of the benchmark, not of bloomlab, so a
change to bloomlab cannot move it.
"""

from time import perf_counter

ITERATIONS = 15_000
REFERENCE_S = 1e-3  # about the loop's fastest time on a 2-CPU cloud host


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    s = 0
    t0 = perf_counter()
    for i in range(ITERATIONS):
        s += i * i % 7
    return perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    """seconds, measured while the loop took calibration seconds, at the
    reference speed."""
    return seconds * REFERENCE_S / calibration
