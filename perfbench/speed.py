"""Host-speed sampling: timings scaled to a reference CPU speed.

The benchmark's host can be a share of a machine whose speed swings by up
to 2x from one minute to the next, far beyond any bound a timing may
carry.  While a repetition runs, :func:`sample_while` keeps waking on the
CPUs the repetition is pinned to and times a fixed pure-python
:func:`probe` there, so the probes see the host's speed at the same
moments and on the same CPUs as the program.  :func:`scaled` turns a
measured duration into *reference seconds*: the time the same work would
take at the speed where one probe takes ``REFERENCE_S``.

If the probe runs at speed ``q(t) = REFERENCE_S / p(t)`` relative to the
reference, the program runs at ``q(t) ** EXPONENT``, and the reference
time of a window is its length times the mean of ``q ** EXPONENT`` over
the probes in it (they start at even intervals, so their mean is a mean
over time).  The program slows more than the probe when the host does:
over 374 repetitions of the three workloads at probe speeds of 0.93 to
1.70, the log of a unit's wall time fell with the log of its probed
speed with slopes of 1.36 (``cell``), 1.21 (``serve-restore``) and 1.18
(``sweep-pool``); set-up gave 1.1.  ``EXPONENT`` is 1.2 for every window.

A probe preempts the program for about a millisecond every
``INTERVAL_S`` (about 2 % of a CPU); :func:`overlaps` finds the latencies a
probe sat inside, so that sub-millisecond samples can drop them.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import time

#: Loop iterations of one probe, and its duration at the reference speed
#: (about the typical speed of the 2-CPU Xeon container of the reference
#: runs).
PROBE_LOOPS = 5000
REFERENCE_S = 0.001
#: How much more the program's speed moves than the probe's (see above).
EXPONENT = 1.2
#: Pause between probes, and the fewest probes a scale factor averages.
INTERVAL_S = 0.05
MIN_PROBES = 3


def probe(loops: int = PROBE_LOOPS) -> int:
    """Fixed interpreter work: integer arithmetic and small-dict stores."""
    table = {}
    total = 0
    for i in range(loops):
        table[i & 63] = total
        total = (total + i * i) % 1_000_003
    return total


def sample_while(proc: subprocess.Popen, cpus: list[int], deadline: float) -> list[list[float]]:
    """Probe the CPUs in ``cpus`` in turn until ``proc`` exits.

    Returns ``[start, seconds, cpu]`` per probe, on the ``perf_counter``
    clock (system-wide monotonic, so comparable with the child's
    timestamps).
    Raises :class:`subprocess.TimeoutExpired` at ``deadline`` (a
    ``time.monotonic`` value); the caller kills and waits for ``proc``.
    """
    own = os.sched_getaffinity(0)
    probes: list[list[float]] = []
    turn = 0
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(proc.args, 0)
            time.sleep(INTERVAL_S)
            cpu = cpus[turn % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            turn += 1
            start = time.perf_counter()
            probe()
            probes.append([start, time.perf_counter() - start, cpu])
    finally:
        os.sched_setaffinity(0, own)
    return probes


def factor(window: tuple[float, float], probes: list[list[float]]) -> float:
    """Reference seconds per measured second over ``window``.

    Uses every probe that starts inside the window, or the ``MIN_PROBES``
    nearest to it when fewer do.
    """
    if not probes:
        return float("nan")
    start, end = window

    def distance(p: list[float]) -> float:
        return max(start - p[0], p[0] - end, 0.0)

    inside = [p for p in probes if start <= p[0] <= end]
    if len(inside) < MIN_PROBES:
        inside = sorted(probes, key=distance)[:MIN_PROBES]
    return sum((REFERENCE_S / p[1]) ** EXPONENT for p in inside) / len(inside)


def scaled(seconds: float, window: tuple[float, float], probes: list[list[float]]) -> float:
    """``seconds`` measured over ``window``, in reference seconds."""
    return seconds * factor(window, probes)


def overlaps(start: float, seconds: float, probes: list[list[float]]) -> bool:
    """Whether a probe ran during ``[start, start + seconds]``.  ``probes``
    is in start order, as :func:`sample_while` returns it."""
    index = bisect.bisect_left(probes, [start + seconds])
    return index > 0 and probes[index - 1][0] + probes[index - 1][1] > start
