"""Machine speed, measured by a fixed calibration loop.

The shared virtual machines this benchmark runs on change speed by up to
2x for minutes at a time (other tenants share the physical cores), and
the slow spells hit wall time and CPU time alike.  Medians within a
36-second run cannot remove a spell that lasts the whole run.  So each
timed interval (a job, a set-up) is paired with ``calibrate()`` runs just
before and after it, and reported at reference speed:

    seconds * REF_S / calibration seconds

A single 10 ms calibration is a noisy sample of a job that runs for
seconds, so the calibrations next to a job run for ``CAL_SHARE`` of its
length.

A faster program lowers the reported value exactly as it lowers wall
time; a slower machine does not raise it.  The calibration loop uses no
trajrot code, so no change to the program moves it.  It mixes the three
kinds of work the workloads do: interpreter-bound Python, numpy calls on
tiny arrays (the integrator) and numpy calls on large arrays
(``gausslink``).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Calibration seconds on an uncontended 2-core x86-64 VM with Python
# 3.11 and numpy 2.4; reported times are seconds at that speed.
REF_S = 0.01
# calibration seconds spent next to a job, per second of the job
CAL_SHARE = 0.05

_TINY = np.linspace(0.0, 1.0, 3)
_LARGE = np.linspace(0.0, 1.0, 100_000)


def _work():
    s = 0.0
    for i in range(50_000):
        s += (i % 7) * 0.5
    v = _TINY.copy()
    for _ in range(3_000):
        v = v * 0.999 + _TINY
        s += float(v[1])
    for _ in range(3):
        s += float(np.arctan2(np.sqrt(_LARGE + 1.0), _LARGE + 2.0).sum())
    return s


def calibrate(budget_s=0.0):
    """Seconds the calibration loop takes now: the median of as many runs
    as fit in ``budget_s``, and at least one."""
    runs = []
    begin = perf_counter()
    while not runs or perf_counter() - begin < budget_s:
        t0 = perf_counter()
        _work()
        runs.append(perf_counter() - t0)
    return statistics.median(runs)


def at_ref(seconds, cal_before, cal_after):
    """``seconds`` measured between two calibrations, at reference speed."""
    return seconds * REF_S * 2.0 / (cal_before + cal_after)
