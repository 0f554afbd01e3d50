"""Calibrated time: host time scaled to a reference host speed.

The reference VM's speed drifts by tens of percent within seconds and
between minutes, because other guests share its cores; medians of host time
alone then spread too widely between runs to gate a change on. So every timed
group of calls is bracketed by two slices of fixed pure-Python work, shaped
like the engine's hot loop, and its time is scaled by how much slower than
REFERENCE_S those slices ran. The slices share no code with tcpnsched: a
change to the program cannot move them, only the host's speed can.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

#: Median time of one slice on the reference VM (2-vCPU Firecracker guest,
#: Python 3.11.7). Calibrated seconds are seconds on a host that runs a
#: slice in exactly this time.
REFERENCE_S = 0.025

now = time.perf_counter


@dataclass(frozen=True, slots=True)
class _Record:
    pi: int
    it: int
    st: int
    wt: int = 0


def calibration_slice():
    """Seconds one fixed slice of work takes: record rebuilds, a min scan, slicing, JSON."""
    start = now()
    recs = [_Record(i, i % 97, 1 + i % 20) for i in range(500)]
    for t in range(40):
        recs = [_Record(r.pi, r.it, r.st, t - r.it) for r in recs]
        best = min(range(len(recs)), key=lambda k: (recs[k].st, recs[k].it, recs[k].pi))
        recs = recs[:best] + recs[best + 1 :] + [recs[best]]
    json.dumps([{"pi": r.pi, "wt": r.wt} for r in recs], indent=2)
    return now() - start


class Clock:
    """Times groups of calls in host seconds and in calibrated seconds."""

    def __init__(self):
        self.last = calibration_slice()

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (host seconds, calibrated seconds, its result).

        The calibrated time scales the host time by REFERENCE_S over the mean
        of the slices just before and just after the call.
        """
        start = now()
        out = fn(*args)
        host = now() - start
        after = calibration_slice()
        calibrated = host * 2 * REFERENCE_S / (self.last + after)
        self.last = after
        return host, calibrated, out
