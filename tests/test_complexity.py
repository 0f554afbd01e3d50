"""Growth of the engine's and the oracle's work per doubling of n, counted exactly.

Work is the number of ``line`` events that code of ``src/tcpnsched`` raises
under ``sys.settrace``. For a given input the count is the same on every
run, unlike a time, so a shape whose cost is linear in n must read close to
x2 per doubling. C-level work, such as ``bisect.insort``'s memmove or
``sorted``, counts as one line, so this complements timing; it does not
replace it.
"""

import random
import sys
from pathlib import Path

import pytest

import tcpnsched
from tcpnsched import Policy, Process, PriorityPair, Workload, oracle_schedule, simulate

PACKAGE_FILES = {str(path) for path in Path(tcpnsched.__file__).parent.glob("*.py")}
SIZES = (250, 500, 1000)
#: Smaller sizes for the shape that is still quadratic, so that it traces in well under a second.
REPORTED_SIZES = (100, 200, 400)
#: The most a doubling of n may multiply a gated shape's line events by.
GROWTH_BOUND = 2.2


def _workload(rows) -> Workload:
    """A workload of ``(pi, it, st)`` rows."""
    return Workload(tuple(Process(pi, it, st, 0, 0, PriorityPair(0, 0)) for pi, it, st in rows))


def fcfs_chain(n: int) -> Workload:
    """Each process arrives as the one before it finishes: ``it = 2i + 1``, ``st = 1``."""
    return _workload((i + 1, 2 * i + 1, 1) for i in range(n))


def burst(n: int) -> Workload:
    """Every process arrives at t=0, with ``st`` cycling through 1..20."""
    return _workload((i + 1, 0, i % 20 + 1) for i in range(n))


def overload(n: int) -> Workload:
    """One arrival per tick, ``it = i``, with ``st`` cycling through 1..20, so the ready queue grows."""
    return _workload((i + 1, i, i % 20 + 1) for i in range(n))


def distinct_burst(n: int) -> Workload:
    """Every process arrives at t=0, each with its own ``st`` in 1..10**6."""
    return _workload((i + 1, 0, st) for i, st in enumerate(random.Random(n).sample(range(1, 10**6 + 1), n)))


def engine(w: Workload, policy: Policy) -> None:
    simulate(w, policy, trace=False)


def line_events(path, w: Workload, policy: Policy) -> int:
    """The ``line`` events of package code while ``path(w, policy)`` runs.

    Any tracer already set, such as ``tests/line_coverage.py``'s, is
    suspended for the count and restored after it.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in PACKAGE_FILES else None

    # The net of each policy is built once and cached; build it uncounted.
    simulate(fcfs_chain(1), policy, trace=False)
    previous = sys.gettrace()
    sys.settrace(start)
    try:
        path(w, policy)
    finally:
        sys.settrace(previous)
    return count


def growth(shape, path, policy: Policy, sizes=SIZES) -> list[float]:
    """The factor by which each doubling in ``sizes`` multiplies the line events."""
    counts = [line_events(path, shape(n), policy) for n in sizes]
    return [later / earlier for earlier, later in zip(counts, counts[1:])]


GATED = [
    (fcfs_chain, Policy.FCFS),
    (burst, Policy.FCFS),
    (burst, Policy.SJF),
    (burst, Policy.HRRN),
    (overload, Policy.HRRN),
]


@pytest.mark.parametrize("path", [engine, oracle_schedule], ids=["engine", "oracle"])
@pytest.mark.parametrize(
    "shape, policy", GATED, ids=[f"{shape.__name__}-{policy.value}" for shape, policy in GATED]
)
def test_line_events_grow_linearly(shape, policy, path):
    ratios = growth(shape, path, policy)
    print(f"{shape.__name__} {policy.value}, {path.__name__}, line events per doubling of n: {ratios}")
    assert max(ratios) <= GROWTH_BOUND, f"line events per doubling of n: {ratios}"


@pytest.mark.parametrize("path", [engine, oracle_schedule], ids=["engine", "oracle"])
def test_distinct_service_times_reported(path):
    # Still quadratic in both paths (x3.3-3.9 per doubling), so it is reported, not gated.
    ratios = growth(distinct_burst, path, Policy.HRRN, REPORTED_SIZES)
    print(f"distinct-st HRRN burst, {path.__name__}, line events per doubling of n: {ratios}")
