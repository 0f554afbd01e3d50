"""Every small workload, exhaustively: the engine, the oracle and the brute-force rule agree.

The grid is every workload of at most three processes with arrival times
0..2 and service times 1, 2, 3 and 101, plus static priorities 0..1 under
PR. Service time 101 floors HRRN ratios to one value over several waits,
so the grid holds every kind of tie each policy has at this size: equal
arrivals, equal services, equal priorities and equal floored ratios.
Processes are indexed 1..n in list order; the schedule does not depend on
list order, so this covers every workload up to it.

Under PR the service time enters no rank, only the instant the machine
frees, and every arrival is at most 2: a process with a service time of 3
or more ends after the last arrival wherever it starts, so 101 elects as 3
does. PR's grid leaves 101 out, which keeps the test within 3 s.
"""

import itertools

import pytest

from tcpnsched import Policy, PriorityPair, Process, Workload, oracle_schedule, simulate
from tcpnsched.sched import FINISHED
from test_oracle import reference_schedule

MAX_N = 3
ARRIVALS = range(3)


def grid(policy):
    """The ``(it, st, priority)`` choices of one process under ``policy``."""
    if policy is Policy.PR:
        return list(itertools.product(ARRIVALS, (1, 2, 3), range(2)))
    return list(itertools.product(ARRIVALS, (1, 2, 3, 101), (0,)))


def small_workloads(policy):
    """Every workload of 1..MAX_N processes over the grid of ``policy``."""
    for n in range(1, MAX_N + 1):
        for combo in itertools.product(grid(policy), repeat=n):
            yield Workload(
                tuple(Process(pi, it, st, pr=PriorityPair(prio, 0)) for pi, (it, st, prio) in enumerate(combo, 1))
            )


def schedule(records):
    return [(p.pi, p.es, p.es + p.st, p.wt, tuple(p.pr)) for p in records]


@pytest.mark.parametrize("policy", list(Policy))
def test_engine_oracle_and_rule_agree_on_every_small_workload(policy):
    count = 0
    for w in small_workloads(policy):
        expected = reference_schedule(w, policy)
        assert schedule(simulate(w, policy, trace=False).marking[FINISHED].value) == expected, w.processes
        assert schedule(oracle_schedule(w, policy)) == expected, w.processes
        count += 1
    assert count == sum(len(grid(policy)) ** n for n in range(1, MAX_N + 1))
