"""Independent event-driven non-preemptive scheduler used for differential testing.

This module deliberately shares no code with the net kernel or the scheduler
net: selection works by ranking key tuples, never by pairwise comparison, so
agreement between the two paths is evidence rather than tautology. Under
FCFS, SJF and PR a process's rank does not depend on the clock, so each
process is ranked once, on arrival, and the ready set is a binary heap of
``(rank, process)`` entries. Under HRRN the rank grows with the wait, so the
ready set is kept per service time as a queue of arrival groups, earliest
first, each a queue of the processes that arrived at one instant, in ``pi``
order. With ``st`` fixed the response ratio never rises as ``it`` grows, so
a dispatch computes one ratio per distinct ``st`` plus one per group tied
at the top ratio, not one per ready process.

The schedule it returns is the one the net ends with in Finished: the
stamped ``Process`` records in completion order. Only the data model
(Process/Policy/PriorityPair/Workload) and ``workload``'s builders of records
are shared: ``_processes`` of fresh ones, ``_new_process`` and ``_new_pair``.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from operator import attrgetter
from typing import Callable, Sequence

from .workload import Policy, Process, Workload, _new_pair, _new_process, _processes

#: The HRRN ready set: per service time, the arrival groups in arrival order,
#: each a queue of the processes of one ``(st, it)`` in ``pi`` order.
_Groups = dict[int, deque[deque[Process]]]


def _rank_key(policy: Policy) -> Callable[[Process], tuple[int, int, int]]:
    """The key ranking a ready process under FCFS, SJF or PR: the smallest tuple wins.

    The tuple is ``(major, minor, pi)`` of the priority pair the dispatch
    records. PR's major, whose greater value is higher priority, is negated;
    minors and the index always prefer the earlier/lower value. Since ``pi``
    is unique, two ranks never tie.
    """
    if policy is Policy.FCFS:
        return lambda p: (p.it, 0, p.pi)
    if policy is Policy.SJF:
        return lambda p: (p.st, p.it, p.pi)
    return lambda p: (-p.pr.major, p.it, p.pi)


def _hrrn_take(ready: _Groups, now: int) -> tuple[int, Process]:
    """Remove the ready process with the highest x100-floored response ratio at ``now``.

    Returns the ratio and the process; among equal ratios the lowest ``pi``
    wins. Within one deque ``it`` grows, so the ratio ``(st + now - it) *
    100 // st`` never rises: the head group holds the deque's best ratio,
    and the groups at the top ratio are a prefix of the deque. Each group
    is in ``pi`` order, so its head is its lowest ``pi``.
    """
    ratios = [(st + now - groups[0][0].it) * 100 // st for st, groups in ready.items()]
    top = max(ratios)
    pick = None
    for st, ratio in zip(ready, ratios):
        if ratio != top:
            continue
        # The head group is at the top; walk the later groups while they tie it.
        for k, group in enumerate(ready[st]):
            if k and (st + now - group[0].it) * 100 // st != top:
                break
            if pick is None or group[0].pi < pick[0]:
                pick = (group[0].pi, st, k)
    _, st, k = pick
    groups = ready[st]
    best = groups[k].popleft()
    if not groups[k]:
        del groups[k]
        if not groups:
            del ready[st]
    return top, best


def oracle_schedule(w: Workload, policy: Policy) -> list[Process]:
    """Directly simulate the non-preemptive schedule, one dispatch at a time.

    Whenever the machine is free: if nothing has arrived, jump to the next
    arrival; otherwise dispatch the best-ranked arrived process and run it
    to completion. Returns the finished records in completion order, each
    stamped at its dispatch instant t with es = t, wt = t - it and the
    priority pair it was ranked by. ``w`` was checked when it was built, so
    this raises no WorkloadError.
    """
    hrrn, negated = policy is Policy.HRRN, policy is Policy.PR
    key = None if hrrn else _rank_key(policy)
    # Sorted by (it, pi): HRRN arrivals only ever append to a deque or group,
    # so each group is in pi order.
    pending = sorted(w.processes, key=attrgetter("it", "pi"))
    # FCFS, SJF and PR: a heap of (rank, process); HRRN: see _Groups.
    ready: list | _Groups = {} if hrrn else []
    finished: list[Process] = []
    t = 0
    i = 0
    while i < len(pending) or ready:
        if not ready and pending[i].it > t:
            t = pending[i].it
        while i < len(pending) and pending[i].it <= t:
            p = pending[i]
            if hrrn:
                groups = ready.setdefault(p.st, deque())
                if not groups or groups[-1][0].it != p.it:
                    groups.append(deque())
                groups[-1].append(p)
            else:
                heapq.heappush(ready, (key(p), p))
            i += 1
        if hrrn:
            ratio, best = _hrrn_take(ready, t)
            pr = _new_pair((ratio, 0))
        else:
            (major, minor, _), best = heapq.heappop(ready)
            pr = _new_pair((-major if negated else major, minor))
        finished.append(_new_process((best.pi, best.it, best.st, t - best.it, t, pr)))
        t += best.st
    return finished


def diff_results(engine, oracle: Sequence[Process], oracle_policy: Policy | None = None) -> list[str]:
    """Compare an engine result against the oracle's records; empty means agreement.

    ``engine`` is a ``metrics.ScheduleResult``, left unannotated so that this
    module imports nothing of the engine's side. Checks the completion order,
    then every field of every finished record, reporting the first
    divergence found.
    """
    if oracle_policy is not None and oracle_policy is not engine.policy:
        return [
            f"policy mismatch: engine ran {engine.policy.value}, oracle ran {oracle_policy.value}"
        ]
    if len(engine.finished) != len(oracle):
        return [
            f"length mismatch: engine finished {len(engine.finished)} processes, "
            f"oracle dispatched {len(oracle)}"
        ]
    for pos, (p, q) in enumerate(zip(engine.finished, oracle)):
        if p.pi != q.pi:
            return [f"position {pos}: engine dispatched pi={p.pi}, oracle dispatched pi={q.pi}"]
        if p == q:
            continue
        for label, a, b in (
            ("dispatch time", p.es, q.es),
            ("waiting time", p.wt, q.wt),
            ("priority pair", tuple(p.pr), tuple(q.pr)),
            ("arrival time", p.it, q.it),
            ("service time", p.st, q.st),
        ):
            if a != b:
                return [f"pi={p.pi}: {label} differs (engine {a}, oracle {b})"]
    return []


def random_workload(
    rng: random.Random,
    min_n: int = 1,
    max_n: int = 50,
    max_it: int = 100,
    max_st: int = 20,
    max_priority: int = 9,
    name: str = "",
) -> Workload:
    """A reproducible random workload; duplicates allowed everywhere but pi."""
    n = rng.randint(min_n, max_n)
    pis = list(range(1, n + 1))
    rng.shuffle(pis)
    # Each record draws it, st and priority in turn. An empty workload has no
    # rows to transpose, but still four columns.
    rows = [(pi, rng.randint(0, max_it), rng.randint(1, max_st), rng.randint(0, max_priority)) for pi in pis]
    return Workload(processes=_processes(*(list(zip(*rows)) or [()] * 4)), name=name)
