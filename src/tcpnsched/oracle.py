"""Independent event-driven non-preemptive scheduler used for differential testing.

This module deliberately shares no code with the net kernel or the scheduler
net: selection works by ranking key tuples, never by pairwise comparison, so
agreement between the two paths is evidence rather than tautology. Under
FCFS, SJF and PR a process's rank does not depend on the clock, so each
process is ranked once, on arrival, and the ready set is a binary heap of
``(rank, process)`` entries. Under HRRN the rank grows with the wait, so each
dispatch ranks every ready process afresh and takes the minimum. Only the
data model (Process/Policy) is shared.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .workload import Policy, PriorityPair, Process, Workload, WorkloadError, validate_workload

if TYPE_CHECKING:
    from .metrics import ScheduleResult


@dataclass(frozen=True)
class OracleEvent:
    """One dispatch: the machine picks ``pi`` at ``dispatch`` and runs it to ``finish``."""

    pi: int
    dispatch: int
    finish: int
    waiting: int
    pr: PriorityPair


def _rank_key(policy: Policy, now: int) -> Callable[[Process], tuple[int, int, int]]:
    """The key ranking a ready process at ``now``: the smallest tuple wins.

    The tuple is ``(major, minor, pi)`` of the priority pair the dispatch
    records. Majors whose greater value is higher priority (PR, HRRN) are
    negated; minors and the index always prefer the earlier/lower value.
    Since ``pi`` is unique, two ranks never tie. Only HRRN reads ``now``.
    """
    if policy is Policy.FCFS:
        return lambda p: (p.it, 0, p.pi)
    if policy is Policy.SJF:
        return lambda p: (p.st, p.it, p.pi)
    if policy is Policy.PR:
        return lambda p: (-p.pr.major, p.it, p.pi)
    return lambda p: (-((p.st + now - p.it) * 100 // p.st), 0, p.pi)


def oracle_schedule(w: Workload, policy: Policy) -> list[OracleEvent]:
    """Directly simulate the non-preemptive schedule, one dispatch at a time.

    Whenever the machine is free: if nothing has arrived, jump to the next
    arrival; otherwise dispatch the best-ranked arrived process and run it
    to completion. Events are returned in dispatch order.
    """
    violations = validate_workload(w)
    if violations:
        raise WorkloadError("; ".join(violations))

    # FCFS, SJF and PR ranks ignore the clock, so one key serves the run.
    static = policy is not Policy.HRRN
    key = _rank_key(policy, 0)
    pending = sorted(w.processes, key=lambda p: (p.it, p.pi))
    # Static policies: a heap of (rank, process); HRRN: the arrived processes.
    ready: list = []
    events: list[OracleEvent] = []
    t = 0
    i = 0
    while i < len(pending) or ready:
        if not ready and pending[i].it > t:
            t = pending[i].it
        while i < len(pending) and pending[i].it <= t:
            p = pending[i]
            if static:
                heapq.heappush(ready, (key(p), p))
            else:
                ready.append(p)
            i += 1
        if static:
            rank, best = heapq.heappop(ready)
        else:
            ranks = list(map(_rank_key(policy, t), ready))
            rank = min(ranks)
            best = ready.pop(ranks.index(rank))
        major, minor, _ = rank
        events.append(
            OracleEvent(
                pi=best.pi,
                dispatch=t,
                finish=t + best.st,
                waiting=t - best.it,
                pr=PriorityPair(-major if policy in (Policy.PR, Policy.HRRN) else major, minor),
            )
        )
        t += best.st
    return events


def diff_results(
    engine: "ScheduleResult",
    oracle: Sequence[OracleEvent],
    oracle_policy: Policy | None = None,
) -> list[str]:
    """Compare an engine result against oracle events; empty means agreement.

    Checks dispatch order, dispatch times, finish times, waiting times and
    recorded priority pairs, reporting the first divergence found.
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
    for pos, (p, e) in enumerate(zip(engine.finished, oracle)):
        if p.pi != e.pi:
            return [f"position {pos}: engine dispatched pi={p.pi}, oracle dispatched pi={e.pi}"]
        if p.es != e.dispatch:
            return [f"pi={p.pi}: dispatch time differs (engine {p.es}, oracle {e.dispatch})"]
        if p.es + p.st != e.finish:
            return [f"pi={p.pi}: finish time differs (engine {p.es + p.st}, oracle {e.finish})"]
        if p.wt != e.waiting:
            return [f"pi={p.pi}: waiting time differs (engine {p.wt}, oracle {e.waiting})"]
        if tuple(p.pr) != tuple(e.pr):
            return [f"pi={p.pi}: priority pair differs (engine {tuple(p.pr)}, oracle {tuple(e.pr)})"]
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
    procs = tuple(
        Process(
            pi=pi,
            it=rng.randint(0, max_it),
            st=rng.randint(1, max_st),
            pr=PriorityPair(rng.randint(0, max_priority), 0),
        )
        for pi in pis
    )
    return Workload(processes=procs, name=name)
