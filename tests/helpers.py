"""Shared test utilities: corpora, a checked step-driver, and invariant asserts."""

from __future__ import annotations

import random

from tcpnsched import (
    EngineState,
    Policy,
    PriorityPair,
    Process,
    ScheduleResult,
    Workload,
    build_net,
    compute_metrics,
    random_workload,
    steps,
)
from tcpnsched.sched import (
    FINISHED,
    NEW_TASKS,
    PLACES,
    READY_QUEUE,
    RUNNING,
    compare_process,
    update_all,
)


def make_corpus(seed: int, count: int, **ranges) -> list[Workload]:
    """Seeded random workloads; case i is reproducible from (seed, i)."""
    return [
        random_workload(random.Random(seed * 100_000 + i), name=f"case-{seed}-{i}", **ranges)
        for i in range(count)
    ]


def by_arrival(procs) -> list[Process]:
    """``procs`` in NewTasks order: sorted by ``(it, pi)``."""
    return sorted(procs, key=lambda p: (p.it, p.pi))


def run_checked(w: Workload, policy: Policy) -> EngineState:
    """Drive the scheduler net with ``steps``, asserting marking invariants.

    Checks at every firing: the marking covers exactly the four places, the
    pi multiset over all places equals the workload's, Running holds at most
    one process, the clock never decreases, NewTasks is sorted by
    ``(it, pi)``, no arrived process sits in NewTasks after an Activate or a
    Dispatch, under FCFS, SJF and PR the ReadyQueue is ordered by
    ``compare_process`` with the best process last, and under HRRN it is
    strictly ascending by ``(st, it, pi)``. Tokens move and are never
    copied, so every place still holds the list object it began with.
    """
    sn = build_net(w, policy)
    state = sn.initial_state()
    expected_pis = sorted(p.pi for p in w.processes)
    lists = {name: state.marking[name].value for name in PLACES}

    def assert_marking() -> None:
        assert set(state.marking) == set(PLACES)
        pis = sorted(p.pi for name in PLACES for p in state.marking[name].value)
        assert pis == expected_pis, "pi multiset not conserved"
        assert len(state.marking[RUNNING].value) <= 1, "more than one process running"
        for name in PLACES:
            assert state.marking[name].value is lists[name], f"{name} was copied, not moved"

    assert_marking()
    last_clock = state.clock
    for t in steps(sn.net, state):
        if t is None:
            assert state.clock > last_clock
            last_clock = state.clock
            continue
        assert state.clock == last_clock
        # Scan NewTasks independently of the list functions the net runs.
        new = state.marking[NEW_TASKS].value
        assert all((a.it, a.pi) < (b.it, b.pi) for a, b in zip(new, new[1:])), (
            f"NewTasks not sorted by (it, pi) after {t.name}"
        )
        # Activate takes every arrived process; Dispatch only reads NewTasks,
        # so after it NewTasks still holds what its guard saw.
        if t.name in ("Activate", "Dispatch"):
            assert not any(p.it <= state.clock for p in new), (
                f"{t.name} left an arrived process in NewTasks"
            )
        if policy is not Policy.HRRN:
            # Order the records by freshly computed priorities, so a record
            # stamped wrongly at Activate cannot vouch for its own position.
            ready = update_all(state.marking[READY_QUEUE].value, policy, state.clock)
            assert all(compare_process(a, b, policy) == -1 for a, b in zip(ready, ready[1:])), (
                f"ReadyQueue not ordered best-last after {t.name}"
            )
        else:
            ready = state.marking[READY_QUEUE].value
            assert all((a.st, a.it, a.pi) < (b.st, b.it, b.pi) for a, b in zip(ready, ready[1:])), (
                f"ReadyQueue not sorted by (st, it, pi) after {t.name}"
            )
        assert_marking()
    return state


def assert_schedule_invariants(w: Workload, policy: Policy, state: EngineState) -> ScheduleResult:
    """Result-level invariants of one completed run; returns the metrics."""
    result = compute_metrics(state, w, policy)
    n = len(w.processes)

    finished = state.marking[FINISHED].value
    assert [p.pi for p in result.finished] == [p.pi for p in finished]

    by_pi = {p.pi: p for p in w.processes}
    for p in result.finished:
        assert p.it == by_pi[p.pi].it and p.st == by_pi[p.pi].st
        assert p.wt == p.es - p.it, "waiting time must equal start minus arrival"
        if policy is Policy.HRRN:
            assert p.pr == PriorityPair((p.st + p.wt) * 100 // p.st, 0)

    # Non-preemption: execution intervals never overlap.
    intervals = sorted((p.es, p.es + p.st) for p in result.finished)
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "execution intervals overlap"

    # Work conservation: nothing arrived sits across an idle gap.
    for gap_start, _gap_end in result.idle_intervals:
        for p in result.finished:
            if p.it <= gap_start:
                assert p.es + p.st <= gap_start, "idle while an arrived process was unfinished"

    if n:
        total_service = sum(p.st for p in result.finished)
        assert result.total_idle + total_service == result.makespan - result.lead_in

    # Halting bound: firings stay within 4n plus the idle ticks.
    idle_ticks = sum(1 for e in state.trace if e.transition == "Idle")
    assert len(state.trace) <= 4 * n + idle_ticks
    # Idle covers a whole gap in one firing and each gap ends in an
    # Activate, so the firings also stay within 4n.
    assert len(state.trace) <= 4 * n

    times = [e.time for e in state.trace]
    assert times == sorted(times), "trace firing times must be nondecreasing"
    return result
