"""Shared test utilities: corpora, a checked step-driver, and invariant asserts."""

from __future__ import annotations

import random

from tcpnsched import (
    EngineState,
    Policy,
    PriorityPair,
    ScheduleResult,
    Workload,
    build_net,
    compute_metrics,
    random_workload,
    steps,
)
from tcpnsched.sched import FINISHED, NEW_TASKS, PLACES, RUNNING


def make_corpus(seed: int, count: int, **ranges) -> list[Workload]:
    """Seeded random workloads; case i is reproducible from (seed, i)."""
    return [
        random_workload(random.Random(seed * 100_000 + i), name=f"case-{seed}-{i}", **ranges)
        for i in range(count)
    ]


def run_checked(w: Workload, policy: Policy) -> EngineState:
    """Drive the scheduler net with ``steps``, asserting marking invariants.

    Checks at every firing: the marking covers exactly the four places, the
    pi multiset over all places equals the workload's, Running holds at most
    one process, the clock never decreases, and Dispatch never fires while
    an arrived process sits in NewTasks.
    """
    sn = build_net(w, policy)
    state = sn.initial_state()
    expected_pis = sorted(p.pi for p in w.processes)

    def assert_marking() -> None:
        assert set(state.marking) == set(PLACES)
        pis = sorted(p.pi for name in PLACES for p in state.marking[name].value)
        assert pis == expected_pis, "pi multiset not conserved"
        assert len(state.marking[RUNNING].value) <= 1, "more than one process running"

    assert_marking()
    last_clock = state.clock
    for t in steps(sn.net, state):
        if t is None:
            assert state.clock > last_clock
            last_clock = state.clock
            continue
        assert state.clock == last_clock
        # Dispatch only reads NewTasks, so after the firing it still holds what
        # the guard saw. Scan it here rather than reuse the guard's arrival cache.
        if t.name == "Dispatch":
            assert not any(p.it <= state.clock for p in state.marking[NEW_TASKS].value), (
                "Dispatch fired while an arrived process sat in NewTasks"
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

    times = [e.time for e in state.trace]
    assert times == sorted(times), "trace firing times must be nondecreasing"
    return result
