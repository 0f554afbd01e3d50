import dataclasses
import random

import pytest

from helpers import make_corpus
from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    WorkloadError,
    compute_metrics,
    diff_results,
    oracle_schedule,
    random_workload,
    simulate,
)


class TestGoldenSchedules:
    def test_fcfs(self, table1):
        events = oracle_schedule(table1, Policy.FCFS)
        assert [e.pi for e in events] == [6, 4, 1, 2, 3, 5]
        assert [e.dispatch for e in events] == [1, 5, 7, 11, 14, 16]

    def test_hrrn(self, table1):
        events = oracle_schedule(table1, Policy.HRRN)
        assert [e.pi for e in events] == [6, 4, 1, 3, 2, 5]
        assert [e.dispatch for e in events] == [1, 5, 7, 11, 13, 16]
        assert [tuple(e.pr) for e in events] == [
            (100, 0),
            (100, 0),
            (125, 0),
            (250, 0),
            (300, 0),
            (333, 0),
        ]

    def test_sjf(self, table1):
        events = oracle_schedule(table1, Policy.SJF)
        assert [e.pi for e in events] == [6, 4, 2, 3, 5, 1]
        assert [e.dispatch for e in events] == [1, 5, 7, 10, 12, 15]

    def test_pr_with_earlier_arrival_tie_break(self, table1):
        events = oracle_schedule(table1, Policy.PR)
        assert [e.pi for e in events] == [6, 4, 1, 3, 2, 5]
        assert [e.dispatch for e in events] == [1, 5, 7, 11, 13, 16]
        # At t=13 both P2 and P5 carry static priority 1; P2 arrived earlier.
        at_13 = next(e for e in events if e.dispatch == 13)
        assert at_13.pi == 2

    def test_invalid_workload_rejected(self):
        with pytest.raises(WorkloadError):
            oracle_schedule(Workload((Process(1, 0, 0),)), Policy.FCFS)


class TestSelfChecks:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_event_identities_and_work_conservation(self, policy):
        for seed in range(200):
            w = random_workload(random.Random(seed), max_n=20)
            events = oracle_schedule(w, policy)
            assert sorted(e.pi for e in events) == sorted(p.pi for p in w.processes)
            by_pi = {p.pi: p for p in w.processes}
            undispatched = {p.pi for p in w.processes}
            prev_finish = 0
            for e in events:
                p = by_pi[e.pi]
                assert e.finish == e.dispatch + p.st
                assert e.waiting == e.dispatch - p.it
                assert e.waiting >= 0
                # Never idle while someone has arrived: each dispatch happens
                # at the previous finish or at the next arrival, whichever is due.
                next_arrival = min(by_pi[pi].it for pi in undispatched)
                assert e.dispatch == max(prev_finish, next_arrival)
                undispatched.discard(e.pi)
                prev_finish = e.finish


def reference_schedule(w: Workload, policy: Policy) -> list[tuple]:
    """The brute-force rule the oracle must reproduce, as event tuples.

    At each dispatch, rank every arrived process afresh at that instant and
    take the minimum of (major, minor, pi), with PR and HRRN majors negated.
    """

    def pair(p: Process, now: int) -> tuple[int, int]:
        if policy is Policy.FCFS:
            return (p.it, 0)
        if policy is Policy.SJF:
            return (p.st, p.it)
        if policy is Policy.PR:
            return (p.pr.major, p.it)
        return ((p.st + now - p.it) * 100 // p.st, 0)

    sign = -1 if policy in (Policy.PR, Policy.HRRN) else 1
    left = list(w.processes)
    events = []
    t = 0
    while left:
        arrived = [p for p in left if p.it <= t]
        if not arrived:
            t = min(p.it for p in left)
            continue
        best = min(arrived, key=lambda p: (sign * pair(p, t)[0], pair(p, t)[1], p.pi))
        left.remove(best)
        events.append((best.pi, t, t + best.st, t - best.it, pair(best, t)))
        t += best.st
    return events


def _bursts(seed: int, n: int = 300) -> Workload:
    # Two instants, short services and two priorities: most ranks tie on the
    # major field, many on the minor field too, so pi decides.
    rng = random.Random(seed)
    procs = [
        Process(pi=pi, it=rng.choice((0, 250)), st=rng.randint(1, 3), pr=PriorityPair(rng.randint(0, 1), 0))
        for pi in range(1, n + 1)
    ]
    rng.shuffle(procs)
    return Workload(tuple(procs), name=f"burst-{seed}")


def _hrrn_floor_ties(seed: int) -> Workload:
    # With st >= 101, ratios floor to the same x100 value over whole ranges of waits.
    rng = random.Random(seed)
    procs = [
        Process(pi=pi, it=rng.randint(0, 40), st=rng.randint(101, 400), pr=PriorityPair(rng.randint(0, 1), 0))
        for pi in range(1, 41)
    ]
    rng.shuffle(procs)
    return Workload(tuple(procs), name=f"hrrn-ties-{seed}")


class TestAgainstReferenceRule:
    CASES = (
        make_corpus(11, 300)
        + [_bursts(seed) for seed in range(3)]
        + [_hrrn_floor_ties(seed) for seed in range(20)]
    )

    @pytest.mark.parametrize("policy", list(Policy))
    def test_events_equal_the_brute_force_rule(self, policy):
        for w in self.CASES:
            got = [(e.pi, e.dispatch, e.finish, e.waiting, tuple(e.pr)) for e in oracle_schedule(w, policy)]
            assert got == reference_schedule(w, policy), f"{w.name} under {policy.value}"


class TestDiff:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_engine_agrees_on_table1(self, table1, policy):
        result = compute_metrics(simulate(table1, policy), table1, policy)
        assert diff_results(result, oracle_schedule(table1, policy), oracle_policy=policy) == []

    def test_perturbed_start_names_the_process(self, table1):
        result = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        events = oracle_schedule(table1, Policy.FCFS)
        bent = list(events)
        bent[2] = dataclasses.replace(bent[2], dispatch=bent[2].dispatch + 1)
        report = diff_results(result, bent)
        assert len(report) == 1
        assert f"pi={bent[2].pi}" in report[0]

    def test_policy_mismatch_flagged(self, table1):
        result = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        report = diff_results(result, oracle_schedule(table1, Policy.SJF), oracle_policy=Policy.SJF)
        assert report and "policy mismatch" in report[0]

    def test_length_mismatch_flagged(self, table1):
        result = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        report = diff_results(result, oracle_schedule(table1, Policy.FCFS)[:-1])
        assert report and "length mismatch" in report[0]

    def test_wrong_priority_pair_flagged(self, table1):
        result = compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN)
        events = list(oracle_schedule(table1, Policy.HRRN))
        events[0] = dataclasses.replace(events[0], pr=(999, 0))
        report = diff_results(result, events)
        assert report and "priority pair" in report[0]


class TestGenerator:
    def test_reproducible(self):
        a = random_workload(random.Random(7))
        b = random_workload(random.Random(7))
        assert a.processes == b.processes

    def test_ranges_and_uniqueness(self):
        for seed in range(50):
            w = random_workload(random.Random(seed))
            n = len(w.processes)
            assert 1 <= n <= 50
            assert sorted(p.pi for p in w.processes) == list(range(1, n + 1))
            for p in w.processes:
                assert 0 <= p.it <= 100
                assert 1 <= p.st <= 20
                assert 0 <= p.pr.major <= 9
                assert p.pr.minor == 0 and p.wt == 0 and p.es == 0
