"""Randomized invariant suite: 500+ seeded cases per property."""

import functools
import json
import random

import pytest

from helpers import assert_schedule_invariants, by_arrival, make_corpus, run_checked
from tcpnsched import (
    EngineState,
    Policy,
    PriorityPair,
    Process,
    TimedToken,
    Workload,
    build_net,
    compute_metrics,
    diff_results,
    oracle_schedule,
    simulate,
    steps,
    trace_records,
)
from tcpnsched import sched
from tcpnsched.sched import (
    FINISHED,
    NEW_TASKS,
    READY_QUEUE,
    RUNNING,
    compare_process,
    elect,
    exists_arrived,
    hrrn_ratio,
    select_arrived,
    update_all,
)

CASES = 500


def random_procs(rng, n, with_pr=False, max_it=50):
    pis = list(range(1, n + 1))
    rng.shuffle(pis)
    return [
        Process(
            pi=pi,
            it=rng.randint(0, max_it),
            st=rng.randint(1, 9),
            wt=rng.randint(0, 9),
            pr=PriorityPair(rng.randint(0, 5), rng.randint(0, 5)) if with_pr else PriorityPair(0, 0),
        )
        for pi in pis
    ]


class TestPureOps:
    def test_select_remove_partition(self):
        for case in range(CASES):
            rng = random.Random(10_000 + case)
            shuffled = random_procs(rng, rng.randint(0, 12))
            l = by_arrival(shuffled)
            now = rng.randint(0, 60)
            sel = select_arrived(l, now)
            # On a list sorted like NewTasks the arrived processes are a prefix.
            assert sel == l[: len(sel)]
            assert all(p.it <= now for p in sel)
            assert all(p.it > now for p in l[len(sel) :])
            # Check exists_arrived against a scan on the NewTasks tokens of a
            # real run, before and after the first Activate.
            w = Workload(tuple(Process(pi=p.pi, it=p.it, st=p.st) for p in shuffled))
            sn = build_net(w, Policy.FCFS)
            state = sn.initial_state()
            # Snapshot each token: Activate updates NewTasks in place.
            tokens = [list(state.marking[NEW_TASKS].value)]
            for t in steps(sn.net, state):
                if t is not None and t.name == "Activate":
                    tokens.append(list(state.marking[NEW_TASKS].value))
                    break
            assert len(tokens) == (2 if l else 1)
            for token in tokens:
                assert exists_arrived(token, now) == any(p.it <= now for p in token)

    def test_compare_antisymmetry(self):
        for case in range(CASES):
            rng = random.Random(20_000 + case)
            policy = rng.choice(list(Policy))
            a, b = random_procs(rng, 2, with_pr=True)
            assert compare_process(a, b, policy) == -compare_process(b, a, policy)

    def test_compare_is_a_strict_total_order(self):
        # Transitivity brute-forced over every triple of 5-element lists.
        for case in range(CASES):
            rng = random.Random(30_000 + case)
            policy = rng.choice(list(Policy))
            l = random_procs(rng, 5, with_pr=True)
            for a in l:
                for b in l:
                    for c in l:
                        if len({a.pi, b.pi, c.pi}) < 3:
                            continue
                        if (
                            compare_process(a, b, policy) == 1
                            and compare_process(b, c, policy) == 1
                        ):
                            assert compare_process(a, c, policy) == 1

    def test_elect_is_the_argmax(self):
        for case in range(CASES):
            rng = random.Random(40_000 + case)
            policy = rng.choice(list(Policy))
            l = random_procs(rng, rng.randint(1, 10), with_pr=True)
            winner = elect(l, policy)
            for i in range(len(l)):
                assert i == winner or compare_process(l[winner], l[i], policy) == 1
            by_sort = sorted(
                range(len(l)),
                key=functools.cmp_to_key(lambda i, j: -compare_process(l[i], l[j], policy)),
            )
            assert winner == by_sort[0]

    def test_hrrn_elect_is_scale_invariant(self):
        # With distinct majors at the base scale, scaling the fixed point up
        # never changes the elected process.
        for case in range(CASES):
            rng = random.Random(50_000 + case)
            pairs = []
            majors = set()
            while len(pairs) < 6:
                st, wt = rng.randint(1, 20), rng.randint(0, 40)
                major = (st + wt) * 100 // st
                if major not in majors:
                    majors.add(major)
                    pairs.append((st, wt))
            factor = rng.choice([2, 3, 10, 1000])

            def procs(scale):
                return [
                    Process(pi=i + 1, it=0, st=st, wt=wt, pr=PriorityPair((st + wt) * scale // st, 0))
                    for i, (st, wt) in enumerate(pairs)
                ]

            base = elect(procs(100), Policy.HRRN)
            scaled = elect(procs(100 * factor), Policy.HRRN)
            assert procs(100)[base].pi == procs(100 * factor)[scaled].pi


class TestDispatch:
    def test_dispatch_elects_what_the_full_refresh_elects(self):
        # The paper's Dispatch refreshes every ready process and elects the
        # best; the net elects without the refresh. Both must run the same
        # process with the same waiting time and priority pair.
        # Any valid workload builds the net; the marking below is hand-built.
        one = Workload((Process(pi=1, it=0, st=1),))

        def check(procs, now, first, policy, case):
            sn = build_net(one, policy)
            state = EngineState(
                marking={
                    NEW_TASKS: TimedToken(by_arrival(procs), first),
                    READY_QUEUE: TimedToken([], first),
                    RUNNING: TimedToken([], now),
                    FINISHED: TimedToken([], first),
                },
                clock=first,
            )
            for t in steps(sn.net, state):
                if t is not None and t.name == "Dispatch":
                    break
            assert state.clock == now
            u = update_all(procs, policy, now)
            expected = u[elect(u, policy)]
            assert state.marking[RUNNING].value == [expected], (case, policy)
            left = sorted(p.pi for p in state.marking[READY_QUEUE].value)
            assert left == sorted(p.pi for p in procs if p.pi != expected.pi)

        # HRRN shapes that stress its ReadyQueue order: few distinct service
        # times, x100 floor ties across arrival times within one service
        # time, and all service times distinct.
        hrrn_shapes = (
            lambda rng: (rng.randint(1, 3), rng.randint(0, 20)),
            lambda rng: (rng.choice((150, 200, 300)), rng.randint(0, 9)),
            lambda rng: (rng.randint(1, 10**6), rng.randint(0, rng.choice((20, 10**6)))),
        )
        for case in range(CASES):
            rng = random.Random(70_000 + case)
            n = rng.randint(1, 12)
            procs = [
                Process(pi=pi, it=rng.randint(0, 20), st=rng.randint(1, 9), pr=PriorityPair(rng.randint(0, 5), 0))
                for pi in rng.sample(range(1, 40), n)
            ]
            now = rng.randint(max(p.it for p in procs), 40)
            # Arrivals up to ``first`` enter ReadyQueue at ``first``, the rest
            # at ``now``; Running frees at ``now``, so Dispatch waits for both.
            first = rng.randint(0, now)
            for policy in Policy:
                check(procs, now, first, policy, case)
            for shape in hrrn_shapes:
                procs = []
                for pi in rng.sample(range(1, 40), rng.randint(1, 12)):
                    st, it = shape(rng)
                    procs.append(Process(pi=pi, it=it, st=st))
                latest = max(p.it for p in procs)
                now = rng.randint(latest, 2 * latest + 40)
                check(procs, now, rng.randint(0, now), Policy.HRRN, case)

    def test_hrrn_dispatch_ranks_run_heads_not_every_ready_process(self, monkeypatch):
        # All n arrive at t=0 with st 1..20: a dispatch that ranked every
        # ready process would compute about n**2 / 2 ratios.
        calls = 0

        def counting_ratio(st, wt):
            nonlocal calls
            calls += 1
            return hrrn_ratio(st, wt)

        rng = random.Random(2024)
        n = 2_000
        w = Workload(tuple(Process(pi=i, it=0, st=rng.randint(1, 20)) for i in range(1, n + 1)))
        monkeypatch.setattr(sched, "hrrn_ratio", counting_ratio)
        state = simulate(w, Policy.HRRN)
        assert len(state.marking[FINISHED].value) == n
        assert calls <= 25 * n, calls


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(seed=101, count=CASES, max_n=12, max_it=30, max_st=8)


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """Checked stepwise runs for every (workload, policy) pair.

    run_checked asserts the marking invariants (pi conservation, single
    token per place, at most one running process, NewTasks sorted by
    ``(it, pi)`` with no arrived process left after Activate or Dispatch)
    at every step.
    """
    runs = {}
    for i, w in enumerate(corpus):
        for policy in Policy:
            runs[(i, policy)] = run_checked(w, policy)
    return runs


class TestEngineRuns:
    def test_schedule_invariants_hold_everywhere(self, corpus, corpus_runs):
        for i, w in enumerate(corpus):
            for policy in Policy:
                assert_schedule_invariants(w, policy, corpus_runs[(i, policy)])

    def test_stepwise_drive_matches_run(self, corpus, corpus_runs):
        # Driving steps() on the initial state reproduces run() exactly.
        for i, w in enumerate(corpus):
            for policy in Policy:
                direct = simulate(w, policy)
                stepped = corpus_runs[(i, policy)]
                assert json.dumps(trace_records(direct.trace)) == json.dumps(
                    trace_records(stepped.trace)
                )
                assert direct.clock == stepped.clock
                assert (
                    direct.marking["Finished"].value == stepped.marking["Finished"].value
                )

    def test_makespan_and_idle_are_policy_invariant(self, corpus, corpus_runs):
        for i, w in enumerate(corpus):
            if not w.processes:
                continue
            results = [
                compute_metrics(corpus_runs[(i, policy)], w, policy) for policy in Policy
            ]
            makespans = {r.makespan for r in results}
            idle_sets = {r.idle_intervals for r in results}
            assert len(makespans) == 1, f"case {i}: makespan differs across policies"
            assert len(idle_sets) == 1, f"case {i}: idle intervals differ across policies"

    def test_sjf_minimizes_waiting_on_simultaneous_arrivals(self):
        for case in range(CASES):
            rng = random.Random(60_000 + case)
            n = rng.randint(1, 10)
            arrival = rng.randint(0, 10)
            procs = tuple(
                Process(pi=i + 1, it=arrival, st=rng.randint(1, 9), pr=PriorityPair(rng.randint(0, 5), 0))
                for i in range(n)
            )
            w = Workload(procs, name=f"simul-{case}")
            avg = {
                policy: compute_metrics(simulate(w, policy), w, policy).aggregates.avg_waiting
                for policy in Policy
            }
            for policy in (Policy.FCFS, Policy.PR, Policy.HRRN):
                assert avg[Policy.SJF] <= avg[policy] + 1e-9

    def test_burst_of_1000_at_one_instant_matches_the_oracle(self):
        # The whole workload sits in ReadyQueue at once, and HRRN ratios tie
        # at the x100 fixed point across many service times.
        rng = random.Random(80_000)
        w = Workload(
            tuple(
                Process(pi=pi, it=0, st=rng.randint(1, 20), pr=PriorityPair(rng.randint(0, 9), 0))
                for pi in range(1, 1_001)
            ),
            name="burst-1000",
        )
        for policy in Policy:
            result = compute_metrics(simulate(w, policy), w, policy)
            assert diff_results(result, oracle_schedule(w, policy), oracle_policy=policy) == []

    def test_determinism_on_random_workloads(self, corpus):
        for w in corpus[:50]:
            for policy in Policy:
                a = simulate(w, policy)
                b = simulate(w, policy)
                assert json.dumps(trace_records(a.trace)) == json.dumps(trace_records(b.trace))
