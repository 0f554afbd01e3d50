"""Randomized invariant suite: 500+ seeded cases per property."""

import functools
import json
import random

import pytest

from helpers import assert_schedule_invariants, make_corpus, run_checked
from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    build_net,
    compute_metrics,
    simulate,
    steps,
    trace_records,
)
from tcpnsched.sched import (
    NEW_TASKS,
    compare_process,
    elect,
    exists_arrived,
    remove_arrived,
    select_arrived,
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
            l = random_procs(rng, rng.randint(0, 12))
            now = rng.randint(0, 60)
            sel, rem = select_arrived(l, now), remove_arrived(l, now)
            assert all(p.it <= now for p in sel)
            assert all(p.it > now for p in rem)
            # Order-preserving partition: merging back by identity restores l.
            sel_i, rem_i = iter(sel), iter(rem)
            merged = [next(sel_i) if p.it <= now else next(rem_i) for p in l]
            assert merged == l
            # exists_arrived on a real NewTasks token reads its arrival cache;
            # check it against a scan before and after the first Activate.
            w = Workload(tuple(Process(pi=p.pi, it=p.it, st=p.st) for p in l))
            sn = build_net(w, Policy.FCFS)
            state = sn.initial_state()
            tokens = [state.marking[NEW_TASKS].value]
            for t in steps(sn.net, state):
                if t is not None and t.name == "Activate":
                    tokens.append(state.marking[NEW_TASKS].value)
                    break
            assert len(tokens) == (2 if l else 1)
            for token in tokens:
                assert hasattr(token, "min_arrival"), "NewTasks token lost its arrival cache"
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


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(seed=101, count=CASES, max_n=12, max_it=30, max_st=8)


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """Checked stepwise runs for every (workload, policy) pair.

    run_checked asserts the marking invariants (pi conservation, single
    token per place, at most one running process, Dispatch never firing
    with an arrived process pending) at every step.
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

    def test_determinism_on_random_workloads(self, corpus):
        for w in corpus[:50]:
            for policy in Policy:
                a = simulate(w, policy)
                b = simulate(w, policy)
                assert json.dumps(trace_records(a.trace)) == json.dumps(trace_records(b.trace))
