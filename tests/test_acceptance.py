"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one pass line per
criterion. All golden values are exact integers (zero tolerance); timed
criteria assert wall-clock bounds.
"""

import random
import time

import pytest

from helpers import assert_schedule_invariants, make_corpus, run_checked
from tcpnsched import (
    DEFAULT_STEP_LIMIT,
    Policy,
    PriorityPair,
    Process,
    Workload,
    compute_metrics,
    diff_results,
    oracle_schedule,
    parse_workload,
    random_workload,
    serialize_workload,
    simulate,
)
from tcpnsched.sched import FINISHED

# (pi, es, wt, pr.major) of the Finished marking, in completion order.
FCFS_GOLDEN = [(6, 1, 0, 1), (4, 5, 0, 5), (1, 7, 1, 6), (2, 11, 4, 7), (3, 14, 6, 8), (5, 16, 7, 9)]
HRRN_GOLDEN = [(6, 1, 0, 100), (4, 5, 0, 100), (1, 7, 1, 125), (3, 11, 3, 250), (2, 13, 6, 300), (5, 16, 7, 333)]

# Completion orders and start times confirmed by the oracle, then frozen.
SJF_GOLDEN = ([6, 4, 2, 3, 5, 1], [1, 5, 7, 10, 12, 15])
PR_GOLDEN = ([6, 4, 1, 3, 2, 5], [1, 5, 7, 11, 13, 16])

FINAL_TIME = 19


def scale_workload(n=10_000, burst=25, seed=2024):
    """Bursty near-critical load: arrivals slightly outpace the machine."""
    rng = random.Random(seed)
    sts = [rng.randint(1, 20) for _ in range(n)]
    procs = []
    served = 0
    for k in range(0, n, burst):
        arrival = served * 199 // 200
        for j, st in enumerate(sts[k : k + burst]):
            procs.append(
                Process(pi=k + j + 1, it=arrival, st=st, pr=PriorityPair(rng.randint(0, 9), 0))
            )
        served += sum(sts[k : k + burst])
    return Workload(tuple(procs), name="scale-smoke")


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_fcfs_golden_marking(table1):
    started = time.perf_counter()
    state = simulate(table1, Policy.FCFS)
    elapsed = time.perf_counter() - started
    finished = state.marking[FINISHED].value
    assert [(p.pi, p.es, p.wt, p.pr.major) for p in finished] == FCFS_GOLDEN
    assert all(p.pr.minor == 0 for p in finished)
    assert state.marking[FINISHED].ready_time == FINAL_TIME
    assert elapsed < 1.0, f"FCFS run took {elapsed:.3f}s"
    _passed("criterion 1 (FCFS golden marking, final time 19, < 1 s)")


def test_criterion_2_hrrn_golden_marking(table1):
    state = simulate(table1, Policy.HRRN)
    finished = state.marking[FINISHED].value
    assert [(p.pi, p.es, p.wt, p.pr.major) for p in finished] == HRRN_GOLDEN
    assert all(p.pr.minor == 0 for p in finished)
    assert state.marking[FINISHED].ready_time == FINAL_TIME
    _passed("criterion 2 (HRRN golden marking, final time 19)")


@pytest.mark.parametrize(
    "policy,golden", [(Policy.SJF, SJF_GOLDEN), (Policy.PR, PR_GOLDEN)], ids=["sjf", "pr"]
)
def test_criterion_3_derived_goldens(table1, policy, golden):
    order, starts = golden
    # Oracle first: the independent path must reproduce the frozen fixture.
    events = oracle_schedule(table1, policy)
    assert [e.pi for e in events] == order
    assert [e.es for e in events] == starts
    # Then the CPN engine must match it.
    state = simulate(table1, policy)
    finished = state.marking[FINISHED].value
    assert [p.pi for p in finished] == order
    assert [p.es for p in finished] == starts
    assert state.marking[FINISHED].ready_time == FINAL_TIME
    _passed(f"criterion 3 ({policy.value} derived golden, oracle-confirmed)")


def test_criterion_4_idle_reproduction(table1):
    for policy in Policy:
        result = compute_metrics(simulate(table1, policy), table1, policy)
        assert result.idle_intervals == ((4, 5),), policy
        assert result.total_idle == 1, policy
        assert result.makespan == 19, policy
    _passed("criterion 4 (idle [[4,5)), total 1, makespan 19 on all four policies)")


def test_criterion_5_differential_property():
    started = time.perf_counter()
    comparisons = 0
    for seed in range(1000):
        w = random_workload(random.Random(seed), name=f"diff-{seed}")
        for policy in Policy:
            result = compute_metrics(simulate(w, policy), w, policy)
            report = diff_results(result, oracle_schedule(w, policy), oracle_policy=policy)
            assert report == [], f"seed {seed} policy {policy.value}: {report}"
            comparisons += 1
    elapsed = time.perf_counter() - started
    assert comparisons == 4000
    assert elapsed < 60.0, f"differential suite took {elapsed:.1f}s"
    _passed(f"criterion 5 (4000/4000 engine-oracle agreements in {elapsed:.1f}s < 60s)")


def test_criterion_6_invariant_suite():
    corpus = make_corpus(seed=202, count=500, max_n=12, max_it=30, max_st=8)
    for i, w in enumerate(corpus):
        per_policy = {}
        for policy in Policy:
            state = run_checked(w, policy)  # step-level marking invariants
            per_policy[policy] = assert_schedule_invariants(w, policy, state)
        if w.processes:
            assert len({r.makespan for r in per_policy.values()}) == 1, f"case {i}"
            assert len({r.idle_intervals for r in per_policy.values()}) == 1, f"case {i}"
    _passed("criterion 6 (invariant suite over 500 random workloads x 4 policies)")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_criterion_7_round_trip(fmt):
    for seed in range(100):
        w = random_workload(random.Random(seed), name=f"rt-{seed}")
        again = parse_workload(serialize_workload(w, fmt), fmt=fmt)
        assert again.processes == w.processes, f"seed {seed}"
    _passed(f"criterion 7 ({fmt} round-trip identity on 100 random workloads)")


def test_criterion_8_scale_smoke():
    w = scale_workload()
    assert len(w.processes) == 10_000
    worst_oracle = worst_engine = 0.0
    for policy in Policy:
        started = time.perf_counter()
        events = oracle_schedule(w, policy)
        oracle_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        state = simulate(w, policy)
        engine_elapsed = time.perf_counter() - started

        assert len(events) == 10_000
        assert len(state.marking[FINISHED].value) == 10_000
        assert len(state.trace) < DEFAULT_STEP_LIMIT
        assert oracle_elapsed < 1.0, f"{policy.value} oracle took {oracle_elapsed:.2f}s"
        assert engine_elapsed < 10.0, f"{policy.value} engine took {engine_elapsed:.2f}s"
        worst_oracle = max(worst_oracle, oracle_elapsed)
        worst_engine = max(worst_engine, engine_elapsed)
    _passed(
        f"criterion 8 (10,000 processes: oracle {worst_oracle:.2f}s < 1s, "
        f"engine {worst_engine:.2f}s < 10s, within step guard)"
    )
