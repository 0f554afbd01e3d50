"""Hypothesis differential test: engine against oracle on hard arrival shapes.

The seeded corpora draw arrivals and service times from small uniform
ranges. The workloads here are built from the shapes those ranges rarely
reach: gaps of up to 10**7 ticks, bursts and duplicate arrival times at one
instant, HRRN response ratios that tie after the x100 floor, and arrival and
service times of 2**63 and above. Each workload is handed over in shuffled
input order, so the engine's own sort of NewTasks is exercised too. Two
8,000-process HRRN queues check both paths at a size where a ready queue
ranked afresh at every dispatch would be quadratic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_schedule_invariants, run_checked
from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    compute_metrics,
    diff_results,
    oracle_schedule,
    simulate,
)

BIG = 2**63

# Gap to the previous arrival: a burst (0), a short step, or a long idle gap.
gaps = st.one_of(st.just(0), st.integers(1, 5), st.integers(10**6, 10**7))
services = st.one_of(
    st.integers(1, 9),
    # Ratios of multiples tie exactly: st=3, wt=3 and st=6, wt=6 are both 200.
    st.sampled_from([1, 2, 3, 4, 6, 12]),
    # With st >= 101, every wait below st/100 floors to a ratio of 100.
    st.integers(101, 1_000),
    st.integers(BIG, 4 * BIG),
)


@st.composite
def workloads(draw) -> Workload:
    n = draw(st.integers(1, 10))
    t = draw(st.sampled_from([0, 1, BIG - 1, BIG, 3 * BIG]))
    procs = []
    for pi in draw(st.permutations(range(1, n + 1))):
        t += draw(gaps)
        procs.append(
            Process(pi=pi, it=t, st=draw(services), pr=PriorityPair(draw(st.integers(0, 3)), 0))
        )
    return Workload(tuple(draw(st.permutations(procs))), name="arrival-shape")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(workloads())
def test_engine_matches_oracle_on_arrival_shapes(w):
    for policy in Policy:
        # Also checks that the run took at most 4n firings.
        result = assert_schedule_invariants(w, policy, run_checked(w, policy))
        report = diff_results(result, oracle_schedule(w, policy), oracle_policy=policy)
        assert report == [], f"{policy.value}: {report}"


@pytest.mark.parametrize("shape", ["burst-t0", "overload"])
def test_engine_matches_oracle_on_long_hrrn_queues(shape):
    # A burst of 8,000 at t=0, or one arrival a tick against a mean service
    # of 10.5 ticks; st in 1..20 either way, so the queue grows to most of n.
    rng = random.Random(2024)
    n = 8_000
    procs = tuple(
        Process(pi=i, it=0 if shape == "burst-t0" else i, st=rng.randint(1, 20))
        for i in range(1, n + 1)
    )
    w = Workload(procs, name=f"{shape}-{n}")
    result = compute_metrics(simulate(w, Policy.HRRN), w, Policy.HRRN)
    assert diff_results(result, oracle_schedule(w, Policy.HRRN), oracle_policy=Policy.HRRN) == []
