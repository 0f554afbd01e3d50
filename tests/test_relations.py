"""Metamorphic relations: how a schedule must change when its workload changes in a known way.

Each relation holds for all four policies and needs no second
implementation, so it also checks the code both engines share:
``metrics.result_from_processes`` and the ``run`` JSON writer. It is checked
on three outputs of each workload, each as a ``run`` document: the engine's
result (``compute_metrics(simulate(...))``) and the oracle's
(``result_from_processes(oracle_schedule(...))``), laid out by
``cli.result_json_doc``, and the document that ``run --format json``
prints, parsed. Integers are compared exactly and floats with
``math.isclose``.

- **Shift.** Adding c to every arrival moves every instant by c: each
  ``it``, ``es`` and ``finish``, the makespan, the lead-in, the idle bounds
  and the priority fields that are arrival times. Every duration stays, and
  so do the order, HRRN's ratios and the aggregates.
- **Scale.** Multiplying every arrival and service time by k multiplies
  every time by k. The order stays, and so do PR's static priorities, HRRN's
  ratios (⌊100·k(st+wt)/(k·st)⌋ = ⌊100(st+wt)/st⌋) and the utilization.
- **Late arrival.** A process with a fresh index that arrives at the
  makespan runs last, at once; every earlier record and idle interval stays.
- **Input order.** Any permutation of the input gives the same document.
- **Relabel.** Mapping every index through an increasing function gives
  the same document under the new indexes.
- **PR offset.** Adding c ≥ 1 to every static priority moves each PR
  record's priority by c and changes nothing else; the other policies do
  not read static priorities, so their documents stay.

One Hypothesis test draws a workload and checks every relation on it, so
that the documents of the workload are made once. It sets no settings of
its own, so the profile that ``conftest.py`` loads applies.
"""

import contextlib
import io
import itertools
import json
import math

from hypothesis import given
from hypothesis import strategies as st

from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    cli,
    compute_metrics,
    oracle_schedule,
    result_from_processes,
    serialize_workload,
    simulate,
)

#: Arrival and service times: small ones, so that processes queue and tie, and any up to 2**63.
ARRIVALS = st.integers(0, 30) | st.integers(0, 2**63)
SERVICES = st.integers(1, 30) | st.integers(1, 2**63)
WORKLOADS = st.lists(
    st.tuples(st.integers(1, 10**6), ARRIVALS, SERVICES, st.integers(0, 9)),
    min_size=1,
    max_size=40,
    unique_by=lambda row: row[0],
).map(lambda rows: Workload(tuple(Process(pi, it, s, pr=PriorityPair(prio, 0)) for pi, it, s, prio in rows)))

#: What each item of a policy's priority pair is: an instant (an arrival time),
#: a span (a service time), or neither.
PR_KINDS = {
    Policy.FCFS: ("instant", None),
    Policy.SJF: ("span", "instant"),
    Policy.PR: (None, "instant"),
    Policy.HRRN: (None, None),
}


def documents(w: Workload, path) -> dict[Policy, list[dict]]:
    """The engine's, the oracle's and the ``run`` command's document of ``w``, under each policy."""
    path.write_text(serialize_workload(w), encoding="utf-8")
    docs = {}
    for policy in Policy:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["run", "--workload", str(path), "--policy", policy.value])
        assert code == 0
        docs[policy] = [
            cli.result_json_doc(compute_metrics(simulate(w, policy, trace=False), w, policy)),
            cli.result_json_doc(result_from_processes(oracle_schedule(w, policy), w, policy)),
            json.loads(out.getvalue()),
        ]
    return docs


def assert_same(expected, got, where="document") -> None:
    """``got`` is ``expected``: of the same shape, with equal ints and close floats."""
    if isinstance(expected, float) or isinstance(got, float):
        assert math.isclose(expected, got), (where, expected, got)
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and list(got) == list(expected), (where, expected, got)
        for key in expected:
            assert_same(expected[key], got[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), (where, expected, got)
        for i, (e, g) in enumerate(zip(expected, got)):
            assert_same(e, g, f"{where}[{i}]")
    else:
        assert type(got) is type(expected) and got == expected, (where, expected, got)


def mapped(doc: dict, policy: Policy, instant, span) -> dict:
    """``doc`` with every instant passed through ``instant`` and every span of time through ``span``."""
    kinds = {"instant": instant, "span": span, None: lambda v: v}
    agg = doc["aggregates"]
    return {
        "policy": doc["policy"],
        "makespan": instant(doc["makespan"]),
        "lead_in": instant(doc["lead_in"]),
        "total_idle": span(doc["total_idle"]),
        "idle": [[instant(s), instant(e)] for s, e in doc["idle"]],
        "processes": [
            {"pi": p["pi"], "it": instant(p["it"]), "st": span(p["st"]), "wt": span(p["wt"]),
             "es": instant(p["es"]), "finish": instant(p["finish"]), "turnaround": span(p["turnaround"]),
             "pr": [kinds[kind](v) for kind, v in zip(PR_KINDS[policy], p["pr"])]}
            for p in doc["processes"]
        ],
        "aggregates": {
            "avg_waiting": span(agg["avg_waiting"]),
            "avg_turnaround": span(agg["avg_turnaround"]),
            "total_idle": span(agg["total_idle"]),
            "utilization": agg["utilization"],
        },
    }


def check_time_map(w: Workload, befores: dict, instant, span, path, label: str) -> None:
    """Arrivals moved by ``instant`` and service times by ``span`` move every time of each document alike."""
    afters = documents(Workload(tuple(p._replace(it=instant(p.it), st=span(p.st)) for p in w.processes)), path)
    for policy in Policy:
        for before, after in zip(befores[policy], afters[policy]):
            assert_same(mapped(before, policy, instant, span), after, f"{label} {policy.value}")


def check_late_arrival(w: Workload, befores: dict, s: int, priority: int, path) -> None:
    # Every policy and every output agrees on the makespan; the relation checks the rest.
    m = befores[Policy.FCFS][0]["makespan"]
    pi = max(p.pi for p in w.processes) + 1
    afters = documents(Workload(w.processes + (Process(pi, m, s, pr=PriorityPair(priority, 0)),)), path)
    for policy in Policy:
        pr = {Policy.FCFS: [m, 0], Policy.SJF: [s, m], Policy.PR: [priority, m], Policy.HRRN: [100, 0]}[policy]
        record = {"pi": pi, "it": m, "st": s, "wt": 0, "es": m, "finish": m + s, "turnaround": s, "pr": pr}
        for before, after in zip(befores[policy], afters[policy]):
            n, lead_in, agg = len(before["processes"]), before["lead_in"], before["aggregates"]
            expected = {
                **before,
                "makespan": m + s,
                "processes": before["processes"] + [record],
                "aggregates": {
                    "avg_waiting": agg["avg_waiting"] * n / (n + 1),
                    "avg_turnaround": (agg["avg_turnaround"] * n + s) / (n + 1),
                    "total_idle": agg["total_idle"],
                    "utilization": (agg["utilization"] * (m - lead_in) + s) / (m + s - lead_in),
                },
            }
            assert_same(expected, after, f"late {policy.value}")


def check_entry_map(befores: dict, processes: tuple, entry, path, label: str) -> None:
    """The workload of ``processes`` gives each document with every process entry ``e`` made ``entry(policy, e)``."""
    afters = documents(Workload(processes), path)
    for policy in Policy:
        for before, after in zip(befores[policy], afters[policy]):
            expected = {**before, "processes": [entry(policy, e) for e in before["processes"]]}
            assert_same(expected, after, f"{label} {policy.value}")


def raised(policy: Policy, entry: dict, c: int) -> dict:
    """A process entry after every static priority rose by ``c``: only PR's priority moves."""
    return {**entry, "pr": [entry["pr"][0] + c, entry["pr"][1]]} if policy is Policy.PR else entry


def relabelling(processes: tuple, gaps: list[int]) -> dict[int, int]:
    """An increasing map of the indexes of ``processes``: the k-th smallest goes to the sum of the first k gaps."""
    return dict(zip(sorted(p.pi for p in processes), itertools.accumulate(gaps)))


@given(
    WORKLOADS.flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.permutations(w.processes).map(tuple),
            st.lists(st.integers(1, 9) | st.integers(1, 2**63), min_size=len(w), max_size=len(w)),
        )
    ),
    st.integers(1, 2**63),
    st.integers(2, 9) | st.integers(2, 2**63),
    SERVICES,
    st.integers(0, 9),
)
def test_every_relation_holds(tmp_path_factory, case, c, k, s, priority):
    """Each relation on one drawn workload: shift by ``c``, scale by ``k``, late arrival, permutation, relabel, PR offset ``c``."""
    w, shuffled, gaps = case
    path = tmp_path_factory.getbasetemp() / "relation.json"
    befores = documents(w, path)
    check_time_map(w, befores, lambda t: t + c, lambda d: d, path, "shifted")
    check_time_map(w, befores, lambda t: t * k, lambda d: d * k, path, "scaled")
    check_late_arrival(w, befores, s, priority, path)
    check_entry_map(befores, shuffled, lambda policy, e: e, path, "shuffled")
    labels = relabelling(w.processes, gaps)
    relabelled = tuple(p._replace(pi=labels[p.pi]) for p in w.processes)
    check_entry_map(befores, relabelled, lambda policy, e: {**e, "pi": labels[e["pi"]]}, path, "relabelled")
    offset = tuple(p._replace(pr=PriorityPair(p.pr.major + c, 0)) for p in w.processes)
    check_entry_map(befores, offset, lambda policy, e: raised(policy, e, c), path, "offset")
