"""Shared test utilities: corpora, a checked step-driver, invariant asserts and input-file strategies."""

from __future__ import annotations

import json
import os
import random
import sys

from hypothesis import strategies as st

from tcpnsched import (
    EngineState,
    FiringEvent,
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


def new_tasks_order(procs) -> list[Process]:
    """``procs`` in NewTasks order: by ``(it, pi)`` descending, next arrival last."""
    return sorted(procs, key=lambda p: (p.it, p.pi), reverse=True)


def run_checked(w: Workload, policy: Policy) -> EngineState:
    """Drive the scheduler net with ``steps``, asserting marking invariants.

    Checks at every firing: the marking covers exactly the four places, the
    pi multiset over all places equals the workload's, Running holds at most
    one process, the clock never decreases, NewTasks is strictly descending
    by ``(it, pi)``, no arrived process sits in NewTasks after an Activate or a
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
        assert all((a.it, a.pi) > (b.it, b.pi) for a, b in zip(new, new[1:])), (
            f"NewTasks not descending by (it, pi) after {t.name}"
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

    # Halting bound: Idle covers a whole gap in one firing and each gap
    # ends in an Activate, so the firings stay within 4n.
    assert len(state.trace) <= 4 * n

    times = [e.time for e in state.trace]
    assert times == sorted(times), "trace firing times must be nondecreasing"
    return result


def unchecked(cls, *values):
    """A record of the ``__slots__`` class ``cls`` holding ``values``, built around its ``__init__`` and its checks.

    A hand-made pickle could give such a record; copying or unpickling it
    must check it again.
    """
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


def odd_trace() -> list[FiringEvent]:
    """Trace events of shapes the scheduler net never makes, for the trace writer.

    They hold a transition name outside the net's four, a name and keys with
    ``"``, ``%`` and non-ASCII characters, an empty detail, an empty list,
    negative and 40-digit integers, two key sets under one name, names that
    are not strings: the int 0, and ``False``, which equals it, and keys that
    are not strings under one name: the int 1, and ``True``, which equals it.
    """
    return [
        FiringEvent("Fork", 0, {"a": 1}),
        FiringEvent(0, 1, {"a": 2}),
        FiringEvent(False, 2, {"a": 0}),
        FiringEvent('Wait "%s" %d %% \u00fc\u4e2d', 3, {'50% "done" \u00e9': -7, "%(x)s": [1]}),
        FiringEvent("Tick", 3, {}),
        FiringEvent("Fork", -1, {"b": [], "a": 10**40}),
        FiringEvent("Join", 10**40, {"ids": [-(10**39), 0, 2**64]}),
        FiringEvent("Fork", 12, {"a": -(10**39)}),
        FiringEvent("Keyed", 13, {1: 2}),
        FiringEvent("Keyed", 14, {True: 2}),
    ]


def run_on_closed_pipe(main) -> tuple[int, int, int]:
    """Call ``main(["run"])`` with stdout on a pipe whose reader is closed.

    Returns the exit code and the number of open descriptors before and
    after the call, as ``/proc/self/fd`` lists them.
    """
    reader, writer = os.pipe()
    os.close(reader)
    with open(writer, "w", encoding="utf-8") as out:
        before = len(os.listdir("/proc/self/fd"))
        saved, sys.stdout = sys.stdout, out
        try:
            code = main(["run"])
        finally:
            sys.stdout = saved
        after = len(os.listdir("/proc/self/fd"))
    return code, before, after


class JsonObject(tuple):
    """A JSON object as its ``(key, value)`` pairs, so that a key may repeat."""


def json_text(value) -> str:
    """``value`` as JSON text, each ``JsonObject`` with its pairs in order, repeats and all."""
    if isinstance(value, JsonObject):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(v)}" for key, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


_KEYS = st.sampled_from(["pi", "it", "st", "priority", "wt", "es", "PI", ""]) | st.text(max_size=3)
#: Any JSON value: ints, bools, floats (inf and nan too), strings, null, arrays and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.lists(st.tuples(_KEYS, inner), max_size=4).map(JsonObject),
    max_leaves=8,
)
#: An object with the known keys, each once, in any order, and small int values.
_WELL_FORMED = st.permutations(["pi", "it", "st", "priority"]).flatmap(
    lambda names: st.tuples(*(st.tuples(st.just(name), st.integers(-1, 9)) for name in names)).map(JsonObject)
)
#: A workload array entry: most often well-formed, so that bad entries come after good ones;
#: else an object of any keys and values, or any other value.
ENTRIES = st.one_of(
    _WELL_FORMED,
    _WELL_FORMED,
    st.lists(st.tuples(_KEYS, st.integers(-1, 9) | JSON_VALUES), max_size=5).map(JsonObject),
    JSON_VALUES,
)


def _valid_entry(pi: int, it: int, st_: int, priority: int | None):
    """The entry of one valid process, its keys in any order; without ``priority`` when it is None."""
    fields = [("pi", pi), ("it", it), ("st", st_)] + ([] if priority is None else [("priority", priority)])
    return st.permutations(fields).map(JsonObject)


#: A valid workload array: distinct indexes >= 1, arrivals >= 0 and service times >= 1,
#: each entry with or without ``priority`` and with its keys in any order.
VALID_ARRAYS = st.lists(
    st.tuples(
        st.integers(1, 50),
        st.integers(0, 30) | st.integers(0, 2**63),
        st.integers(1, 9) | st.integers(1, 2**63),
        st.none() | st.integers(-9, 9),
    ),
    max_size=8,
    unique_by=lambda row: row[0],
).flatmap(lambda rows: st.tuples(*(_valid_entry(*row) for row in rows)).map(list))

#: CSV cells: mostly small integers, else the cells that have their own rule or their own
#: trap: signs, leading zeros and spaces, an empty cell, ``1_0``, non-ASCII digits, a float,
#: a quoted comma, NUL, a digit run beyond Python's 4,300-digit cap, or any short text.
_CSV_CELLS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(0, 30).map(str),
    st.sampled_from(
        ["", " ", " 7 ", "+3", "-1", "-0", "007", "1_0", "\u0663", "\uff11", "1.0", '"1,2"', '"4"', "\x00"]
    ),
    st.integers(4_301, 4_400).map(lambda n: "9" * n),
    st.text(max_size=3),
)
#: A CSV header: the known columns in any order, with or without ``priority``,
#: or any run of known, unknown, padded and repeated names.
_CSV_HEADERS = st.one_of(
    st.permutations(["pi", "it", "st", "priority"]),
    st.permutations(["pi", "it", "st"]),
    st.lists(st.sampled_from(["pi", "it", "st", "priority", " st ", "wt", "PI", ""]), max_size=6),
)


@st.composite
def csv_texts(draw) -> str:
    """CSV workload text: a header, then rows that are mostly as wide as it, some ragged or blank.

    Each line ends in LF, CRLF or CR, and the last one may end in nothing.
    """
    header = draw(_CSV_HEADERS)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        width = draw(st.sampled_from([len(header)] * 4 + [0, len(header) + 1, max(len(header) - 1, 0)]))
        lines.append(",".join(draw(st.lists(_CSV_CELLS, min_size=width, max_size=width))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(line + end for line, end in zip(lines, ends))
