"""Per-process and aggregate schedule metrics derived from a final marking."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .kernel import EngineError, EngineState
from .sched import FINISHED
from .workload import Policy, Process, Workload


@dataclass(frozen=True)
class Aggregates:
    avg_waiting: float
    avg_turnaround: float
    utilization: float


@dataclass(frozen=True)
class ScheduleResult:
    """Everything derivable from one completed schedule.

    Idle is measured from the first arrival (``lead_in``), not from time 0;
    the span before the first arrival is reported separately as lead_in.
    ``aggregates`` is None for an empty workload rather than 0/0.
    """

    policy: Policy
    finished: tuple[Process, ...]
    makespan: int
    lead_in: int
    idle_intervals: tuple[tuple[int, int], ...]
    aggregates: Aggregates | None

    @property
    def total_idle(self) -> int:
        return sum(end - start for start, end in self.idle_intervals)


def result_from_processes(
    finished: Sequence[Process], w: Workload, policy: Policy
) -> ScheduleResult:
    """Build a ScheduleResult from completed process records.

    Each record must carry its stamped es/wt; start = es, finish = es + st,
    turnaround = wt + st. Idle intervals are the maximal gaps between
    consecutive execution intervals within [lead_in, makespan].
    """
    got, expected = Counter(p.pi for p in finished), Counter(p.pi for p in w.processes)
    if got != expected:
        raise EngineError(
            f"finished set does not match the workload: {len(finished)} records for "
            f"{len(w.processes)} processes, first missing pi {min(expected - got, default='none')}, "
            f"first extra pi {min(got - expected, default='none')}"
        )
    if not finished:
        return ScheduleResult(
            policy=policy,
            finished=(),
            makespan=0,
            lead_in=0,
            idle_intervals=(),
            aggregates=None,
        )

    lead_in = min(p.it for p in w.processes)
    makespan = max(p.es + p.st for p in finished)

    idle: list[tuple[int, int]] = []
    cursor = lead_in
    for start, end in sorted((p.es, p.es + p.st) for p in finished):
        if start > cursor:
            idle.append((cursor, start))
        cursor = max(cursor, end)

    n = len(finished)
    total_service = sum(p.st for p in finished)
    aggregates = Aggregates(
        avg_waiting=sum(p.wt for p in finished) / n,
        avg_turnaround=sum(p.wt + p.st for p in finished) / n,
        utilization=total_service / (makespan - lead_in),
    )
    return ScheduleResult(
        policy=policy,
        finished=tuple(finished),
        makespan=makespan,
        lead_in=lead_in,
        idle_intervals=tuple(idle),
        aggregates=aggregates,
    )


def compute_metrics(final: EngineState, w: Workload, policy: Policy) -> ScheduleResult:
    """Derive the schedule metrics from a completed engine run."""
    finished = final.marking[FINISHED].value
    return result_from_processes(finished, w, policy)


def gantt_csv(result: ScheduleResult) -> str:
    """Gantt data as CSV with header ``kind,pi,start,finish``.

    One row per run and per idle gap, sorted by start, tiling
    [lead_in, makespan].
    """
    rows = [(p.es, f"run,{p.pi},{p.es},{p.es + p.st}") for p in result.finished]
    rows.extend((s, f"idle,,{s},{e}") for s, e in result.idle_intervals)
    rows.sort(key=lambda row: row[0])
    return "\n".join(["kind,pi,start,finish", *(line for _, line in rows)]) + "\n"
