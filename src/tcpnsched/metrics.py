"""Per-process and aggregate schedule metrics derived from a final marking."""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress
from operator import attrgetter, lt
from typing import NamedTuple, Sequence

from .kernel import EngineError, EngineState
from .sched import FINISHED
from .workload import Policy, Process, Workload, _process_columns

_pi, _it = attrgetter("pi"), attrgetter("it")


class Aggregates(NamedTuple):
    avg_waiting: float
    avg_turnaround: float
    utilization: float


class ScheduleResult(NamedTuple):
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

    Each record must carry its stamped es/wt. A run spans [es, finish), and
    the aggregates average ``wt`` and ``turnaround``; ``Process.finish`` and
    ``Process.turnaround`` are read over columns of all the records at once.
    Idle intervals are the maximal gaps between consecutive execution
    intervals within [lead_in, makespan].
    """
    # A Workload's indexes are unique, so equal lengths and equal index sets
    # mean that each process finished exactly once.
    if len(finished) != len(w.processes) or set(map(_pi, finished)) != set(map(_pi, w.processes)):
        got, expected = Counter(map(_pi, finished)), Counter(map(_pi, w.processes))
        raise EngineError(
            f"finished set does not match the workload: {len(finished)} records for "
            f"{len(w.processes)} processes, first missing pi {min(expected - got, default='none')}, "
            f"first extra pi {min(got - expected, default='none')}"
        )
    columns = _process_columns(finished)
    es, ends = columns.es, columns.finish
    lead_in = min(map(_it, w.processes), default=0)
    makespan = max(ends, default=0)

    # Runs in start order; the cursor before each run is the latest end so far.
    starts, stops = list(zip(*sorted(zip(es, ends)))) or ((), ())
    cursors = list(accumulate(stops, max, initial=lead_in))
    idle = list(compress(zip(cursors, starts), map(lt, cursors, starts)))

    # The averages alone depend on the size: with no records they would be 0/0.
    n = len(finished)
    aggregates = Aggregates(
        avg_waiting=sum(columns.wt) / n,
        avg_turnaround=sum(columns.turnaround) / n,
        utilization=sum(columns.st) / (makespan - lead_in),
    ) if n else None
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
    rows = [(p.es, f"run,{p.pi},{p.es},{p.finish}") for p in result.finished]
    rows.extend((s, f"idle,,{s},{e}") for s, e in result.idle_intervals)
    rows.sort(key=lambda row: row[0])
    return "\n".join(["kind,pi,start,finish", *(line for _, line in rows)]) + "\n"
