"""Single-processor non-preemptive scheduler net over the CPN kernel.

Four places, each holding one list-of-Process token:

    NewTasks    processes that have not yet entered the system
    ReadyQueue  arrived processes waiting to be scheduled
    Running     the process currently on the machine (length <= 1)
    Finished    completed processes in completion order

and four transitions: Activate moves every arrived process from NewTasks to
the end of ReadyQueue; Dispatch recomputes waiting times and priorities for
the whole ready list, then moves the winner to Running; Execute stamps the
execution start, runs the process to completion (both the Finished and the
emptied Running token become ready at start + service time), and Idle ticks
the clock forward by one while the machine has nothing arrived to do.

Same-instant conflicts resolve by rank: Activate < Execute < Dispatch < Idle,
so a pending arrival is always queued before the machine picks its next job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (
    DEFAULT_STEP_LIMIT,
    EngineState,
    Net,
    TimedToken,
    Transition,
    run,
)
from .workload import Policy, PriorityPair, Process, Workload, WorkloadError, validate_workload

NEW_TASKS = "NewTasks"
READY_QUEUE = "ReadyQueue"
RUNNING = "Running"
FINISHED = "Finished"

PLACES = (NEW_TASKS, READY_QUEUE, RUNNING, FINISHED)

#: Fixed-point scale for fractional HRRN response ratios.
HRRN_SCALE = 100


def select_arrived(l: list[Process], now: int) -> list[Process]:
    """The arrived processes of ``l``, original order preserved."""
    return [p for p in l if p.it <= now]


def remove_arrived(l: list[Process], now: int) -> list[Process]:
    """The not-yet-arrived processes of ``l``, original order preserved."""
    return [p for p in l if p.it > now]


def exists_arrived(l: list[Process], now: int) -> bool:
    """True iff some process of ``l`` has arrived by ``now``.

    Reads the minimum arrival cached on a NewTasks token (``_ArrivalList``);
    a plain list is scanned.
    """
    cached = getattr(l, "min_arrival", None)
    if cached is not None:
        return cached <= now
    return any(p.it <= now for p in l)


def update_priority(policy: Policy, p: Process) -> Process:
    """Recompute the priority pair of ``p`` for the given policy.

    FCFS: (arrival, 0). SJF: (service, arrival). PR: static major kept,
    arrival as tie-break minor. HRRN: response ratio (service + waiting) /
    service, fixed-point scaled by HRRN_SCALE with integer division.
    """
    if p.st < 1:
        raise ValueError(f"process {p.pi}: service time must be >= 1")
    if policy is Policy.FCFS:
        pr = PriorityPair(p.it, 0)
    elif policy is Policy.SJF:
        pr = PriorityPair(p.st, p.it)
    elif policy is Policy.PR:
        pr = PriorityPair(p.pr.major, p.it)
    else:
        pr = PriorityPair((p.st + p.wt) * HRRN_SCALE // p.st, 0)
    return Process(pi=p.pi, it=p.it, st=p.st, wt=p.wt, es=p.es, pr=pr)


def update_proc_wait(p: Process, now: int) -> Process:
    """Set the waiting time of ``p`` to ``now`` minus its arrival time."""
    if now < p.it:
        raise ValueError(f"process {p.pi}: waiting time would be negative at t={now}")
    return Process(pi=p.pi, it=p.it, st=p.st, wt=now - p.it, es=p.es, pr=p.pr)


def update_all(l: list[Process], policy: Policy, now: int) -> list[Process]:
    """Refresh waiting time, then priority, of every process in ``l``."""
    return [update_priority(policy, update_proc_wait(p, now)) for p in l]


def cmp_scalar(a: int, b: int, policy: Policy) -> int:
    """Compare one priority field under the policy's direction.

    FCFS and SJF treat the lower value as higher priority; PR and HRRN
    treat the greater value as higher priority. Returns 1 if ``a`` wins,
    0 on a tie, -1 otherwise.
    """
    if policy is Policy.FCFS or policy is Policy.SJF:
        if a < b:
            return 1
        return 0 if a == b else -1
    if a > b:
        return 1
    return 0 if a == b else -1


def compare_process(p1: Process, p2: Process, policy: Policy) -> int:
    """Strict priority order over processes with distinct indexes.

    Majors compare under the policy direction. On a major tie the minor
    field decides, earlier value winning for every policy (for FCFS/SJF
    that is the policy direction itself; for PR/HRRN it is the
    earlier-arrival tie-break). A full tie falls back to the lower process
    index. Returns 1 iff ``p1`` is higher priority; never returns 0.
    """
    if p1.pi == p2.pi:
        raise ValueError(f"cannot compare a process index with itself: {p1.pi}")
    major = cmp_scalar(p1.pr.major, p2.pr.major, policy)
    if major != 0:
        return major
    if p1.pr.minor != p2.pr.minor:
        return 1 if p1.pr.minor < p2.pr.minor else -1
    return 1 if p1.pi < p2.pi else -1


def elect(l: list[Process], policy: Policy) -> int:
    """Zero-based index of the highest-priority process in ``l``.

    Left fold keeping the current best on a win; since compare_process
    never ties, the result is the unique maximum of the order.
    """
    if not l:
        raise ValueError("cannot elect from an empty process list")
    best = 0
    for c in range(1, len(l)):
        if compare_process(l[best], l[c], policy) != 1:
            best = c
    return best


def set_execution_start(p: Process, now: int) -> Process:
    """Stamp ``now`` as the execution start time of ``p``."""
    return Process(pi=p.pi, it=p.it, st=p.st, wt=p.wt, es=now, pr=p.pr)


def is_idle(ready: list[Process], new: list[Process], run_list: list[Process], now: int) -> bool:
    """True iff the machine has nothing to do but work is still coming.

    Nothing running, nothing ready, at least one future process, and no
    pending process has arrived yet.
    """
    return not run_list and not ready and bool(new) and not exists_arrived(new, now)


class _ArrivalList(list):
    """NewTasks token value: a process list with its minimum arrival cached.

    Guards probe NewTasks at every engine step; the cache keeps those probes
    O(1) instead of rescanning the list. Still a plain list for every other
    purpose (equality, iteration, marking inspection).
    """

    __slots__ = ("min_arrival",)

    def __init__(self, procs=()):
        super().__init__(procs)
        self.min_arrival = min((p.it for p in self), default=_NO_ARRIVAL)


_NO_ARRIVAL = float("inf")


@dataclass(frozen=True)
class SchedulerNet:
    """A scheduler net bound to one workload and one policy."""

    policy: Policy
    workload: Workload
    net: Net

    def initial_state(self) -> EngineState:
        """Fresh initial marking: all processes in NewTasks, clock 0."""
        marking = {
            NEW_TASKS: TimedToken(_ArrivalList(self.workload.processes), 0),
            READY_QUEUE: TimedToken([], 0),
            RUNNING: TimedToken([], 0),
            FINISHED: TimedToken([], 0),
        }
        return EngineState(marking=marking, clock=0, trace=[])


def build_net(w: Workload, policy: Policy) -> SchedulerNet:
    """Assemble the scheduler net for a validated workload."""
    violations = validate_workload(w)
    if violations:
        raise WorkloadError("; ".join(violations))

    def activate_guard(v, clock):
        return exists_arrived(v[NEW_TASKS], clock)

    def activate_action(v, clock):
        moved = select_arrived(v[NEW_TASKS], clock)
        outputs = {
            NEW_TASKS: TimedToken(_ArrivalList(remove_arrived(v[NEW_TASKS], clock)), clock),
            READY_QUEUE: TimedToken(v[READY_QUEUE] + moved, clock),
        }
        return outputs, {"activated": [p.pi for p in moved]}

    def execute_guard(v, clock):
        return len(v[RUNNING]) == 1

    def execute_action(v, clock):
        p = set_execution_start(v[RUNNING][0], clock)
        done = clock + p.st
        outputs = {
            FINISHED: TimedToken(v[FINISHED] + [p], done),
            RUNNING: TimedToken([], done),
        }
        return outputs, {"executed": p.pi, "start": clock, "finish": done}

    def dispatch_guard(v, clock):
        return (
            not v[RUNNING] and bool(v[READY_QUEUE]) and not exists_arrived(v[NEW_TASKS], clock)
        )

    def dispatch_action(v, clock):
        u = update_all(v[READY_QUEUE], policy, clock)
        mx = elect(u, policy)
        chosen = u[mx]
        outputs = {
            RUNNING: TimedToken([chosen], clock),
            READY_QUEUE: TimedToken(u[:mx] + u[mx + 1 :], clock),
        }
        detail = {"dispatched": chosen.pi, "wt": chosen.wt, "pr": [chosen.pr.major, chosen.pr.minor]}
        return outputs, detail

    def idle_guard(v, clock):
        return is_idle(v[READY_QUEUE], v[NEW_TASKS], v[RUNNING], clock)

    def idle_action(v, clock):
        # The token value is unchanged; only its ready-time moves one tick.
        return {NEW_TASKS: TimedToken(v[NEW_TASKS], clock + 1)}, {"idle_until": clock + 1}

    transitions = (
        Transition(
            name="Activate",
            rank=0,
            consumed=(NEW_TASKS, READY_QUEUE),
            guard=activate_guard,
            action=activate_action,
        ),
        Transition(
            name="Execute",
            rank=1,
            consumed=(RUNNING, FINISHED),
            guard=execute_guard,
            action=execute_action,
        ),
        Transition(
            name="Dispatch",
            rank=2,
            consumed=(READY_QUEUE, RUNNING),
            reads=(NEW_TASKS,),
            guard=dispatch_guard,
            action=dispatch_action,
        ),
        Transition(
            name="Idle",
            rank=3,
            consumed=(NEW_TASKS,),
            reads=(READY_QUEUE, RUNNING),
            guard=idle_guard,
            action=idle_action,
        ),
    )
    net = Net(name=f"scheduler-{policy.value}", places=PLACES, transitions=transitions)
    return SchedulerNet(policy=policy, workload=w, net=net)


def simulate(w: Workload, policy: Policy, step_limit: int = DEFAULT_STEP_LIMIT) -> EngineState:
    """Build the net for ``(w, policy)`` and run it to completion."""
    sn = build_net(w, policy)
    return run(sn.net, sn.initial_state(), step_limit=step_limit)
