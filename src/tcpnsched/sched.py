"""Single-processor non-preemptive scheduler net over the CPN kernel.

Four places, each holding one list-of-Process token:

    NewTasks    processes that have not yet entered the system, sorted by
                (arrival time, index) descending, so the next arrival is last
    ReadyQueue  arrived processes waiting to be scheduled
    Running     the process currently on the machine (length <= 1)
    Finished    completed processes in completion order

and four transitions: Activate moves every arrived process from NewTasks to
ReadyQueue; Dispatch elects the highest-priority ready process, stamps its
waiting time and priority, and moves it to Running; Execute stamps the
execution start, runs the process to completion (both the Finished and the
emptied Running token become ready at start + service time), and Idle moves
the NewTasks token's ready-time to the next pending arrival while the
machine has nothing arrived to do, so one firing covers a whole gap.

Each action owns the lists of its consumed places (the kernel's contract)
and moves records between them in place, so no firing copies a list.
NewTasks is sorted once, in the initial marking, and Activate only ever pops
its last record, so the sort is a marking invariant and the arrived
processes are always a suffix: ``exists_arrived`` and Idle read only the
last record, and Activate pops while ``exists_arrived`` holds.

Dispatch elects the process that the paper's full refresh would elect,
``elect(update_all(ready, policy, now), policy)``, without rebuilding the
ready list. FCFS, SJF and PR priorities do not depend on the clock, so
Activate stamps each process once with ``update_priority`` and inserts it
into ReadyQueue, which those policies keep ordered by ``compare_process``
with the best process last; Dispatch takes the last one. Activate inserts
by binary search, except that once an arrival of the firing lands first, the
next is compared once with the first record and goes in front if it sorts
strictly before it. Arrivals leave NewTasks in (it, pi) order, so under FCFS
each sorts before every queued record and costs one comparison. HRRN's
response ratio grows with waiting time, so Activate inserts its processes
unstamped into a ReadyQueue sorted by ``(st, it, pi)``, by the same rule
with ``st`` as the key. Among processes with the same ``st`` the ratio
``(st + now - it) * 100 // st`` never rises as ``it`` grows, and with equal
``(st, it)`` the ratios tie and ``compare_process`` picks the lower ``pi``.
So only the first record of a ``(st, it)`` group can win. Dispatch walks
ReadyQueue once, group by group, keeping a running top ratio and the groups
that reach it; a group below the top ends its run, since no later group of
that ``st`` can reach the top, and the walk jumps to the next ``st``.
``update_all`` and ``elect`` then decide among the groups at the top. A
dispatch computes at most one ratio per distinct service time plus one per
group that ties or beats the running top, rather than one per ready process.
Only the dispatched process carries a refreshed waiting time and priority;
the records left in ReadyQueue keep the ones they had. Dispatch stamps the
waiting time, and under HRRN the priority too: under FCFS, SJF and PR the
priority that Activate stamped is the one a refresh would give, since it
does not depend on the clock.

Same-instant conflicts resolve by rank: Activate < Execute < Dispatch < Idle,
so a pending arrival is always queued before the machine picks its next job.
"""

from __future__ import annotations

import bisect
from functools import cache, cmp_to_key
from operator import attrgetter
from typing import NamedTuple

from .kernel import EngineState, Net, TimedToken, Transition, run
from .workload import Policy, Process, Workload, _new_pair, _new_process

NEW_TASKS = "NewTasks"
READY_QUEUE = "ReadyQueue"
RUNNING = "Running"
FINISHED = "Finished"

PLACES = (NEW_TASKS, READY_QUEUE, RUNNING, FINISHED)

#: Fixed-point scale for fractional HRRN response ratios.
HRRN_SCALE = 100

_service = attrgetter("st")
_service_arrival = attrgetter("st", "it")
# Bound once: on Python 3.10 and 3.11 a read such as ``Policy.FCFS`` runs EnumType.__getattr__.
_FCFS, _SJF, _PR = Policy.FCFS, Policy.SJF, Policy.PR


def exists_arrived(l: list[Process], now: int) -> bool:
    """True iff some process of ``l`` has arrived by ``now``.

    ``l`` must be sorted latest arrival first, as NewTasks is, so only its
    last record can decide.
    """
    return bool(l) and l[-1].it <= now


def hrrn_ratio(st: int, wt: int) -> int:
    """Response ratio (service + waiting) / service, scaled by HRRN_SCALE."""
    return (st + wt) * HRRN_SCALE // st


def update_priority(policy: Policy, p: Process) -> Process:
    """Recompute the priority pair of ``p`` for the given policy.

    FCFS: (arrival, 0). SJF: (service, arrival). PR: static major kept,
    arrival as tie-break minor. HRRN: response ratio (service + waiting) /
    service, fixed-point scaled by HRRN_SCALE with integer division.
    """
    if policy is _FCFS:
        pr = _new_pair((p.it, 0))
    elif policy is _SJF:
        pr = _new_pair((p.st, p.it))
    elif policy is _PR:
        pr = _new_pair((p.pr.major, p.it))
    else:
        pr = _new_pair((hrrn_ratio(p.st, p.wt), 0))
    return _new_process((p.pi, p.it, p.st, p.wt, p.es, pr))


def update_proc_wait(p: Process, now: int) -> Process:
    """Set the waiting time of ``p`` to ``now`` minus its arrival time."""
    if now < p.it:
        raise ValueError(f"process {p.pi}: waiting time would be negative at t={now}")
    return _new_process((p.pi, p.it, p.st, now - p.it, p.es, p.pr))


def update_all(l: list[Process], policy: Policy, now: int) -> list[Process]:
    """Refresh waiting time, then priority, of every process in ``l``."""
    return [update_priority(policy, update_proc_wait(p, now)) for p in l]


def cmp_scalar(a: int, b: int, policy: Policy) -> int:
    """Compare one priority field under the policy's direction.

    FCFS and SJF treat the lower value as higher priority; PR and HRRN
    treat the greater value as higher priority. Returns 1 if ``a`` wins,
    0 on a tie, -1 otherwise.
    """
    if policy is _FCFS or policy is _SJF:
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
    (major1, minor1), (major2, minor2) = p1.pr, p2.pr
    # cmp_scalar ties equal majors, so only differing ones need it.
    if major1 != major2:
        return cmp_scalar(major1, major2, policy)
    if minor1 != minor2:
        return 1 if minor1 < minor2 else -1
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
    return _new_process((p.pi, p.it, p.st, p.wt, now, p.pr))


def is_idle(ready: list[Process], new: list[Process], run_list: list[Process], now: int) -> bool:
    """True iff the machine has nothing to do but work is still coming.

    Nothing running, nothing ready, at least one future process, and no
    pending process has arrived yet.
    """
    return not run_list and not ready and bool(new) and not exists_arrived(new, now)


class SchedulerNet(NamedTuple):
    """A scheduler net bound to one workload and one policy."""

    workload: Workload
    net: Net

    def initial_state(self) -> EngineState:
        """Fresh initial marking: all processes in NewTasks, next arrival last; clock 0."""
        arrivals = sorted(self.workload.processes, key=attrgetter("it", "pi"), reverse=True)
        marking = {
            NEW_TASKS: TimedToken(arrivals, 0),
            READY_QUEUE: TimedToken([], 0),
            RUNNING: TimedToken([], 0),
            FINISHED: TimedToken([], 0),
        }
        return EngineState(marking=marking, clock=0, trace=[])


def build_net(w: Workload, policy: Policy) -> SchedulerNet:
    """The scheduler net that runs ``w`` under ``policy``; each policy's net is built once."""
    return SchedulerNet(workload=w, net=_policy_net(policy))


@cache
def _policy_net(policy: Policy) -> Net:
    """The scheduler net of ``policy``, built once per process.

    It holds no workload: every run starts from its own initial marking,
    and the actions keep no state between firings.
    """

    def activate_guard(v, clock):
        return exists_arrived(v[NEW_TASKS], clock)

    # FCFS, SJF and PR priorities ignore the clock: those ReadyQueues stay
    # sorted ascending by compare_process, so the best process is last.
    # HRRN's ReadyQueue holds unstamped records sorted by (st, it, pi): each
    # arrival follows every queued record in (it, pi), so it ends its st run.
    hrrn = policy is Policy.HRRN
    order = _service if hrrn else cmp_to_key(lambda a, b: compare_process(a, b, policy))

    def activate_action(v, clock):
        new, ready = v[NEW_TASKS], v[READY_QUEUE]
        activated = []
        # A finger at the front: once an arrival of this firing lands first,
        # the next one is compared with the first record alone, and goes in
        # front if it sorts strictly before it, as insort would put it. Under
        # FCFS each arrival sorts before every queued record, so one
        # comparison places it; any other arrival takes the binary search.
        front = False
        while exists_arrived(new, clock):
            p = new.pop() if hrrn else update_priority(policy, new.pop())
            activated.append(p.pi)
            if front and order(p) < order(ready[0]):
                ready.insert(0, p)
            else:
                bisect.insort(ready, p, key=order)
                front = ready[0] is p
        outputs = {NEW_TASKS: (new, clock), READY_QUEUE: (ready, clock)}
        return outputs, {"activated": activated}

    def execute_guard(v, clock):
        return len(v[RUNNING]) == 1

    def execute_action(v, clock):
        p = set_execution_start(v[RUNNING].pop(), clock)
        v[FINISHED].append(p)
        done = p.finish
        outputs = {FINISHED: (v[FINISHED], done), RUNNING: (v[RUNNING], done)}
        return outputs, {"executed": p.pi, "start": clock, "finish": done}

    def dispatch_guard(v, clock):
        return (
            not v[RUNNING] and bool(v[READY_QUEUE]) and not exists_arrived(v[NEW_TASKS], clock)
        )

    def hrrn_winner(ready, clock):
        # One walk over the (st, it) groups, keeping a running top ratio. Only
        # a group's first record can win, and within a run of equal st the
        # ratio never rises, so a run is left once it falls below the top.
        q = len(ready)
        top, tied = -1, []
        i = 0
        while i < q:
            p = ready[i]
            st, it = p.st, p.it
            r = hrrn_ratio(st, clock - it)
            if r > top:
                top, tied = r, [i]
            elif r == top:
                tied.append(i)
            i += 1
            if i < q and ready[i].st == st:
                if r < top:
                    i = bisect.bisect_right(ready, st, lo=i, key=_service)
                elif ready[i].it == it:
                    i = bisect.bisect_right(ready, (st, it), lo=i, key=_service_arrival)
        if len(tied) == 1:
            return tied[0]
        return tied[elect(update_all([ready[i] for i in tied], policy, clock), policy)]

    def dispatch_action(v, clock):
        ready = v[READY_QUEUE]
        mx = hrrn_winner(ready, clock) if hrrn else len(ready) - 1
        chosen = update_proc_wait(ready.pop(mx), clock)
        if hrrn:
            chosen = update_priority(policy, chosen)
        v[RUNNING].append(chosen)
        outputs = {RUNNING: (v[RUNNING], clock), READY_QUEUE: (ready, clock)}
        detail = {"dispatched": chosen.pi, "wt": chosen.wt, "pr": [chosen.pr.major, chosen.pr.minor]}
        return outputs, detail

    def idle_guard(v, clock):
        return is_idle(v[READY_QUEUE], v[NEW_TASKS], v[RUNNING], clock)

    def idle_action(v, clock):
        # The token value is unchanged; only its ready-time moves, to the next
        # arrival (the last record of NewTasks), since nothing can fire before it.
        until = v[NEW_TASKS][-1].it
        return {NEW_TASKS: (v[NEW_TASKS], until)}, {"idle_until": until}

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
    return Net(name=f"scheduler-{policy.value}", places=PLACES, transitions=transitions)


def simulate(w: Workload, policy: Policy, trace: bool = True) -> EngineState:
    """Build the net for ``(w, policy)`` and run it to completion.

    The final state keeps the firing trace, or with ``trace=False`` none
    (``None``), so that the run builds no trace event.

    The firing budget is 4n, the most firings a run of n processes takes:
    at most one Idle, Activate, Dispatch and Execute per process. A run
    that needs more raises StepLimitExceeded, which points at a fault in
    the net.
    """
    sn = build_net(w, policy)
    initial = sn.initial_state()
    if not trace:
        initial.trace = None
    return run(sn.net, initial, step_limit=4 * len(w))
