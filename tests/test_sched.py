import pytest

from helpers import by_arrival
from tcpnsched import (
    EngineState,
    Policy,
    PriorityPair,
    Process,
    TimedToken,
    Workload,
    WorkloadError,
    build_net,
    compute_metrics,
    simulate,
    steps,
)
from tcpnsched.sched import (
    FINISHED,
    NEW_TASKS,
    READY_QUEUE,
    RUNNING,
    cmp_scalar,
    compare_process,
    elect,
    exists_arrived,
    is_idle,
    select_arrived,
    set_execution_start,
    update_all,
    update_priority,
    update_proc_wait,
)


def proc(pi, it=0, st=1, wt=0, es=0, pr=(0, 0)):
    return Process(pi=pi, it=it, st=st, wt=wt, es=es, pr=PriorityPair(*pr))


def dispatch(table1, policy, ready_pis, clock):
    """Fire Dispatch on a table-1 marking with only ``ready_pis`` ready.

    Returns the pis in Running and in ReadyQueue after the firing.
    """
    by_pi = {p.pi: p for p in table1.processes}
    sn = build_net(table1, policy)
    state = EngineState(
        marking={
            NEW_TASKS: TimedToken([], clock),
            READY_QUEUE: TimedToken([by_pi[pi] for pi in ready_pis], clock),
            RUNNING: TimedToken([], clock),
            FINISHED: TimedToken([], clock),
        },
        clock=clock,
    )
    assert next(steps(sn.net, state)).name == "Dispatch"
    return (
        [p.pi for p in state.marking[RUNNING].value],
        [p.pi for p in state.marking[READY_QUEUE].value],
    )


class TestArrivalOps:
    # The list functions take NewTasks, which is sorted by (it, pi).
    def test_select_arrived(self, table1):
        l = by_arrival(table1.processes)
        assert [p.pi for p in select_arrived(l, 1)] == [6]
        assert [p.pi for p in select_arrived(l, 6)] == [6, 4, 1]
        assert select_arrived([], 99) == []
        assert [p.pi for p in select_arrived([proc(4, it=5), proc(1, it=6)], 5)] == [4]
        assert [p.pi for p in select_arrived([proc(2, it=5), proc(7, it=5)], 5)] == [2, 7]

    def test_activate_leaves_pending_suffix(self, table1):
        # The first step at ``now`` fires Activate when something has arrived,
        # and leaves the not-yet-arrived suffix in NewTasks.
        def first_step(procs, now):
            sn = build_net(Workload(tuple(procs)), Policy.FCFS)
            state = sn.initial_state()
            state.clock = now
            fired = next(steps(sn.net, state), None)
            return fired and fired.name, [p.pi for p in state.marking[NEW_TASKS].value]

        assert first_step(table1.processes, 1) == ("Activate", [4, 1, 2, 3, 5])
        assert first_step(table1.processes, 0) == ("Idle", [6, 4, 1, 2, 3, 5])
        assert first_step([], 99) == (None, [])
        assert first_step([proc(4, it=5), proc(1, it=6)], 5) == ("Activate", [1])
        assert first_step([proc(2, it=5), proc(7, it=5)], 5) == ("Activate", [])

    def test_exists_arrived(self, table1):
        l = by_arrival(table1.processes)
        assert exists_arrived(l, 0) is False
        assert exists_arrived(l, 1) is True
        assert exists_arrived(l[1:], 4) is False
        assert exists_arrived(l[1:], 5) is True
        assert exists_arrived([], 0) is False


class TestPriorityUpdates:
    def test_fcfs_uses_arrival(self, table1):
        p1 = table1.processes[0]
        assert update_priority(Policy.FCFS, p1).pr == PriorityPair(6, 0)

    def test_sjf_uses_service_then_arrival(self, table1):
        p6 = table1.processes[5]
        assert update_priority(Policy.SJF, p6).pr == PriorityPair(3, 1)

    def test_pr_keeps_static_major_arrival_minor(self, table1):
        p4 = table1.processes[3]
        assert update_priority(Policy.PR, p4).pr == PriorityPair(3, 5)

    def test_hrrn_ratio_scaled_by_100(self):
        assert update_priority(Policy.HRRN, proc(5, st=3, wt=7)).pr == PriorityPair(333, 0)
        assert update_priority(Policy.HRRN, proc(5, st=3, wt=0)).pr == PriorityPair(100, 0)

    def test_service_time_guard(self):
        with pytest.raises(ValueError, match="service time"):
            update_priority(Policy.HRRN, proc(1, st=0))

    def test_other_fields_untouched(self):
        p = proc(2, it=3, st=4, wt=5, es=6, pr=(7, 0))
        q = update_priority(Policy.SJF, p)
        assert (q.pi, q.it, q.st, q.wt, q.es) == (2, 3, 4, 5, 6)

    def test_wait_update(self, table1):
        p1, p2 = table1.processes[0], table1.processes[1]
        assert update_proc_wait(p1, 7).wt == 1
        assert update_proc_wait(p2, 13).wt == 6
        assert update_proc_wait(proc(1, it=5), 5).wt == 0

    def test_wait_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            update_proc_wait(proc(1, it=5), 4)

    def test_update_all_hrrn_at_11(self, table1):
        l = [table1.processes[i] for i in (1, 2, 4)]  # P2, P3, P5
        u = update_all(l, Policy.HRRN, 11)
        assert [p.pr.major for p in u] == [233, 250, 166]
        assert [p.pi for p in u] == [2, 3, 5]

    def test_update_all_empty(self):
        assert update_all([], Policy.HRRN, 3) == []

    def test_update_all_fcfs_majors_are_arrivals(self, table1):
        l = select_arrived(by_arrival(table1.processes), 7)
        assert [p.pi for p in l] == [6, 4, 1, 2]
        u = update_all(l, Policy.FCFS, 7)
        assert [p.pr.major for p in u] == [p.it for p in l]


class TestComparison:
    def test_cmp_scalar_directions(self):
        assert cmp_scalar(3, 5, Policy.FCFS) == 1
        assert cmp_scalar(3, 5, Policy.HRRN) == -1
        assert cmp_scalar(4, 4, Policy.PR) == 0
        assert cmp_scalar(5, 3, Policy.SJF) == -1
        assert cmp_scalar(5, 3, Policy.PR) == 1

    def test_major_decides_fcfs(self):
        assert compare_process(proc(1, pr=(1, 0)), proc(2, pr=(5, 0)), Policy.FCFS) == 1

    def test_major_decides_hrrn(self):
        a, b = proc(3, pr=(250, 0)), proc(2, pr=(233, 0))
        assert compare_process(a, b, Policy.HRRN) == 1
        assert compare_process(b, a, Policy.HRRN) == -1

    def test_full_tie_prefers_lower_index(self):
        assert compare_process(proc(2, pr=(4, 4)), proc(5, pr=(4, 4)), Policy.SJF) == 1
        assert compare_process(proc(5, pr=(4, 4)), proc(2, pr=(4, 4)), Policy.SJF) == -1

    def test_pr_minor_prefers_earlier_arrival(self):
        early = proc(9, pr=(1, 7))
        late = proc(2, pr=(1, 9))
        assert compare_process(early, late, Policy.PR) == 1
        assert compare_process(late, early, Policy.PR) == -1

    def test_equal_index_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            compare_process(proc(1), proc(1), Policy.FCFS)


class TestElection:
    def test_hrrn_at_11_elects_p3(self, table1):
        l = [proc(2, pr=(233, 0)), proc(3, pr=(250, 0)), proc(5, pr=(166, 0))]
        assert elect(l, Policy.HRRN) == 1
        # Dispatch runs the elected process and keeps the rest in order; an
        # HRRN ReadyQueue is sorted by (st, it, pi).
        assert dispatch(table1, Policy.HRRN, [3, 2, 5], 11) == ([3], [2, 5])

    def test_singleton(self, table1):
        l = [proc(6, pr=(1, 0))]
        assert elect(l, Policy.FCFS) == 0
        assert dispatch(table1, Policy.FCFS, [6], 1) == ([6], [])

    def test_fcfs_arrival_ordered_list_elects_head(self, table1):
        l = update_all(sorted(table1.processes, key=lambda p: p.it), Policy.FCFS, 20)
        assert elect(l, Policy.FCFS) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            elect([], Policy.FCFS)


class TestStamps:
    def test_set_execution_start(self, table1):
        assert set_execution_start(table1.processes[5], 1).es == 1
        assert set_execution_start(table1.processes[4], 16).es == 16
        assert set_execution_start(proc(1), 0).es == 0

    def test_is_idle(self, table1):
        # Table 1 after P6 arrives at t=1: P4 arrives at 5, the rest later.
        by_pi = {p.pi: p for p in table1.processes}
        remainder = [by_pi[pi] for pi in (4, 1, 2, 3, 5)]
        assert is_idle([], remainder, [], 4) is True
        assert is_idle([], remainder, [table1.processes[5]], 4) is False
        assert is_idle([], [], [], 4) is False
        assert is_idle([proc(9, it=0)], remainder, [], 4) is False
        assert is_idle([], remainder, [], 5) is False  # P4 has arrived


class TestFullRuns:
    def test_fcfs_completion_order_and_starts(self, table1):
        res = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        assert [p.pi for p in res.finished] == [6, 4, 1, 2, 3, 5]
        assert [p.es for p in res.finished] == [1, 5, 7, 11, 14, 16]

    def test_hrrn_completion_order_and_starts(self, table1):
        res = compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN)
        assert [p.pi for p in res.finished] == [6, 4, 1, 3, 2, 5]
        assert [p.es for p in res.finished] == [1, 5, 7, 11, 13, 16]

    def test_sjf_completion_order_and_starts(self, table1):
        res = compute_metrics(simulate(table1, Policy.SJF), table1, Policy.SJF)
        assert [p.pi for p in res.finished] == [6, 4, 2, 3, 5, 1]
        assert [p.es for p in res.finished] == [1, 5, 7, 10, 12, 15]

    def test_pr_completion_order_and_starts(self, table1):
        res = compute_metrics(simulate(table1, Policy.PR), table1, Policy.PR)
        assert [p.pi for p in res.finished] == [6, 4, 1, 3, 2, 5]
        assert [p.es for p in res.finished] == [1, 5, 7, 11, 13, 16]

    def test_build_net_rejects_invalid_workload(self):
        bad = Workload((Process(1, 0, 0),))
        with pytest.raises(WorkloadError, match="service time"):
            build_net(bad, Policy.FCFS)

    def test_hand_built_plain_list_marking_runs(self, table1):
        # A hand-built marking needs only a plain list, sorted like NewTasks.
        from tcpnsched import run

        sn = build_net(table1, Policy.FCFS)
        state = EngineState(
            marking={
                NEW_TASKS: TimedToken(by_arrival(table1.processes), 0),
                READY_QUEUE: TimedToken([], 0),
                RUNNING: TimedToken([], 0),
                FINISHED: TimedToken([], 0),
            }
        )
        final = run(sn.net, state)
        res = compute_metrics(final, table1, Policy.FCFS)
        assert [p.pi for p in res.finished] == [6, 4, 1, 2, 3, 5]
        # Idle fired at t=0 on the plain list and jumped to the first arrival.
        first = final.trace[0]
        assert (first.transition, first.time, first.detail) == ("Idle", 0, {"idle_until": 1})
