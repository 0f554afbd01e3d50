import json

import pytest

from helpers import make_corpus, new_tasks_order
from tcpnsched import (
    DEFAULT_STEP_LIMIT,
    EngineError,
    EngineState,
    FiringEvent,
    Net,
    Policy,
    StepLimitExceeded,
    TimedToken,
    Transition,
    advance_clock,
    build_net,
    builtin_paper_workload,
    run,
    steps,
    trace_records,
)
from tcpnsched.sched import FINISHED, NEW_TASKS, READY_QUEUE, RUNNING


def counter_net(limit=3, delay=1):
    """One place holding an int; each firing increments it ``delay`` later."""

    def guard(v, clock):
        return v["cell"] < limit

    def action(v, clock):
        return {"cell": TimedToken(v["cell"] + 1, clock + delay)}, {"count": v["cell"] + 1}

    t = Transition(name="inc", rank=0, consumed=("cell",), guard=guard, action=action)
    return Net(name="counter", places=("cell",), transitions=(t,))


def counter_state(value=0, ready=0):
    return EngineState(marking={"cell": TimedToken(value, ready)})


class TestEnabling:
    def test_token_availability_gates_enabling(self):
        net = counter_net()
        state = counter_state(value=0, ready=5)
        stepper = steps(net, state)
        # Not ready at 0: the first step advances the clock instead of firing.
        assert next(stepper) is None
        assert state.clock == 5 and state.trace == []
        assert next(stepper).name == "inc"
        assert state.trace[0].time == 5

    def test_guard_gates_enabling(self):
        net = counter_net(limit=3)
        state = counter_state(value=3)
        assert list(steps(net, state)) == []
        assert state.trace == []

    def test_rank_orders_result(self):
        # Both are enabled at cell 0 and only b at cell 1, so a must fire
        # first; b is declared first.
        inc = lambda v, clock: ({"cell": TimedToken(v["cell"] + 1, clock)}, {})

        def below(n):
            return lambda v, clock: v["cell"] < n

        net = Net(
            name="ranked",
            places=("cell",),
            transitions=(
                Transition(name="b", rank=2, consumed=("cell",), guard=below(2), action=inc),
                Transition(name="a", rank=1, consumed=("cell",), guard=below(1), action=inc),
            ),
        )
        assert [t.name for t in net.transitions] == ["a", "b"]
        assert [t.name for t in steps(net, counter_state())] == ["a", "b"]

    def test_guard_crash_is_a_model_error(self):
        # An exception other than EngineError from a guard or an action is
        # reported as an EngineError naming the transition and the clock; an
        # EngineError passes through as raised.
        for role in ("guard", "action"):
            for raised, message in (
                (ValueError("boom"), f"{role} of transition 'bad' failed at t=2: boom"),
                (EngineError("own words"), "own words"),
            ):

                def crash(v, clock, raised=raised):
                    raise raised

                guard, action = (crash, None) if role == "guard" else (lambda v, c: True, crash)
                t = Transition(name="bad", rank=0, consumed=("cell",), guard=guard, action=action)
                net = Net(name="broken", places=("cell",), transitions=(t,))
                with pytest.raises(EngineError) as info:
                    run(net, counter_state(ready=2))
                assert str(info.value) == message, (role, raised)
                if isinstance(raised, EngineError):
                    assert info.value is raised, role
                else:
                    assert type(info.value) is EngineError and info.value.__cause__ is raised, role

    def test_missing_place_is_a_model_error(self):
        net = counter_net()
        state = EngineState(marking={})
        with pytest.raises(EngineError) as info:
            next(steps(net, state))
        assert str(info.value) == "initial marking does not cover place 'cell'"

    def test_action_receives_the_values_its_guard_saw(self):
        seen = []

        def guard(v, clock):
            seen.append(v)
            return v["cell"] < 1

        def action(v, clock):
            assert v is seen[-1]
            return {"cell": TimedToken(v["cell"] + 1, clock)}, {}

        t = Transition(name="inc", rank=0, consumed=("cell",), guard=guard, action=action)
        final = run(Net(name="once", places=("cell",), transitions=(t,)), counter_state())
        assert final.marking["cell"].value == 1 and len(final.trace) == 1


class TestFiring:
    def test_fire_moves_token_and_appends_event(self):
        net = counter_net()
        state = counter_state()
        assert next(steps(net, state)) is net.transitions[0]
        assert state.marking["cell"] == TimedToken(1, 1)
        assert state.clock == 0
        assert [(e.transition, e.time, e.detail) for e in state.trace] == [("inc", 0, {"count": 1})]

    def test_token_and_event_fields_cannot_be_assigned(self):
        for record in (TimedToken(0, 1), FiringEvent("inc", 0, {})):
            for field in type(record)._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, 5)

    def test_action_must_rewrite_consumed_places(self):
        def wrong_action(v, clock):
            return {}, {}

        t = Transition(
            name="lossy", rank=0, consumed=("cell",), guard=lambda v, c: True, action=wrong_action
        )
        net = Net(name="lossy", places=("cell",), transitions=(t,))
        with pytest.raises(EngineError) as info:
            run(net, counter_state())
        assert str(info.value) == (
            "transition 'lossy' must rewrite exactly its consumed places ['cell'], wrote []"
        )

    def test_token_ready_time_never_decreases(self):
        def rewind(v, clock):
            return {"cell": TimedToken(v["cell"], clock - 1)}, {}

        t = Transition(
            name="rewind", rank=0, consumed=("cell",), guard=lambda v, c: True, action=rewind
        )
        net = Net(name="rewind", places=("cell",), transitions=(t,))
        state = counter_state()
        state.clock = 4
        with pytest.raises(EngineError) as info:
            run(net, state)
        assert str(info.value) == "transition 'rewind' would move place 'cell' back in time (3 < 4)"

    def test_net_rejects_undeclared_place(self):
        t = Transition(
            name="ghost", rank=0, consumed=("nowhere",), guard=lambda v, c: True, action=None
        )
        with pytest.raises(EngineError) as info:
            Net(name="ghost", places=("cell",), transitions=(t,))
        assert str(info.value) == "transition 'ghost' uses undeclared place 'nowhere'"


class TestClock:
    def test_advance_to_next_ready_time(self):
        net = counter_net()
        state = counter_state(value=3, ready=7)
        assert advance_clock(net, state) == 7
        assert state.clock == 7

    def test_halt_when_nothing_ahead(self):
        net = counter_net()
        state = counter_state(value=3, ready=0)
        assert advance_clock(net, state) is None
        assert state.clock == 0


    def test_steps_advances_through_the_module_hook(self, monkeypatch, table1):
        # perfbench/layers.py counts clock advances by rebinding
        # kernel.advance_clock, so steps must look it up on every advance.
        from tcpnsched import kernel

        real, moved = kernel.advance_clock, []

        def counting(net, state):
            moved.append(real(net, state))
            return moved[-1]

        monkeypatch.setattr(kernel, "advance_clock", counting)
        sn = build_net(table1, Policy.FCFS)
        nones = sum(t is None for t in steps(sn.net, sn.initial_state()))
        assert nones > 0
        # One advance per None yielded, then the one that finds nothing ahead.
        assert [m is None for m in moved] == [False] * nones + [True]

class TestRun:
    def test_counter_runs_to_quiescence(self):
        final = run(counter_net(limit=3), counter_state())
        assert final.marking["cell"].value == 3
        assert final.clock == 3
        assert [e.time for e in final.trace] == [0, 1, 2]

    def test_initial_state_untouched(self, table1):
        initial = counter_state()
        run(counter_net(), initial)
        assert initial.marking["cell"] == TimedToken(0, 0)
        assert initial.clock == 0 and initial.trace == []
        # The scheduler net's actions update their lists in place, so only
        # run's copy keeps one initial state good for a second run.
        sn = build_net(table1, Policy.SJF)
        initial = sn.initial_state()
        first = run(sn.net, initial).marking[FINISHED].value
        second = run(sn.net, initial).marking[FINISHED].value
        assert len(first) == len(table1) and first == second
        assert initial.marking[NEW_TASKS].value == new_tasks_order(table1.processes)
        assert all(initial.marking[name].value == [] for name in (READY_QUEUE, RUNNING, FINISHED))
        assert initial.clock == 0 and initial.trace == []

    def test_step_limit_catches_nonterminating_net(self):
        # Zero delay keeps the transition enabled at the same instant forever.
        net = counter_net(limit=float("inf"), delay=0)
        with pytest.raises(StepLimitExceeded) as info:
            run(net, counter_state(), step_limit=10)
        assert str(info.value) == "net 'counter' did not halt within 10 firings"

    def test_run_requires_covering_marking(self):
        with pytest.raises(EngineError) as info:
            run(counter_net(), EngineState(marking={}))
        assert str(info.value) == "initial marking does not cover place 'cell'"


def stepped(net, state, step_limit=DEFAULT_STEP_LIMIT):
    """What ``steps`` does with ``state``.

    Returns ``(fired name or None, clock)`` for each step, and the
    EngineError it raised as ``(type, message)``, or None.
    """
    seen = []
    try:
        for t in steps(net, state, step_limit):
            seen.append((t and t.name, state.clock))
    except EngineError as e:
        return seen, (type(e), str(e))
    return seen, None


def assert_untraced_runs_the_same(net, initial, step_limit=DEFAULT_STEP_LIMIT):
    """Run ``initial()`` with a list trace and with none; return the error both raised.

    Both must take the same steps at the same clocks, end in the same
    marking and clock, and raise the same error, and the list trace must
    record every firing.
    """
    traced, untraced = initial(), initial()
    untraced.trace = None
    seen, error = stepped(net, traced, step_limit)
    assert stepped(net, untraced, step_limit) == (seen, error)
    assert untraced.trace is None
    assert untraced.marking == traced.marking and untraced.clock == traced.clock
    assert [(e.transition, e.time) for e in traced.trace] == [s for s in seen if s[0] is not None]
    return error


class TestWithoutTrace:
    """A state whose trace is None runs exactly as one that keeps a list."""

    def test_hand_built_nets(self):
        def crash(v, clock):
            if clock == 2:
                raise ValueError("boom")
            return {"cell": TimedToken(v["cell"] + 1, clock + 1)}, {}

        t = Transition(name="crash", rank=0, consumed=("cell",), guard=lambda v, c: True, action=crash)
        crashing = Net(name="crash", places=("cell",), transitions=(t,))

        assert assert_untraced_runs_the_same(counter_net(limit=3), counter_state) is None
        assert assert_untraced_runs_the_same(counter_net(limit=4, delay=3), lambda: counter_state(ready=5)) is None
        assert assert_untraced_runs_the_same(counter_net(limit=float("inf"), delay=0), counter_state, 10) == (
            StepLimitExceeded,
            "net 'counter' did not halt within 10 firings",
        )
        assert assert_untraced_runs_the_same(crashing, counter_state) == (
            EngineError,
            "action of transition 'crash' failed at t=2: boom",
        )

    @pytest.mark.parametrize("policy", list(Policy))
    def test_scheduler_net(self, policy):
        table1 = builtin_paper_workload()
        for w in [table1] + make_corpus(23, 20):
            sn = build_net(w, policy)
            assert assert_untraced_runs_the_same(sn.net, sn.initial_state, 4 * len(w)) is None, w.name
        # A budget too small to finish: both runs stop at the same firing.
        sn = build_net(table1, policy)
        assert assert_untraced_runs_the_same(sn.net, sn.initial_state, 5) == (
            StepLimitExceeded,
            f"net 'scheduler-{policy.value}' did not halt within 5 firings",
        )

    def test_run_keeps_none_and_copies_a_list(self):
        initial = counter_state()
        initial.trace = None
        final = run(counter_net(), initial)
        assert final.trace is None and final.marking["cell"].value == 3
        earlier = FiringEvent("before", 0, {})
        initial.trace = [earlier]
        final = run(counter_net(), initial)
        assert final.trace is not initial.trace and initial.trace == [earlier]
        assert [e.transition for e in final.trace] == ["before", "inc", "inc", "inc"]


def guards_holding(net, state):
    """Names of the transitions whose guard holds at the clock, in rank order."""
    values = {name: tok.value for name, tok in state.marking.items()}
    return [t.name for t in net.transitions if t.guard(values, state.clock)]


class TestSchedulerNetExamples:
    """Kernel-level behavior pinned on the scheduler net."""

    def test_only_activate_enabled_at_first_arrival(self, table1):
        sn = build_net(table1, Policy.FCFS)
        state = sn.initial_state()
        state.clock = 1
        assert all(tok.ready_time <= 1 for tok in state.marking.values())
        assert guards_holding(sn.net, state) == ["Activate"]
        assert next(steps(sn.net, state)).name == "Activate"
        assert state.clock == 1

    def test_nothing_enabled_while_all_tokens_lie_ahead(self, table1):
        sn = build_net(table1, Policy.FCFS)
        state = sn.initial_state()
        state.marking = {
            name: TimedToken(tok.value, 10) for name, tok in state.marking.items()
        }
        # Idle's guard holds at 0, before the first arrival, but its token is not ready.
        assert guards_holding(sn.net, state) == ["Idle"]
        assert next(steps(sn.net, state)) is None
        assert state.clock == 10 and state.trace == []

    def test_dispatch_enabled_when_ready_nonempty_and_nothing_arrived(self, table1):
        sn = build_net(table1, Policy.FCFS)
        procs = new_tasks_order(table1.processes)
        state = EngineState(
            marking={
                NEW_TASKS: TimedToken([p for p in procs if p.it > 2], 0),
                READY_QUEUE: TimedToken([p for p in procs if p.it <= 2], 0),
                RUNNING: TimedToken([], 0),
                FINISHED: TimedToken([], 0),
            },
            clock=2,
        )
        assert guards_holding(sn.net, state) == ["Dispatch"]
        assert next(steps(sn.net, state)).name == "Dispatch"

    def test_fire_activate_at_first_arrival(self, table1):
        sn = build_net(table1, Policy.FCFS)
        state = sn.initial_state()
        state.clock = 1
        assert next(steps(sn.net, state)).name == "Activate"
        assert [p.pi for p in state.marking[READY_QUEUE].value] == [6]
        # NewTasks is descending by (it, pi), so the rest stay latest first.
        assert [p.pi for p in state.marking[NEW_TASKS].value] == [5, 3, 2, 1, 4]

    def test_fire_execute_stamps_start_and_delays_tokens(self, table1):
        sn = build_net(table1, Policy.FCFS)
        p6 = table1.processes[5]
        state = EngineState(
            marking={
                NEW_TASKS: TimedToken(new_tasks_order(p for p in table1.processes if p.pi != 6), 1),
                READY_QUEUE: TimedToken([], 1),
                RUNNING: TimedToken([p6], 1),
                FINISHED: TimedToken([], 1),
            },
            clock=1,
        )
        assert next(steps(sn.net, state)).name == "Execute"
        finished = state.marking[FINISHED]
        assert [p.pi for p in finished.value] == [6]
        assert finished.value[0].es == 1
        assert finished.ready_time == 4
        assert state.marking[RUNNING] == TimedToken([], 4)

    def test_clock_jumps_over_execution(self, table1):
        # After Execute at t=1 nothing is enabled until the machine frees at 4.
        sn = build_net(table1, Policy.FCFS)
        state = sn.initial_state()
        stepper = steps(sn.net, state)
        for t in stepper:
            if t is not None and t.name == "Execute":
                break
        assert state.clock == 1
        assert next(stepper) is None
        assert state.clock == 4

    def test_idle_tick_then_advance(self, table1):
        sn = build_net(table1, Policy.FCFS)
        state = sn.initial_state()
        stepper = steps(sn.net, state)
        # Idle also fires at t=0, before the first arrival; stop at the one at t=4.
        for t in stepper:
            if t is not None and t.name == "Idle" and state.clock == 4:
                break
        # Idle fired at 4 rewriting NewTasks one tick ahead.
        assert state.trace[-1].transition == "Idle"
        assert state.marking[NEW_TASKS].ready_time == 5
        assert next(stepper) is None
        assert state.clock == 5

    def test_empty_workload_halts_immediately(self):
        from tcpnsched import Workload, simulate

        final = simulate(Workload(()), Policy.FCFS)
        assert final.clock == 0
        assert final.trace == []
        assert final.marking[FINISHED].value == []

    def test_determinism_byte_identical_traces(self, table1):
        from tcpnsched import simulate

        a = simulate(table1, Policy.HRRN)
        b = simulate(table1, Policy.HRRN)
        assert json.dumps(trace_records(a.trace)) == json.dumps(trace_records(b.trace))

    def test_trace_export_shape(self, table1):
        from tcpnsched import simulate

        records = trace_records(simulate(table1, Policy.FCFS).trace)
        assert records, "trace must not be empty"
        for rec in records:
            assert set(rec) == {"t", "transition", "detail"}
            assert isinstance(rec["t"], int) and isinstance(rec["transition"], str)
            assert isinstance(rec["detail"], dict)
