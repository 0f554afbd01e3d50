"""The six records that were dataclasses behave as they did as dataclasses.

``Workload``, ``Net`` and ``EngineState`` are ``__slots__`` classes, and
``SchedulerNet``, ``Aggregates`` and ``ScheduleResult`` are ``NamedTuple``s.
Each is held to a dataclass made here with its class name and fields:
construction and defaults, ``repr``, ``==`` and ``hash``, fields that cannot
be assigned, and copies. A ``NamedTuple`` is a tuple, so it also equals the
plain tuple of its values, which a dataclass did not; the tests say where.
"""

import copy
import dataclasses
import pickle

import pytest

from tcpnsched import (
    Aggregates,
    EngineError,
    EngineState,
    Net,
    Policy,
    Process,
    ScheduleResult,
    SchedulerNet,
    TimedToken,
    Transition,
    Workload,
    builtin_paper_workload,
    compute_metrics,
    simulate,
)

from helpers import unchecked


def never(values, clock):
    return False


def keep(values, clock):
    return {"cell": (values["cell"], clock + 1)}, {}


def _records() -> dict:
    """One record of each class, by class name. Its guards and actions are module functions, so it pickles."""
    table1 = builtin_paper_workload()
    net = Net(
        "tick",
        ("cell", "flag"),
        (Transition("B", 1, ("cell",), never, keep), Transition("A", 1, ("cell",), never, keep, reads=("flag",))),
    )
    result = compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN)
    return {
        "Workload": table1,
        "Net": net,
        "EngineState": EngineState({"cell": TimedToken([1], 0)}, 4, None),
        "SchedulerNet": SchedulerNet(table1, net),
        "Aggregates": result.aggregates,
        "ScheduleResult": result,
    }


RECORDS = _records()
FROZEN = [name for name in RECORDS if name != "EngineState"]
SLOTS_CLASSES = ("Workload", "Net", "EngineState")
COPIES = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def fields(record) -> tuple[str, ...]:
    """The record's field names, in order."""
    return getattr(record, "_fields", None) or record.__slots__


def values(record) -> tuple:
    """The record's field values, in order."""
    return tuple(getattr(record, name) for name in fields(record))


def as_dataclass(record):
    """The record as the dataclass of its class name and fields that it was: frozen unless an ``EngineState``."""
    cls = dataclasses.make_dataclass(type(record).__name__, fields(record), frozen=not isinstance(record, EngineState))
    return cls(*values(record))


def test_the_fields_are_as_they_were():
    assert {name: fields(record) for name, record in RECORDS.items()} == {
        "Workload": ("processes", "name"),
        "Net": ("name", "places", "transitions"),
        "EngineState": ("marking", "clock", "trace"),
        "SchedulerNet": ("workload", "net"),
        "Aggregates": ("avg_waiting", "avg_turnaround", "utilization"),
        "ScheduleResult": ("policy", "finished", "makespan", "lead_in", "idle_intervals", "aggregates"),
    }
    assert [name for name, record in RECORDS.items() if hasattr(record, "_fields")] == [
        "SchedulerNet",
        "Aggregates",
        "ScheduleResult",
    ]


@pytest.mark.parametrize("name", RECORDS)
def test_built_by_position_and_by_keyword(name):
    record = RECORDS[name]
    cls = type(record)
    by_position, by_keyword = cls(*values(record)), cls(**dict(zip(fields(record), values(record))))
    assert values(by_position) == values(by_keyword) == values(record)


def test_defaults_are_as_they_were():
    assert Workload((Process(1, 0, 1),)).name == ""
    first, second = EngineState({}), EngineState({})
    assert (first.clock, first.trace) == (0, [])
    assert first.trace is not second.trace
    assert EngineState({}, trace=None).trace is None
    for cls in (Workload, Net, EngineState, SchedulerNet, Aggregates, ScheduleResult):
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_form(name):
    assert repr(RECORDS[name]) == repr(as_dataclass(RECORDS[name]))


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike(name):
    record = RECORDS[name]
    twin = type(record)(*values(record))
    assert twin == record and not twin != record
    if name == "EngineState":
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
    # A record is never equal to one of another class; a NamedTuple is a tuple, so it equals its values.
    assert record != as_dataclass(record)
    assert (record == values(record)) is (name not in SLOTS_CLASSES)


def test_records_that_differ_in_a_field_differ():
    table1, net = RECORDS["Workload"], RECORDS["Net"]
    assert Workload(table1.processes, "renamed") != table1
    assert Net("tock", net.places, net.transitions) != net
    assert EngineState({}, 1) != EngineState({}, 2)


def frozen_records_refuse_assignment(kernel_module) -> None:
    """A kernel ``Net``'s fields can be neither assigned nor deleted, as a frozen dataclass's could not.

    ``Workload`` shares the rule, which lives in the kernel's record base,
    so the mutant table checks it here with a kernel module.
    """
    net = kernel_module.Net("n", ("cell",), ())
    for field in net.__slots__:
        for change in (lambda: setattr(net, field, None), lambda: delattr(net, field)):
            try:
                change()
            except AttributeError:
                continue
            raise AssertionError(f"field {field!r} of a Net changed")
    assert (net.name, net.places, net.transitions) == ("n", ("cell",), ())


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]
    before = values(record)
    for field in fields(record):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert values(record) == before


def test_engine_state_fields_can_be_assigned():
    state = EngineState({})
    state.clock, state.trace = 5, None
    assert (state.clock, state.trace) == (5, None)
    with pytest.raises(AttributeError):
        state.extra = None


@pytest.mark.parametrize("way", COPIES)
@pytest.mark.parametrize("name", RECORDS)
def test_copies_round_trip(name, way):
    record = RECORDS[name]
    twin = COPIES[way](record)
    assert type(twin) is type(record) and twin == record


def test_a_copied_engine_state_shares_its_marking_and_a_deep_copy_does_not():
    state = RECORDS["EngineState"]
    assert copy.copy(state).marking is state.marking
    assert copy.deepcopy(state).marking["cell"].value is not state.marking["cell"].value


@pytest.mark.parametrize("way", COPIES)
def test_a_net_is_checked_and_ordered_when_copied(way):
    forged = unchecked(Net, "forged", (), (Transition("A", 0, ("cell",), never, keep),))
    with pytest.raises(EngineError, match="transition 'A' uses undeclared place 'cell'"):
        COPIES[way](forged)
    transitions = (Transition("B", 1, ("cell",), never, keep), Transition("A", 0, ("cell",), never, keep))
    assert [t.name for t in COPIES[way](unchecked(Net, "n", ("cell",), transitions)).transitions] == ["A", "B"]
