"""Minimal timed colored Petri net execution engine.

Every place holds exactly one timed token: an opaque colored value plus an
integer ready-time. A transition is enabled when all of its consumed and
read input tokens are ready at the current clock and its guard evaluates
true on the input values. Firing the enabled transition of lowest rank takes
five steps in this order: check the firing budget; run the action on the
same mapping of input values its guard saw; check that its outputs rewrite
exactly the consumed places; write them into the marking; then, when the
state keeps a trace, append one event to it. A consumed token leaves the
marking, so the action owns the values of its consumed places: it may
update them in place and return them in its outputs. It never changes a
read place. When nothing is enabled, the clock jumps to the smallest token
ready-time strictly ahead of it; if no token lies ahead, the run halts.

One loop in ``steps`` writes every token. Its first write is the initial
marking, by no transition; each later one is a firing's outputs. It builds
each ``(value, ready_time)`` pair into a ``TimedToken``, checking that it is
a pair whose ready-time compares with the clock and, unless it is initial,
is not before it. So the marking holds only ``TimedToken``s while callers
and actions give plain pairs, and a bad token is an EngineError naming the
place and its writer.

Guards must be pure predicates over (input values, clock); all state change
belongs in actions. Same-instant conflicts are resolved by static transition
rank (lower fires first). ``steps`` is the one loop that applies this rule,
enabling and firing both, and keeps ``state`` current after every step;
``run`` exhausts it. The mapping of input values that a guard and an action
get is the kernel's own: a read-only view of exactly the transition's input
places, valid during the call, which the kernel keeps current as it writes
places instead of rebuilding it at every step.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple

DEFAULT_STEP_LIMIT = 1_000_000

#: guard(values, clock) -> bool, where values maps input place name -> token
#: value. The mapping is the kernel's: read-only, and valid during the call only.
Guard = Callable[[Mapping[str, Any], int], bool]
#: action(values, clock) -> (outputs, detail), on the same mapping its guard saw;
#: outputs maps each consumed place to its new (value, ready_time) pair, which
#: the kernel stores as a TimedToken.
Action = Callable[[Mapping[str, Any], int], tuple[dict[str, tuple[Any, int]], dict]]


class EngineError(RuntimeError):
    """Model-level failure: bad firing, guard crash, or incomplete marking."""


class StepLimitExceeded(EngineError):
    """The run used up its firing budget without halting."""


class TimedToken(NamedTuple):
    """A colored value that becomes available at ``ready_time``."""

    value: Any
    ready_time: int


class FiringEvent(NamedTuple):
    """One trace entry: which transition fired, when, and what moved."""

    transition: str
    time: int
    detail: dict


@dataclass(frozen=True)
class Transition:
    """A guarded transition over single-token places.

    ``consumed`` places are removed and must all be rewritten by the action,
    which owns their values: it may update them in place and return them in
    its outputs. ``reads`` places gate enabling (value and ready-time); the
    action never changes them.
    """

    name: str
    rank: int
    consumed: tuple[str, ...]
    guard: Guard
    action: Action
    reads: tuple[str, ...] = ()


class _Record:
    """Fields named by ``__slots__``, set in order by ``__init__``, then frozen unless a subclass is mutable.

    ``==``, ``hash`` and ``repr`` read them as a dataclass does. A copy or an unpickled
    record is built by calling its class, so it passes the checks of that class's ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Net(_Record):
    """A transition set over a fixed place set, ordered by firing rank."""

    __slots__ = ("name", "places", "transitions")

    def __init__(self, name: str, places: tuple[str, ...], transitions: tuple[Transition, ...]) -> None:
        declared = set(places)
        for t in transitions:
            undeclared = set(t.consumed + t.reads) - declared
            if undeclared:
                raise EngineError(f"transition {t.name!r} uses undeclared place {sorted(undeclared)[0]!r}")
        super().__init__(name, places, tuple(sorted(transitions, key=lambda t: (t.rank, t.name))))


_NEW_LIST: Any = object()


class EngineState(_Record):
    """Marking, clock and trace of one run. The clock never decreases.

    ``trace`` is a sink that each firing appends its event to, such as a
    list or a ``deque(maxlen=k)`` (by default, a new list), or None to keep
    no trace, so that a run builds no event at all. Its fields can be assigned.
    """

    __slots__ = ("marking", "clock", "trace")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(
        self, marking: dict[str, TimedToken], clock: int = 0, trace: list[FiringEvent] | None = _NEW_LIST
    ) -> None:
        self.marking, self.clock, self.trace = marking, clock, [] if trace is _NEW_LIST else trace


def advance_clock(net: Net, state: EngineState) -> int | None:
    """Jump to the next token ready-time, or return None to signal halt.

    Only call this when nothing is enabled; the clock moves to the minimum
    ready-time strictly greater than the current clock.
    """
    clock = state.clock
    future = [ready_time for _, ready_time in state.marking.values() if ready_time > clock]
    if not future:
        return None
    state.clock = min(future)
    return state.clock


def _writer(t: Transition | None) -> str:
    """Who wrote a token, as an EngineError words it: a transition, or the initial marking."""
    return "initial marking gives" if t is None else f"transition {t.name!r} wrote"


def steps(
    net: Net, state: EngineState, step_limit: int = DEFAULT_STEP_LIMIT
) -> Iterator[Transition | None]:
    """Drive ``state`` in place to quiescence, one step per item.

    Each step fires the lowest-rank enabled transition at the current clock
    and yields it; when none is enabled, it advances the clock and yields
    None. The generator returns when no token lies ahead of the clock.
    Deterministic: identical inputs give identical traces.

    The marking, the clock and ``state.trace`` are read once, when the first
    step starts and writes the initial marking; changes made to ``state``
    from outside after that are not seen. From then on the kernel keeps each
    place's ready-time and each input mapping current as it writes places,
    so a step rebuilds nothing. ``state.marking`` and ``state.clock`` are
    current after every step. Each transition has its own mapping. A guard
    or action gets it as a read-only view that is valid during the call
    only: it holds exactly the transition's input places, in no set order.

    A guard or action that raises an exception other than EngineError is
    reported as an EngineError naming the transition and the clock (writing
    into the mapping is one); an EngineError passes through unchanged.

    Raises StepLimitExceeded when the firing budget runs out, which points
    at a non-terminating net.
    """
    missing = [p for p in net.places if p not in state.marking]
    if missing:
        raise EngineError(f"initial marking does not cover place {missing[0]!r}")

    marking, clock, trace = state.marking, state.clock, state.trace
    # One mapping per transition, empty until the first write fills it;
    # readers[name] lists the mappings that hold place ``name``, each of
    # which a write to it updates.
    ready_at = {}
    readers = {name: [] for name in marking}
    arcs = []
    for t in net.transitions:
        inputs = t.consumed + t.reads
        values = {}
        for name in inputs:
            readers[name].append(values)
        arcs.append((t, t.guard, inputs, MappingProxyType(values), set(t.consumed)))

    # The first write is the initial marking, by no transition.
    t, outputs, firings = None, marking, 0
    while True:
        for name, pair in outputs.items():
            # tuple.__new__ builds the token in C, as namedtuple's _make does.
            try:
                token = tuple.__new__(TimedToken, pair)
                value, ready_time = token
            except (TypeError, ValueError):
                raise EngineError(
                    f"{_writer(t)} place {name!r} {pair!r:.40}, not a (value, ready_time) pair"
                ) from None
            try:
                if ready_time < clock and t is not None:
                    raise EngineError(
                        f"transition {t.name!r} would move place {name!r} "
                        f"back in time ({ready_time} < {clock})"
                    )
            except TypeError:
                raise EngineError(
                    f"{_writer(t)} place {name!r} ready-time {ready_time!r:.40}, "
                    "which does not compare with the clock"
                ) from None
            marking[name] = token
            ready_at[name] = ready_time
            for mapping in readers[name]:
                mapping[name] = value
        if t is not None:
            if trace is not None:
                trace.append(FiringEvent(t.name, clock, detail))
            firings += 1
            yield t

        # Enabling: stop at the first transition, in rank order, whose input
        # tokens are all ready and whose guard holds; if none, advance the clock.
        for t, guard, inputs, values, consumed in arcs:
            for name in inputs:
                if ready_at[name] > clock:
                    break
            else:
                try:
                    if guard(values, clock):
                        break
                except EngineError:
                    raise
                except Exception as e:
                    raise EngineError(f"guard of transition {t.name!r} failed at t={clock}: {e}") from e
        else:
            if advance_clock(net, state) is None:
                return
            clock = state.clock
            yield None
            t, outputs = None, {}
            continue

        # Firing, in the module docstring's order; the top of the loop writes.
        if firings >= step_limit:
            raise StepLimitExceeded(f"net {net.name!r} did not halt within {step_limit} firings")
        try:
            outputs, detail = t.action(values, clock)
        except EngineError:
            raise
        except Exception as e:
            raise EngineError(f"action of transition {t.name!r} failed at t={clock}: {e}") from e
        try:
            rewritten = outputs.keys() == consumed
        except AttributeError:
            raise EngineError(
                f"transition {t.name!r} wrote outputs {outputs!r:.40}, not a mapping of places to pairs"
            ) from None
        if not rewritten:
            raise EngineError(
                f"transition {t.name!r} must rewrite exactly its consumed places "
                f"{sorted(t.consumed, key=repr)}, wrote {sorted(outputs, key=repr)}"
            )


def run(net: Net, initial: EngineState, step_limit: int = DEFAULT_STEP_LIMIT) -> EngineState:
    """Exhaust ``steps`` on a copy of ``initial`` and return the final state.

    An initial token that is not a pair is passed on as it is, for ``steps``
    to reject. Each value is shallow-copied once, so actions
    that update their values in place leave ``initial`` untouched. The final
    state's trace is ``copy.copy`` of the initial one, a sink of the same
    kind: a ``deque(maxlen=3)`` comes back as a ring holding the last three
    events, and ``None`` keeps none. Raises StepLimitExceeded as ``steps`` does.
    """
    marking = dict(initial.marking)
    for place, token in marking.items():
        try:
            value, ready = token
        except (TypeError, ValueError):
            continue
        marking[place] = copy.copy(value), ready
    state = EngineState(
        marking=marking,
        clock=initial.clock,
        trace=copy.copy(initial.trace),
    )
    deque(steps(net, state, step_limit), maxlen=0)
    return state


def trace_records(trace: list[FiringEvent]) -> list[dict]:
    """Trace as JSON-ready records: ``{"t": ..., "transition": ..., "detail": ...}``.

    Each record shares its detail dict with the trace event, not a copy:
    every action builds a fresh detail, so nothing else holds it.
    """
    return [{"t": e.time, "transition": e.transition, "detail": e.detail} for e in trace]
