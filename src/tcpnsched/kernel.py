"""Minimal timed colored Petri net execution engine.

Every place holds exactly one timed token: an opaque colored value plus an
integer ready-time. A transition is enabled when all of its consumed and
read input tokens are ready at the current clock and its guard evaluates
true on the input values. Firing runs the action, which rewrites exactly
the consumed places (read inputs stay untouched), and appends one event to
the trace. When nothing is enabled, the clock jumps to the smallest token
ready-time strictly ahead of it; if no token lies ahead, the run halts.

Guards must be pure predicates over (input values, clock); all state change
belongs in actions. Same-instant conflicts are resolved by static transition
rank (lower fires first). ``steps`` is the one loop that applies this rule;
``run`` exhausts it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

DEFAULT_STEP_LIMIT = 1_000_000

#: guard(values, clock) -> bool, where values maps input place name -> token value.
Guard = Callable[[Mapping[str, Any], int], bool]
#: action(values, clock) -> (outputs, detail); outputs maps consumed place -> new token.
Action = Callable[[Mapping[str, Any], int], tuple[dict[str, "TimedToken"], dict]]


class EngineError(RuntimeError):
    """Model-level failure: bad firing, guard crash, or incomplete marking."""


class StepLimitExceeded(EngineError):
    """The run used up its firing budget without halting."""


@dataclass(frozen=True, slots=True)
class TimedToken:
    """A colored value that becomes available at ``ready_time``."""

    value: Any
    ready_time: int


@dataclass(frozen=True, slots=True)
class FiringEvent:
    """One trace entry: which transition fired, when, and what moved."""

    transition: str
    time: int
    detail: dict


@dataclass(frozen=True)
class Transition:
    """A guarded transition over single-token places.

    ``consumed`` places are removed and must all be rewritten by the action;
    ``reads`` places gate enabling (value and ready-time) but are untouched.
    """

    name: str
    rank: int
    consumed: tuple[str, ...]
    guard: Guard
    action: Action
    reads: tuple[str, ...] = ()

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.consumed + self.reads


@dataclass(frozen=True)
class Net:
    """A transition set over a fixed place set, ordered by firing rank."""

    name: str
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        declared = set(self.places)
        for t in self.transitions:
            undeclared = set(t.inputs) - declared
            if undeclared:
                raise EngineError(
                    f"transition {t.name!r} uses undeclared place {sorted(undeclared)[0]!r}"
                )
        ordered = tuple(sorted(self.transitions, key=lambda t: (t.rank, t.name)))
        object.__setattr__(self, "transitions", ordered)


@dataclass
class EngineState:
    """Marking, clock and trace of one run. The clock never decreases."""

    marking: dict[str, TimedToken]
    clock: int = 0
    trace: list[FiringEvent] = field(default_factory=list)


def _input_values(state: EngineState, transition: Transition) -> dict[str, Any]:
    return {name: state.marking[name].value for name in transition.inputs}


def _is_enabled(state: EngineState, transition: Transition) -> bool:
    marking = state.marking
    clock = state.clock
    for name in transition.inputs:
        token = marking.get(name)
        if token is None:
            raise EngineError(f"marking does not cover place {name!r}")
        if token.ready_time > clock:
            return False
    try:
        return bool(transition.guard(_input_values(state, transition), clock))
    except EngineError:
        raise
    except Exception as e:
        raise EngineError(f"guard of transition {transition.name!r} failed at t={clock}: {e}") from e


def enabled(net: Net, state: EngineState) -> list[Transition]:
    """All transitions fireable at the current clock, in rank order."""
    return [t for t in net.transitions if _is_enabled(state, t)]


def _apply(state: EngineState, transition: Transition) -> None:
    try:
        outputs, detail = transition.action(_input_values(state, transition), state.clock)
    except EngineError:
        raise
    except Exception as e:
        raise EngineError(
            f"action of transition {transition.name!r} failed at t={state.clock}: {e}"
        ) from e
    if set(outputs) != set(transition.consumed):
        raise EngineError(
            f"transition {transition.name!r} must rewrite exactly its consumed places "
            f"{sorted(transition.consumed)}, wrote {sorted(outputs)}"
        )
    for name, token in outputs.items():
        if token.ready_time < state.clock:
            raise EngineError(
                f"transition {transition.name!r} would move place {name!r} "
                f"back in time ({token.ready_time} < {state.clock})"
            )
        state.marking[name] = token
    state.trace.append(FiringEvent(transition.name, state.clock, detail))


def advance_clock(net: Net, state: EngineState) -> int | None:
    """Jump to the next token ready-time, or return None to signal halt.

    Only call this when nothing is enabled; the clock moves to the minimum
    ready-time strictly greater than the current clock.
    """
    clock = state.clock
    future = [tok.ready_time for tok in state.marking.values() if tok.ready_time > clock]
    if not future:
        return None
    state.clock = min(future)
    return state.clock


def steps(
    net: Net, state: EngineState, step_limit: int = DEFAULT_STEP_LIMIT
) -> Iterator[Transition | None]:
    """Drive ``state`` in place to quiescence, one step per item.

    Each step fires the lowest-rank enabled transition at the current clock
    and yields it; when none is enabled, it advances the clock and yields
    None. The generator returns when no token lies ahead of the clock.
    Deterministic: identical inputs give identical traces.

    Raises StepLimitExceeded when the firing budget runs out, which points
    at a non-terminating net.
    """
    missing = [p for p in net.places if p not in state.marking]
    if missing:
        raise EngineError(f"initial marking does not cover place {missing[0]!r}")

    firings = 0
    while True:
        for t in net.transitions:
            if _is_enabled(state, t):
                if firings >= step_limit:
                    raise StepLimitExceeded(
                        f"net {net.name!r} did not halt within {step_limit} firings"
                    )
                _apply(state, t)
                firings += 1
                yield t
                break
        else:
            if advance_clock(net, state) is None:
                return
            yield None


def run(net: Net, initial: EngineState, step_limit: int = DEFAULT_STEP_LIMIT) -> EngineState:
    """Exhaust ``steps`` on a copy of ``initial`` and return the final state.

    The ``initial`` state is left untouched. Raises StepLimitExceeded as
    ``steps`` does.
    """
    state = EngineState(
        marking=dict(initial.marking),
        clock=initial.clock,
        trace=list(initial.trace),
    )
    for _ in steps(net, state, step_limit):
        pass
    return state


def trace_records(trace: list[FiringEvent]) -> list[dict]:
    """Trace as JSON-ready records: ``{"t": ..., "transition": ..., "detail": ...}``."""
    return [
        {"t": e.time, "transition": e.transition, "detail": copy.deepcopy(e.detail)}
        for e in trace
    ]
