"""Minimal timed colored Petri net execution engine.

Every place holds exactly one timed token: an opaque colored value plus an
integer ready-time. A transition is enabled when all of its consumed and
read input tokens are ready at the current clock and its guard evaluates
true on the input values. Firing the enabled transition of lowest rank takes
five steps in this order: check the firing budget; run the action on the
same mapping of input values its guard saw; check that its outputs rewrite
exactly the consumed places; check that no output token is ready before the
clock; then write the outputs into the marking and, when the state keeps a
trace, append one event to it. A consumed token leaves the marking, so the
action owns the values of its consumed places: it may update them in place
and return them in its outputs. It never changes a read place. When nothing
is enabled, the clock jumps to the smallest token ready-time strictly ahead
of it; if no token lies ahead, the run halts.

Guards must be pure predicates over (input values, clock); all state change
belongs in actions. Same-instant conflicts are resolved by static transition
rank (lower fires first). ``steps`` is the one loop that applies this rule,
enabling and firing both; ``run`` exhausts it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, NamedTuple

DEFAULT_STEP_LIMIT = 1_000_000

#: guard(values, clock) -> bool, where values maps input place name -> token value.
Guard = Callable[[Mapping[str, Any], int], bool]
#: action(values, clock) -> (outputs, detail); outputs maps consumed place -> new token.
Action = Callable[[Mapping[str, Any], int], tuple[dict[str, "TimedToken"], dict]]


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


@dataclass(frozen=True)
class Net:
    """A transition set over a fixed place set, ordered by firing rank."""

    name: str
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        declared = set(self.places)
        for t in self.transitions:
            undeclared = set(t.consumed + t.reads) - declared
            if undeclared:
                raise EngineError(
                    f"transition {t.name!r} uses undeclared place {sorted(undeclared)[0]!r}"
                )
        ordered = tuple(sorted(self.transitions, key=lambda t: (t.rank, t.name)))
        object.__setattr__(self, "transitions", ordered)


@dataclass
class EngineState:
    """Marking, clock and trace of one run. The clock never decreases.

    ``trace`` is a list that each firing appends its event to, or None to
    keep no trace, so that a run builds no event at all.
    """

    marking: dict[str, TimedToken]
    clock: int = 0
    trace: list[FiringEvent] | None = field(default_factory=list)


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
    Deterministic: identical inputs give identical traces. Arcs are
    resolved, and ``state.trace`` read, once per call, so a step builds only
    the values mapping that its guard and action share, plus its event when
    the state keeps a trace. A guard or action that raises an exception
    other than EngineError is reported as an EngineError naming the
    transition and the clock; an EngineError passes through unchanged.

    Raises StepLimitExceeded when the firing budget runs out, which points
    at a non-terminating net.
    """
    missing = [p for p in net.places if p not in state.marking]
    if missing:
        raise EngineError(f"initial marking does not cover place {missing[0]!r}")

    marking, trace = state.marking, state.trace
    arcs = [(t, t.consumed + t.reads, set(t.consumed)) for t in net.transitions]
    firings = 0
    while True:
        clock = state.clock
        # Enabling: stop at the first transition, in rank order, whose input
        # tokens are all ready and whose guard holds; if none, advance the clock.
        for t, inputs, consumed in arcs:
            values = {}
            for name in inputs:
                token = marking[name]
                if token.ready_time > clock:
                    break
                values[name] = token.value
            else:
                try:
                    if t.guard(values, clock):
                        break
                except EngineError:
                    raise
                except Exception as e:
                    raise EngineError(f"guard of transition {t.name!r} failed at t={clock}: {e}") from e
        else:
            if advance_clock(net, state) is None:
                return
            yield None
            continue

        # Firing, in the module docstring's order.
        if firings >= step_limit:
            raise StepLimitExceeded(f"net {net.name!r} did not halt within {step_limit} firings")
        try:
            outputs, detail = t.action(values, clock)
        except EngineError:
            raise
        except Exception as e:
            raise EngineError(f"action of transition {t.name!r} failed at t={clock}: {e}") from e
        if outputs.keys() != consumed:
            raise EngineError(
                f"transition {t.name!r} must rewrite exactly its consumed places "
                f"{sorted(t.consumed)}, wrote {sorted(outputs)}"
            )
        for name, token in outputs.items():
            if token.ready_time < clock:
                raise EngineError(
                    f"transition {t.name!r} would move place {name!r} "
                    f"back in time ({token.ready_time} < {clock})"
                )
            marking[name] = token
        if trace is not None:
            trace.append(FiringEvent(t.name, clock, detail))
        firings += 1
        yield t


def run(net: Net, initial: EngineState, step_limit: int = DEFAULT_STEP_LIMIT) -> EngineState:
    """Exhaust ``steps`` on a copy of ``initial`` and return the final state.

    Each initial token value is shallow-copied once, so actions that update
    their values in place leave ``initial`` untouched. The final state
    keeps a trace, starting from a copy of the initial one, only if
    ``initial`` keeps one. Raises StepLimitExceeded as ``steps`` does.
    """
    state = EngineState(
        marking={p: TimedToken(copy.copy(t.value), t.ready_time) for p, t in initial.marking.items()},
        clock=initial.clock,
        trace=None if initial.trace is None else list(initial.trace),
    )
    for _ in steps(net, state, step_limit):
        pass
    return state


def trace_records(trace: list[FiringEvent]) -> list[dict]:
    """Trace as JSON-ready records: ``{"t": ..., "transition": ..., "detail": ...}``.

    Each record shares its detail dict with the trace event, not a copy:
    every action builds a fresh detail, so nothing else holds it.
    """
    return [{"t": e.time, "transition": e.transition, "detail": e.detail} for e in trace]
