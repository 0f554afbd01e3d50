"""The kernel's firing rule restated with no shortcut, as evidence for ``kernel.steps``.

``reference_steps`` re-reads the rule of ``tcpnsched.kernel``'s module
docstring literally. Every step reads the marking and the clock from the
state, builds every transition's values dict afresh from the tokens that are
ready, evaluates the guards in rank order, and when none holds, moves the
clock to the minimum of the ready-times that lie ahead of it. It keeps
nothing between steps apart from the firing count.

It shares no code with ``kernel.py`` apart from the data classes and the
exceptions, which it must raise for the two to be compared;
``test_reference_kernel.TestIndependence`` checks that by parsing this file.
"""

from __future__ import annotations

from tcpnsched.kernel import EngineError, EngineState, FiringEvent, Net, StepLimitExceeded, TimedToken


def _check_initial(net: Net, state: EngineState) -> None:
    for name in net.places:
        if name not in state.marking:
            raise EngineError(f"initial marking does not cover place {name!r}")
    for name, token in state.marking.items():
        try:
            _, ready_time = token
        except (TypeError, ValueError):
            raise EngineError(
                f"initial marking gives place {name!r} {token!r:.40}, not a (value, ready_time) pair"
            ) from None
        try:
            ready_time < state.clock
        except TypeError:
            raise EngineError(
                f"initial marking gives place {name!r} ready-time {ready_time!r:.40}, "
                "which does not compare with the clock"
            ) from None


def _enabled(net: Net, state: EngineState):
    """The lowest-rank transition whose inputs are ready and whose guard holds, with its values."""
    clock = state.clock
    candidates = []
    for t in sorted(net.transitions, key=lambda t: (t.rank, t.name)):
        places = t.consumed + t.reads
        if all(state.marking[p][1] <= clock for p in places):
            candidates.append((t, {p: state.marking[p][0] for p in places}))
    for t, values in candidates:
        try:
            holds = t.guard(values, clock)
        except EngineError:
            raise
        except Exception as e:
            raise EngineError(f"guard of transition {t.name!r} failed at t={clock}: {e}") from e
        if holds:
            return t, values
    return None, None


def _write(t, outputs, clock: int, state: EngineState) -> None:
    if not hasattr(outputs, "keys"):
        raise EngineError(f"transition {t.name!r} wrote outputs {outputs!r:.40}, not a mapping of places to pairs")
    if set(outputs.keys()) != set(t.consumed):
        raise EngineError(
            f"transition {t.name!r} must rewrite exactly its consumed places "
            f"{sorted(t.consumed, key=repr)}, wrote {sorted(outputs.keys(), key=repr)}"
        )
    for name, pair in outputs.items():
        try:
            value, ready_time = pair
        except (TypeError, ValueError):
            raise EngineError(
                f"transition {t.name!r} wrote place {name!r} {pair!r:.40}, not a (value, ready_time) pair"
            ) from None
        try:
            late = ready_time < clock
        except TypeError:
            raise EngineError(
                f"transition {t.name!r} wrote place {name!r} ready-time {ready_time!r:.40}, "
                "which does not compare with the clock"
            ) from None
        if late:
            raise EngineError(
                f"transition {t.name!r} would move place {name!r} back in time ({ready_time} < {clock})"
            )
        state.marking[name] = TimedToken(value, ready_time)


def reference_steps(net: Net, state: EngineState, step_limit: int):
    """Yield the fired transition, or None for a clock advance, until nothing lies ahead."""
    _check_initial(net, state)
    firings = 0
    while True:
        t, values = _enabled(net, state)
        clock = state.clock
        if t is None:
            ahead = [ready_time for _, ready_time in state.marking.values() if ready_time > clock]
            if not ahead:
                return
            state.clock = min(ahead)
            yield None
            continue
        if firings >= step_limit:
            raise StepLimitExceeded(f"net {net.name!r} did not halt within {step_limit} firings")
        try:
            outputs, detail = t.action(values, clock)
        except EngineError:
            raise
        except Exception as e:
            raise EngineError(f"action of transition {t.name!r} failed at t={clock}: {e}") from e
        _write(t, outputs, clock, state)
        if state.trace is not None:
            state.trace.append(FiringEvent(t.name, clock, detail))
        firings += 1
        yield t
