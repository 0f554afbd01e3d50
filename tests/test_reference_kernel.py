"""Differential check of ``kernel.steps`` against ``reference_kernel.reference_steps``.

Both interpreters run the same net from equal initial states, one step at a
time. After every step they must have yielded the same transition, or both
None, or both halted, or both raised the same exception with the same
message, and they must hold the same clock and marking; at the end, the same
trace. The nets are small random ones with ints for tokens, drawn by
``random_net``, a counter that writes each of ``test_kernel``'s malformed
outputs, a net that writes none of the places it consumes, and the
scheduler net on paper-table1 and random workloads.

The Hypothesis test sets no settings of its own, so the profile that
``conftest.py`` loads applies: a fixed draw in tier-1, and under
``--hypothesis-profile deep`` twenty times as many nets drawn afresh.
"""

import ast
import inspect
import random

from hypothesis import given
from hypothesis import strategies as st

import reference_kernel
from helpers import make_corpus
from reference_kernel import reference_steps
from tcpnsched import (
    EngineError,
    EngineState,
    Net,
    Policy,
    TimedToken,
    Transition,
    build_net,
    builtin_paper_workload,
    kernel,
)
from test_kernel import MALFORMED_OUTPUTS, UNWRITTEN_CONSUMED, unwritten_consumed_net

#: Ways a random transition breaks the kernel's contract, each at some firings only.
FAULTS = (
    "guard-raises",
    "action-raises",
    "engine-error",
    "output-missing",
    "output-extra",
    "not-a-pair",
    "back-in-time",
    "ready-time-not-an-int",
)


def _guard(weights, k, j, crash):
    def guard(values, clock):
        h = (sum(w * values[p] for p, w in weights) + clock) % k
        if crash and h == 0 and clock % 3 == 0:
            raise ValueError(f"guard crash on {h}")
        return h < j

    return guard


def _action(consumed, weights, delays, fault):
    def action(values, clock):
        h = sum(w * values[p] for p, w in weights) + clock
        outputs = {p: ((h + i) % 10, clock + d) for i, (p, d) in enumerate(zip(consumed, delays))}
        if fault is None or h % 4:
            return outputs, {"h": h}
        first = consumed[0]
        if fault == "action-raises":
            raise ValueError(f"action crash on {h}")
        if fault == "engine-error":
            raise EngineError(f"own words on {h}")
        if fault == "output-missing":
            del outputs[first]
        elif fault == "output-extra":
            outputs["elsewhere"] = (0, clock)
        elif fault == "not-a-pair":
            outputs[first] = (h, clock, 0)
        elif fault == "back-in-time":
            outputs[first] = (h, clock - 1)
        elif fault == "ready-time-not-an-int":
            outputs[first] = (h, None)
        return outputs, {"h": h}

    return action


def random_net(rng: random.Random):
    """A small net over int tokens: ``(net, make_state, step_limit)``.

    2-5 places and 1-5 transitions, with ranks that may tie. A transition
    often takes the input set of an earlier one, split anew into consumed
    and read places, and its reads may repeat a consumed place. Guards are
    pure functions of ``(values, clock)``; actions write each consumed place
    a value and a ready-time ``clock + d`` with ``d >= 0``. About one
    transition in four carries a fault from ``FAULTS``, and about one
    initial marking in twenty has a token whose ready-time is not a time.
    """
    places = tuple(f"p{i}" for i in range(rng.randint(2, 5)))
    transitions, input_sets = [], []
    for i in range(rng.randint(1, 5)):
        if input_sets and rng.random() < 0.4:
            inputs = list(rng.choice(input_sets))
            rng.shuffle(inputs)
            cut = rng.randint(min(1, len(inputs)), len(inputs))
            consumed, reads = tuple(inputs[:cut]), tuple(inputs[cut:])
        else:
            consumed = tuple(rng.sample(places, rng.randint(0 if rng.random() < 0.1 else 1, len(places))))
            reads = tuple(rng.sample(places, rng.randint(0, 2)))
        input_sets.append(sorted(set(consumed + reads)))
        weights = [(p, rng.randint(0, 3)) for p in sorted(set(consumed + reads))]
        fault = rng.choice(FAULTS) if rng.random() < 0.25 else None
        transitions.append(
            Transition(
                name=f"t{i}",
                rank=rng.randint(0, 3),
                consumed=consumed,
                reads=reads,
                guard=_guard(weights, rng.randint(1, 4), rng.randint(1, 3), fault == "guard-raises"),
                action=_action(consumed, weights, [rng.randint(0, 3) for _ in consumed], fault),
            )
        )
    tokens = {p: (rng.randint(0, 9), rng.randint(0, 6)) for p in places}
    if rng.random() < 0.05:
        tokens[rng.choice(places)] = (0, None)
    clock, traced = rng.randint(0, 3), rng.random() < 0.8

    def make_state():
        marking = {p: TimedToken(*token) for p, token in tokens.items()}
        return EngineState(marking=marking, clock=clock, trace=[] if traced else None)

    return Net("random", places, tuple(transitions)), make_state, rng.randint(0, 30)


def _outcome(stepper):
    try:
        t = next(stepper)
    except StopIteration:
        return ("halted",)
    except Exception as e:
        return ("raised", type(e).__name__, str(e))
    return ("advanced",) if t is None else ("fired", t.name)


def assert_agrees_with_reference(kernel_module, net, make_state, step_limit):
    """``kernel_module.steps`` and ``reference_steps`` take the same steps on ``net``."""
    ours, theirs = make_state(), make_state()
    a, b = kernel_module.steps(net, ours, step_limit), reference_steps(net, theirs, step_limit)
    for n in range(1_000_000):
        outcome = _outcome(a)
        assert outcome == _outcome(b), (net.name, n)
        assert (ours.clock, ours.marking) == (theirs.clock, theirs.marking), (net.name, n, outcome)
        if outcome[0] in ("halted", "raised"):
            break
    assert ours.trace == theirs.trace, net.name


def scheduler_cases():
    """The scheduler net on paper-table1 and 10 random workloads, under each policy."""
    for w in [builtin_paper_workload()] + make_corpus(31, 10):
        for policy in Policy:
            sn = build_net(w, policy)
            yield sn.net, sn.initial_state, 4 * len(w)


def malformed_output_cases():
    """A counter that fires once, then writes one of ``MALFORMED_OUTPUTS``; a net for each of ``UNWRITTEN_CONSUMED``."""
    for output, _ in MALFORMED_OUTPUTS:

        def action(v, clock, output=output):
            return ({"cell": (1, clock + 1)} if v["cell"] == 0 else output), {"cell": v["cell"]}

        t = Transition(name="bad", rank=0, consumed=("cell",), guard=lambda v, c: True, action=action)
        yield Net("malformed", ("cell",), (t,)), lambda: EngineState(marking={"cell": TimedToken(0, 0)}), 5
    for consumed, _ in UNWRITTEN_CONSUMED:
        net = unwritten_consumed_net(kernel, consumed)
        yield net, lambda c=consumed: EngineState(marking=dict.fromkeys(c, TimedToken(0, 0))), 5


def kernel_agrees_with_reference(kernel_module) -> None:
    """The agreement on the scheduler net, on malformed outputs and on 300 seeded random nets, for the mutant table."""
    for case in scheduler_cases():
        assert_agrees_with_reference(kernel_module, *case)
    for case in malformed_output_cases():
        assert_agrees_with_reference(kernel_module, *case)
    for seed in range(300):
        assert_agrees_with_reference(kernel_module, *random_net(random.Random(seed)))


@given(st.randoms(use_true_random=False))
def test_random_nets_step_as_the_reference_does(rng):
    assert_agrees_with_reference(kernel, *random_net(rng))


def test_scheduler_net_and_seeded_nets_step_as_the_reference_does():
    kernel_agrees_with_reference(kernel)


#: A phrase of each way a run can end, as ``kernel.steps`` words it.
ENDINGS = (
    "halted",
    "did not halt within",
    "guard of transition",
    "action of transition",
    "own words",
    "must rewrite exactly its consumed places",
    "not a (value, ready_time) pair",
    "back in time",
    "wrote place 'p0' ready-time None",
    "initial marking gives place",
)


def test_seeded_random_nets_end_every_way():
    """The 300 nets of ``kernel_agrees_with_reference`` halt, run out of budget and raise every error."""
    ends = []
    for seed in range(300):
        net, make_state, step_limit = random_net(random.Random(seed))
        try:
            for _ in kernel.steps(net, make_state(), step_limit):
                pass
            ends.append("halted")
        except EngineError as e:
            ends.append(str(e))
    assert [phrase for phrase in ENDINGS if not any(phrase in end for end in ends)] == []


class TestIndependence:
    """The reference is evidence only while it shares no code with the kernel but its data classes."""

    TREE = ast.parse(inspect.getsource(reference_kernel))

    def test_imports_only_classes_of_the_kernel(self):
        imported = set()
        for node in ast.walk(self.TREE):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("tcpnsched") for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("tcpnsched"):
                assert node.module == "tcpnsched.kernel"
                imported.update(a.name for a in node.names)
        assert imported and all(inspect.isclass(getattr(kernel, name)) for name in imported), imported

    def test_names_no_kernel_function(self):
        functions = {
            name for name, f in vars(kernel).items() if inspect.isfunction(f) and f.__module__ == kernel.__name__
        }
        named = {node.id for node in ast.walk(self.TREE) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(self.TREE) if isinstance(node, ast.Attribute)}
        assert functions and not named & functions
