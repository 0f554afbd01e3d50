"""Traced pass: time the public entry points of each tcpnsched module.

The pass repeats what ``tcpnsched run --engine cpn --format json`` does, one
module call at a time, and times each call from here; no source file of the
package is touched. Guards and actions are timed by rebuilding the net with
wrapped copies of its transitions, and clock advances are counted by
rebinding ``tcpnsched.kernel.advance_clock`` for the duration of a run.

Import this module only after the harness has finished its set-up, because
set-up re-imports the package.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from tcpnsched import cli, kernel
from tcpnsched.kernel import DEFAULT_STEP_LIMIT, Net, trace_records
from tcpnsched.metrics import compute_metrics
from tcpnsched.oracle import diff_results, oracle_schedule
from tcpnsched.sched import READY_QUEUE, build_net, simulate
from tcpnsched.workload import Policy, builtin_paper_workload, parse_workload

TRANSITIONS = ("Activate", "Dispatch", "Execute", "Idle")
PROBE_POLICIES = ("sjf", "hrrn")
PROBE_KEYS = tuple(
    f"probe.{p}.time_ratio_{x}" for p in PROBE_POLICIES for x in ("2x", "4x")
) + ("probe.idle_ratio_2x", "probe.idle_ratio_4x")
COUNT_KEYS = ("sched.guard_evals", "kernel.clock_advances") + tuple(
    f"sched.firings.{t}" for t in TRANSITIONS
)

now = time.perf_counter


def _seconds_keys(policies):
    return (
        "workload.parse_s",
        "sched.build_net_s",
        "sched.guard_s",
        "sched.action_s.Activate",
        "sched.action_s.Execute",
        "sched.action_s.Idle",
        *(f"sched.action_s.Dispatch.{p}" for p in policies),
        "kernel.run_s",
        "kernel.trace_records_s",
        "metrics.compute_s",
        "cli.serialize_s",
        *(f"oracle.schedule_s.{p}" for p in policies),
        "oracle.diff_s",
    )


class Recorder:
    """Times and counts of one traced pass, summed over its runs.

    Every key starts at zero, so a transition that never fires or a run
    that fails still reports its metrics.
    """

    def __init__(self, policies):
        self.seconds = dict.fromkeys(_seconds_keys(policies), 0.0)
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.peak_ready = 0

    def wrap(self, transition, policy):
        guard, action = transition.guard, transition.action
        name = transition.name
        action_key = f"sched.action_s.{name}" + (f".{policy}" if name == "Dispatch" else "")

        def traced_guard(values, clock):
            start = now()
            ok = guard(values, clock)
            self.seconds["sched.guard_s"] += now() - start
            self.counts["sched.guard_evals"] += 1
            return ok

        def traced_action(values, clock):
            if name == "Dispatch":
                self.peak_ready = max(self.peak_ready, len(values[READY_QUEUE]))
            start = now()
            out = action(values, clock)
            self.seconds[action_key] += now() - start
            self.counts[f"sched.firings.{name}"] += 1
            return out

        return dataclasses.replace(transition, guard=traced_guard, action=traced_action)

    def run_kernel(self, net, initial):
        """``kernel.run`` with clock advances counted and its time recorded."""
        advance = kernel.advance_clock

        def counted_advance(net, state):
            moved = advance(net, state)
            if moved is not None:
                self.counts["kernel.clock_advances"] += 1
            return moved

        kernel.advance_clock = counted_advance
        start = now()
        try:
            return kernel.run(net, initial, step_limit=DEFAULT_STEP_LIMIT)
        finally:
            self.seconds["kernel.run_s"] += now() - start
            kernel.advance_clock = advance

    def timed(self, key, fn, *args, **kwargs):
        start = now()
        out = fn(*args, **kwargs)
        self.seconds[key] += now() - start
        return out


def _load(rec, source):
    if source == "paper-table1":
        return rec.timed("workload.parse_s", builtin_paper_workload)
    path = Path(source)
    return rec.timed(
        "workload.parse_s",
        lambda: parse_workload(path.read_bytes(), fmt="json", name=path.stem),
    )


def traced_run(rec, source, policy_name):
    """The ``run --engine cpn --format json`` path, layer by layer.

    Returns the stdout the CLI would print, the engine result and the
    workload.
    """
    policy = Policy.from_name(policy_name)
    w = _load(rec, source)
    sn = rec.timed("sched.build_net_s", build_net, w, policy)
    net = Net(
        name=sn.net.name,
        places=sn.net.places,
        transitions=tuple(rec.wrap(t, policy_name) for t in sn.net.transitions),
    )
    state = rec.run_kernel(net, sn.initial_state())
    result = rec.timed("metrics.compute_s", compute_metrics, state, w, policy)
    rec.timed("kernel.trace_records_s", trace_records, state.trace)
    text = rec.timed("cli.serialize_s", lambda: json.dumps(cli.result_json_doc(result), indent=2))
    return text + "\n", result, w


def layer_metrics(rec, traced_s, untraced_s):
    """The per-layer metrics of one pass, from its recorder and pass totals."""
    m = {**rec.seconds, **rec.counts}
    actions = sum(v for k, v in rec.seconds.items() if k.startswith("sched.action_s."))
    m["kernel.self_s"] = m["kernel.run_s"] - m["sched.guard_s"] - actions
    firings = sum(m[f"sched.firings.{name}"] for name in TRANSITIONS)
    m["kernel.us_per_firing"] = m["kernel.run_s"] / firings * 1e6 if firings else 0.0
    m["sched.peak_ready"] = rec.peak_ready
    m["tracing_overhead_s"] = traced_s - untraced_s
    return m


def probe(spec, seed, tally):
    """Engine time and Idle firings at x1, x2 and x4 of the workload's probe axis.

    Reports each doubling's ratio, t(2x)/t(x) and t(4x)/t(2x), so a quadratic
    path reads about 4 and a linear one about 2. Every probe result is checked
    against the oracle after its timing.
    """
    times = {p: [] for p in PROBE_POLICIES}
    idle = []
    for ws in spec.probe(seed):
        for name in PROBE_POLICIES:
            policy = Policy.from_name(name)
            start = now()
            states = [simulate(w, policy) for w in ws]
            times[name].append(now() - start)
            for w, state in zip(ws, states):
                diff = diff_results(compute_metrics(state, w, policy), oracle_schedule(w, policy))
                tally.record(ok=not diff, wrong=bool(diff))
            if name == "sjf":
                idle.append(sum(e.transition == "Idle" for s in states for e in s.trace))
    m = {}
    for name, t in times.items():
        m[f"probe.{name}.time_ratio_2x"] = t[1] / t[0]
        m[f"probe.{name}.time_ratio_4x"] = t[2] / t[1]
    m["probe.idle_ratio_2x"] = idle[1] / idle[0] if idle[0] else 0.0
    m["probe.idle_ratio_4x"] = idle[2] / idle[1] if idle[1] else 0.0
    return m


def traced_pass(sources, policies, cli_run, tally):
    """One traced pass over every input and policy, plus the untraced CLI run it must match."""
    rec = Recorder(policies)
    traced_s = untraced_s = 0.0
    for name in policies:
        for source in sources:
            seconds, rc, out = cli_run(
                ["run", "--policy", name, "--workload", source, "--engine", "cpn", "--format", "json"]
            )
            untraced_s += seconds
            tally.record(ok=rc == 0)
            start = now()
            try:
                text, result, w = traced_run(rec, source, name)
            except Exception:
                tally.record(ok=False)
                continue
            finally:
                traced_s += now() - start
            events = rec.timed(f"oracle.schedule_s.{name}", oracle_schedule, w, result.policy)
            diff = rec.timed("oracle.diff_s", diff_results, result, events, oracle_policy=result.policy)
            wrong = bool(diff) or (rc == 0 and text != out)
            tally.record(ok=not wrong, wrong=wrong)
    return layer_metrics(rec, traced_s, untraced_s)
