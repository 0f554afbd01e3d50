"""Mutants the tests must kill, kept as a table so that any change can re-run them.

Each row names a module of the package, an exact fragment of its source, the
replacement that makes the mutant, and a check that takes a module. The
harness builds the mutant from the patched source as a fresh module, in
process, with ``__package__ = "tcpnsched"``: its relative imports reach the
real package, and the real package stays untouched. The mutant keeps the
patched text as ``__source__``, for checks that parse the module. The
harness asserts that the fragment occurs exactly once, so a refactor that
moves the code breaks the row rather than making it vacuous, that the check
passes on the real module, and that it fails on the mutant.

Known equivalent mutants are not rows. One is ``_parse`` handing every
``argv`` to the top-level parser, the parse it replaces: every outcome is
the same, which ``test_cli.py::test_parse_is_the_top_level_parse`` checks on
a grid, and only the pass count differs, which
``TestInProcess::test_a_call_naming_its_command_skips_the_top_level_parse``
pins. Another keeps one ``Namespace`` for the top-level parser alone: that
parser now only prints help or a usage error, so nothing it fills reaches a
command. The row ``namespace-kept-per-parser`` keeps one in every parser, the
subcommands' too, and that one leaks. ``insort_left`` in Activate is a row,
``hrrn-insort-left``: HRRN inserts by service time alone, so records tie.
Activate's front probe with ``<=`` is one too, for the same ties. Without
the probe every schedule is the same, so ``front-probe-dropped`` dies by the
comparison count alone.
"""

import contextlib
import io
import json
import os
import sys
import types
from pathlib import Path

import pytest

from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    build_net,
    builtin_paper_workload,
    cli,
    compute_metrics,
    diff_results,
    kernel,
    metrics,
    oracle,
    parse_workload,
    sched,
    simulate,
    trace_records,
    workload,
)

from helpers import odd_trace, run_on_closed_pipe
from test_cli import (
    GAPS,
    HRRN_EXPECTED,
    calls_are_independent,
    collector_is_left_as_found,
    csv_suffix_in_any_case,
    oracle_trace_is_a_usage_error,
    step_limit_flag_is_a_usage_error,
    table_and_gantt_agree_with_document,
    tuple_names_print_as_json_dumps,
)
from test_kernel import (
    initial_pairs_become_tokens,
    outputs_that_are_not_pairs_are_model_errors,
    pairs_become_tokens,
    ready_times_that_do_not_compare_are_model_errors,
    steps_makes_initial_pairs_tokens,
)
from test_metrics import empty_result_is_all_zero
from test_oracle import draws_are_pinned, imports_only_the_data_model_at_run_time, names_no_engine_selection_code
from test_records import frozen_records_refuse_assignment
from test_reference_kernel import kernel_agrees_with_reference
from test_sched import fcfs_burst_compares_once_per_arrival
from test_workload import rebuilt_workloads_are_checked


def _results():
    """The result and the trace of paper-table1 under each policy."""
    table1 = builtin_paper_workload()
    for policy in Policy:
        state = simulate(table1, policy)
        yield compute_metrics(state, table1, policy), state.trace


def _written(cli_module, result, trace=None) -> str:
    """``result_json_text`` of ``result`` and ``trace``.

    Any exception fails the check by assertion, as in ``_parsed``, so a
    mutant whose layout takes too few or too many values dies as one that
    writes wrong text does.
    """
    try:
        return cli_module.result_json_text(result, trace)
    except Exception as e:
        raise AssertionError(f"result_json_text raised {e!r}") from e


def processes_are_json_dumps(cli_module) -> None:
    """The document of paper-table1, of the empty workload and of ``GAPS`` is ``json.dumps``'s."""
    results = [result for result, _ in _results()]
    for w in (parse_workload("[]"), parse_workload(GAPS)):
        results += [compute_metrics(simulate(w, policy), w, policy) for policy in Policy]
    for result in results:
        assert _written(cli_module, result) == json.dumps(cli_module.result_json_doc(result), indent=2)


def trace_is_json_dumps(cli_module) -> None:
    """A trace of paper-table1, and ``odd_trace``, are written as ``json.dumps`` writes their ``trace_records``."""
    for result, trace in _results():
        for events in (trace, odd_trace()):
            doc = cli_module.result_json_doc(result)
            doc["trace"] = trace_records(events)
            assert _written(cli_module, result, events) == json.dumps(doc, indent=2)


def finish_and_turnaround_are_golden(workload_module) -> None:
    """The HRRN records of paper-table1, rebuilt as the module's ``Process``, have ``HRRN_EXPECTED``'s times."""
    table1 = builtin_paper_workload()
    finished = compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN).finished
    got = [(p.finish, p.turnaround) for p in map(workload_module.Process._make, finished)]
    assert got == [(entry["finish"], entry["turnaround"]) for entry in HRRN_EXPECTED["processes"]]


def _parsed(workload_module, text: str):
    """The processes ``parse_workload`` makes of ``text``, or the message of its WorkloadError.

    Any other exception fails the check by assertion, so a mutant that
    raises, say, ``KeyError`` dies as one that parses wrongly does.
    """
    try:
        return workload_module.parse_workload(text).processes
    except workload_module.WorkloadError as e:
        return str(e)
    except Exception as e:
        raise AssertionError(f"{text!r} raised {e!r}") from e


#: Arrays whose second entry is bad, with the message each must give; the
#: first entry's key order is a valid one, so it is checked before.
BAD_SECOND_ENTRIES = [
    ('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0}]', "entry 1: missing field 'st'"),
    ('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0, "st": 1, "wt": 0}]', "entry 1: unknown field 'wt'"),
    ('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0, "st": 1, "st": 2}]', "entry 1: duplicate field 'st'"),
    ('[{"pi": 1, "it": 0, "st": 1}, 7]', "entry 1: expected an object, got int"),
    ('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0, "st": true}]', "entry 1: field 'st' must be an integer, got true"),
]


def later_entries_are_checked(workload_module) -> None:
    """An entry after the first is checked as fully as the first: its kind, its keys and its values."""
    for text, message in BAD_SECOND_ENTRIES:
        assert _parsed(workload_module, text) == message


def default_priority_keeps_columns_in_step(workload_module) -> None:
    """An entry without ``priority`` gets 0, and the entry after it keeps its own."""
    text = '[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0, "st": 1, "priority": 5}]'
    assert _parsed(workload_module, text) == (Process(1, 0, 1), Process(2, 0, 1, pr=PriorityPair(5, 0)))


def _report(workload_module, *rows) -> str:
    """The WorkloadError message a workload of these ``(pi, it, st)`` rows raises; empty if none."""
    try:
        workload_module.Workload(tuple(workload_module.Process(*row) for row in rows))
    except workload_module.WorkloadError as e:
        return str(e)
    return ""


def negative_arrival_is_rejected(workload_module) -> None:
    assert _report(workload_module, (1, 0, 1), (2, -1, 1)) == "process 2: negative arrival time -1"


def duplicate_index_is_rejected(workload_module) -> None:
    assert _report(workload_module, (1, 0, 1), (1, 2, 1)) == "duplicate index 1"


def program_faults_exit_2(cli_module) -> None:
    """Under ``run``, ``compare`` and ``fuzz``, an exception from ``compute_metrics`` exits 2 and names itself.

    An exception that escapes ``main`` fails the check by assertion.
    """

    def fault(*args):
        raise ZeroDivisionError("simulated bug")

    real, cli_module.compute_metrics = cli_module.compute_metrics, fault
    try:
        for argv in (["run"], ["compare"], ["fuzz", "--seed", "1", "--count", "1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_module.main(argv)
                except Exception as e:
                    raise AssertionError(f"{argv} raised {e!r}") from e
            expected = (2, "", "internal error: ZeroDivisionError: simulated bug\n")
            assert (code, out.getvalue(), err.getvalue()) == expected, argv
    finally:
        cli_module.compute_metrics = real


def closed_pipe_leaves_no_descriptor_open(cli_module) -> None:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to count descriptors")
    code, before, after = run_on_closed_pipe(cli_module.main)
    assert (code, after) == (1, before)


#: Small tie-heavy cases, ``(policy, [(pi, it, st, priority), ...])``, on which
#: an oracle that walks its ready set wrongly parts from the engine.
TIES = [
    (Policy.HRRN, [(1, 0, 1, 0), (2, 1, 101, 0), (3, 0, 101, 0)]),
    (Policy.HRRN, [(1, 0, 1, 0), (2, 1, 1, 0), (3, 0, 101, 0)]),
    # Two records of one (st, it) group, the higher index first in the input.
    (Policy.HRRN, [(1, 0, 5, 0), (3, 1, 2, 0), (2, 1, 2, 0)]),
    # At t=10 process 4 (ratio 300) sits between 3 (200) and 2 (325), which share st 4.
    (Policy.HRRN, [(1, 0, 10, 0), (3, 6, 4, 0), (2, 1, 4, 0), (4, 6, 2, 0)]),
    (Policy.SJF, [(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 1, 0)]),
    (Policy.PR, [(1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 1, 1)]),
]


def _ties():
    """``TIES`` as ``(policy, workload)`` pairs."""
    for policy, rows in TIES:
        yield policy, Workload(tuple(Process(pi, it, st, pr=PriorityPair(prio, 0)) for pi, it, st, prio in rows))


def oracle_agrees_on_ties(oracle_module) -> None:
    for policy, w in _ties():
        result = compute_metrics(simulate(w, policy), w, policy)
        assert diff_results(result, oracle_module.oracle_schedule(w, policy)) == [], (policy, w)


def engine_agrees_with_oracle(sched_module) -> None:
    """The engine's schedule of paper-table1 under each policy, and of ``TIES``, is the oracle's."""
    table1 = builtin_paper_workload()
    for policy, w in [(policy, table1) for policy in Policy] + list(_ties()):
        result = compute_metrics(sched_module.simulate(w, policy), w, policy)
        assert diff_results(result, oracle.oracle_schedule(w, policy)) == [], (policy, w)


def model_errors_keep_their_cause(kernel_module) -> None:
    """A guard's or an action's exception is an EngineError naming the transition; an EngineError passes."""
    k = kernel_module
    for role in ("guard", "action"):
        for raised in (ValueError("boom"), k.EngineError("own words")):

            def crash(values, clock, raised=raised):
                raise raised

            guard, action = (crash, None) if role == "guard" else (lambda values, clock: True, crash)
            t = k.Transition(name="bad", rank=0, consumed=("cell",), guard=guard, action=action)
            error = None
            try:
                k.run(k.Net("broken", ("cell",), (t,)), k.EngineState(marking={"cell": k.TimedToken(0, 2)}))
            except Exception as e:
                error = e
            if isinstance(raised, k.EngineError):
                assert error is raised, role
            else:
                assert type(error) is k.EngineError and error.__cause__ is raised, role
                assert str(error) == f"{role} of transition 'bad' failed at t=2: boom"


def clock_moves_through_the_module_hook(kernel_module) -> None:
    # perfbench/layers.py counts clock advances by rebinding kernel.advance_clock.
    real, moved = kernel_module.advance_clock, []

    def counting(net, state):
        moved.append(real(net, state))
        return moved[-1]

    sn = build_net(builtin_paper_workload(), Policy.FCFS)
    kernel_module.advance_clock = counting
    try:
        nones = sum(t is None for t in kernel_module.steps(sn.net, sn.initial_state()))
    finally:
        kernel_module.advance_clock = real
    assert nones > 0 and [m is None for m in moved] == [False] * nones + [True]


MUTANTS = [
    # (id, module, fragment, replacement, check)
    (
        "process-layout-space",
        cli,
        '_layout(_ZEROS["processes"][0], "    ")',
        '_layout(_ZEROS["processes"][0], "     ")',
        processes_are_json_dumps,
    ),
    (
        "idle-pair-too-shallow",
        cli,
        '_layout(_ZEROS["idle"][0], "    ")',
        '_layout(_ZEROS["idle"][0], "  ")',
        processes_are_json_dumps,
    ),
    (
        "aggregates-too-shallow",
        cli,
        '_layout(_ZEROS["aggregates"], "  ")',
        '_layout(_ZEROS["aggregates"], "")',
        processes_are_json_dumps,
    ),
    (
        "aggregates-out-of-key-order",
        cli,
        "(agg.avg_waiting, agg.avg_turnaround, total_idle,",
        "(agg.avg_turnaround, agg.avg_waiting, total_idle,",
        processes_are_json_dumps,
    ),
    ("empty-array-bracketed", cli, 'if entries else "[]"', 'if entries else "[\\n  ]"', processes_are_json_dumps),
    ("pr-pairs-untransposed", cli, "zip(*value) if type(value) is list", "value if type(value) is list", processes_are_json_dumps),
    ("top-layout-flipped", cli, "_TOP_LAYOUTS[trace is not None]", "_TOP_LAYOUTS[trace is None]", processes_are_json_dumps),
    (
        "empty-lead-in-default",
        metrics,
        "min(map(_it, w.processes), default=0)",
        "min(map(_it, w.processes), default=1)",
        empty_result_is_all_zero,
    ),
    ("empty-aggregates-of-zeros", metrics, ") if n else None", ") if n else Aggregates(0, 0, 0)", empty_result_is_all_zero),
    (
        "finish-turnaround-swapped",
        workload,
        "self.es + self.st\n\n    @property\n    def turnaround(self) -> int:\n"
        '        """Time from arrival to completion: waiting time plus service time."""\n'
        "        return self.wt + self.st",
        "self.wt + self.st\n\n    @property\n    def turnaround(self) -> int:\n"
        '        """Time from arrival to completion: waiting time plus service time."""\n'
        "        return self.es + self.st",
        finish_and_turnaround_are_golden,
    ),
    ("finish-from-waiting-time", workload, "return self.es + self.st", "return self.wt + self.st", finish_and_turnaround_are_golden),
    (
        "table-finish-turnaround-swapped",
        cli,
        "{p.finish:>7} {p.turnaround:>11}",
        "{p.turnaround:>7} {p.finish:>11}",
        table_and_gantt_agree_with_document,
    ),
    ("trace-item-separator", cli, '_layout([0, 0], " " * 8)', '_layout([0, 0], " " * 7)', trace_is_json_dumps),
    (
        "trace-name-type-dropped",
        cli,
        "tag = str if type(transition) is str else json.dumps(transition)",
        "tag = str",
        trace_is_json_dumps,
    ),
    (
        "trace-name-items-untyped",
        cli,
        "tag = str if type(transition) is str else json.dumps(transition)",
        "tag = type(transition)",
        tuple_names_print_as_json_dumps,
    ),
    ("trace-key-type-dropped", cli, ", *map(type, detail)))", ", *[str] * len(detail)))", trace_is_json_dumps),
    ("trace-name-by-str", cli, "json.dumps(name, indent=2)", "str(name)", trace_is_json_dumps),
    ("trace-empty-list-bracketed", cli, 'if value else "[]"', "if value else _LIST_HEAD + _LIST_TAIL", trace_is_json_dumps),
    (
        "trace-event-fields-swapped",
        cli,
        "for transition, t, detail in trace:",
        "for t, transition, detail in trace:",
        trace_is_json_dumps,
    ),
    ("key-order-checked-once", workload, "if names not in checked or", "if not checked or", later_entries_are_checked),
    ("repeated-key-unchecked", workload, " or len(names) != len(entry):", ":", later_entries_are_checked),
    (
        "non-object-entry-unchecked",
        workload,
        '        if type(entry) is not tuple:\n            raise WorkloadError(f"entry {i}: expected an object',
        '        if False:\n            raise WorkloadError(f"entry {i}: expected an object',
        later_entries_are_checked,
    ),
    (
        "default-priority-not-appended",
        workload,
        'priority.append(fields.get("priority", 0))',
        '"priority" in fields and priority.append(fields["priority"])',
        default_priority_keeps_columns_in_step,
    ),
    (
        "arrival-floor-dropped",
        workload,
        '        if it < 0:\n            violations.append(f"process {pi}: negative arrival time {it}")\n',
        "",
        negative_arrival_is_rejected,
    ),
    (
        "duplicate-check-dropped",
        workload,
        '        if pi in seen:\n            violations.append(f"duplicate index {pi}")\n',
        "",
        duplicate_index_is_rejected,
    ),
    ("devnull-left-open", cli, "        os.close(devnull)\n", "", closed_pipe_leaves_no_descriptor_open),
    (
        "internal-fault-escapes",
        cli,
        "    except Exception as e:\n"
        '        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)\n'
        "        return EXIT_INTERNAL\n",
        "",
        program_faults_exit_2,
    ),
    (
        "gc-not-restored",
        cli,
        "    finally:\n        if collecting:\n            gc.enable()\n",
        "",
        collector_is_left_as_found,
    ),
    (
        "gc-enabled-unconditionally",
        cli,
        "        if collecting:\n            gc.enable()\n",
        "        gc.enable()\n",
        collector_is_left_as_found,
    ),
    (
        "namespace-kept-per-parser",
        cli,
        "    def error(self, message: str):\n",
        "    def parse_known_args(self, args=None, namespace=None):\n"
        "        kept = vars(self).setdefault('kept', namespace or argparse.Namespace())\n"
        "        return super().parse_known_args(args, kept)\n\n"
        "    def error(self, message: str):\n",
        calls_are_independent,
    ),
    (
        "dispatch-drops-extras",
        cli,
        '    if extras:\n        parser.error("unrecognized arguments: " + " ".join(extras))\n',
        "",
        step_limit_flag_is_a_usage_error,
    ),
    (
        "dispatch-namespace-without-command",
        cli,
        "argparse.Namespace(command=argv[0])",
        "argparse.Namespace()",
        oracle_trace_is_a_usage_error,
    ),
    ("csv-suffix-case-sensitive", cli, 'suffix.lower() == ".csv"', 'suffix == ".csv"', csv_suffix_in_any_case),
    (
        "hrrn-head-group-only",
        oracle,
        "enumerate(ready[st])",
        "enumerate(list(ready[st])[:1])",
        oracle_agrees_on_ties,
    ),
    (
        "hrrn-first-top-deque-only",
        oracle,
        "                pick = (group[0].pi, st, k)\n",
        "                pick = (group[0].pi, st, k)\n        break\n",
        oracle_agrees_on_ties,
    ),
    ("heap-pop-first", oracle, "heapq.heappop(ready)", "ready.pop(0)", oracle_agrees_on_ties),
    ("hrrn-group-popped-from-the-back", oracle, "groups[k].popleft()", "groups[k].pop()", oracle_agrees_on_ties),
    (
        "oracle-imports-the-engine",
        oracle,
        "from .workload import Policy,",
        "from . import sched as _s\nfrom .workload import Policy,",
        imports_only_the_data_model_at_run_time,
    ),
    (
        "oracle-binds-an-engine-name",
        oracle,
        "_Groups = dict[",
        "elect = None\n_Groups = dict[",
        names_no_engine_selection_code,
    ),
    (
        "draws-it-st-swapped",
        oracle,
        "rng.randint(0, max_it), rng.randint(1, max_st)",
        "*reversed((rng.randint(1, max_st), rng.randint(0, max_it)))",
        draws_are_pinned,
    ),
    (
        "hrrn-ranks-taken-at-arrival",
        oracle,
        "(st + now - groups[0][0].it) * 100 // st",
        "(st + groups[0][0].it - groups[0][0].it) * 100 // st",
        oracle_agrees_on_ties,
    ),
    (
        "guard-engine-error-wrapped",
        kernel,
        "                except EngineError:\n                    raise\n",
        "",
        model_errors_keep_their_cause,
    ),
    (
        "action-engine-error-wrapped",
        kernel,
        "        except EngineError:\n            raise\n",
        "",
        model_errors_keep_their_cause,
    ),
    (
        "guard-cause-dropped",
        kernel,
        'guard of transition {t.name!r} failed at t={clock}: {e}") from e',
        'guard of transition {t.name!r} failed at t={clock}: {e}")',
        model_errors_keep_their_cause,
    ),
    (
        "action-cause-dropped",
        kernel,
        'action of transition {t.name!r} failed at t={clock}: {e}") from e',
        'action of transition {t.name!r} failed at t={clock}: {e}")',
        model_errors_keep_their_cause,
    ),
    ("token-left-a-pair", kernel, "marking[name] = token", "marking[name] = pair", pairs_become_tokens),
    (
        "initial-token-left-a-pair",
        kernel,
        "marking[name] = token",
        "marking[name] = token if t is not None else pair",
        steps_makes_initial_pairs_tokens,
    ),
    (
        "initial-token-read-by-field",
        kernel,
        "value, ready = token\n",
        "value, ready = token.value, token.ready_time\n",
        initial_pairs_become_tokens,
    ),
    (
        "pair-length-unchecked",
        kernel,
        "value, ready_time = token",
        "value, ready_time = token[:2]",
        outputs_that_are_not_pairs_are_model_errors,
    ),
    (
        "non-sequence-output-unchecked",
        kernel,
        "value, ready_time = token\n            except (TypeError, ValueError):",
        "value, ready_time = token\n            except ValueError:",
        outputs_that_are_not_pairs_are_model_errors,
    ),
    (
        "written-ready-time-unchecked",
        kernel,
        "            except TypeError:\n                raise EngineError(\n                    f\"{_writer(t)} place {name!r} ready-time",
        "            except ValueError:\n                raise EngineError(\n                    f\"{_writer(t)} place {name!r} ready-time",
        ready_times_that_do_not_compare_are_model_errors,
    ),
    (
        "initial-ready-time-unchecked",
        kernel,
        "ready_time < clock and t is not None",
        "t is not None and ready_time < clock",
        ready_times_that_do_not_compare_are_model_errors,
    ),
    (
        "initial-token-held-to-the-clock",
        kernel,
        "ready_time < clock and t is not None",
        "ready_time < clock",
        kernel_agrees_with_reference,
    ),
    (
        "reader-mapping-skipped",
        kernel,
        "for mapping in readers[name]:",
        "for mapping in readers[name][:1]:",
        kernel_agrees_with_reference,
    ),
    (
        "mapping-for-consumed-only",
        kernel,
        "        for name in inputs:\n            readers[name].append(values)\n",
        "        for name in t.consumed:\n            readers[name].append(values)\n",
        kernel_agrees_with_reference,
    ),
    ("ready-at-not-updated", kernel, "            ready_at[name] = ready_time\n", "", kernel_agrees_with_reference),
    (
        "fired-transition-not-rechecked",
        kernel,
        "for t, guard, inputs, values, consumed in arcs:",
        "for t, guard, inputs, values, consumed in [a for a in arcs if firings == 0 or a[0] is not t]:",
        kernel_agrees_with_reference,
    ),
    (
        "advance-to-second-smallest",
        kernel,
        "state.clock = min(future)",
        "state.clock = (sorted(set(future))[1:] or future)[0]",
        kernel_agrees_with_reference,
    ),
    (
        "major-comparison-swapped",
        sched,
        "return cmp_scalar(major1, major2, policy)",
        "return cmp_scalar(major2, major1, policy)",
        engine_agrees_with_oracle,
    ),
    ("hrrn-insort-left", sched, "bisect.insort(ready,", "bisect.insort_left(ready,", engine_agrees_with_oracle),
    (
        "front-probe-not-strict",
        sched,
        "if front and order(p) < order(ready[0]):",
        "if front and order(p) <= order(ready[0]):",
        engine_agrees_with_oracle,
    ),
    (
        "front-probe-dropped",
        sched,
        "if front and order(p) < order(ready[0]):",
        "if False and front and order(p) < order(ready[0]):",
        fcfs_burst_compares_once_per_arrival,
    ),
    (
        "policy-names-swapped",
        sched,
        "_FCFS, _SJF, _PR = Policy.FCFS, Policy.SJF, Policy.PR",
        "_FCFS, _SJF, _PR = Policy.SJF, Policy.FCFS, Policy.PR",
        engine_agrees_with_oracle,
    ),
    (
        "wait-and-start-swapped",
        sched,
        "_new_process((p.pi, p.it, p.st, now - p.it, p.es, p.pr))",
        "_new_process((p.pi, p.it, p.st, p.es, now - p.it, p.pr))",
        engine_agrees_with_oracle,
    ),
    (
        "advance-clock-bound-at-definition",
        kernel,
        "step_limit: int = DEFAULT_STEP_LIMIT\n)",
        "step_limit: int = DEFAULT_STEP_LIMIT, advance_clock=advance_clock\n)",
        clock_moves_through_the_module_hook,
    ),
    (
        "record-field-assignable",
        kernel,
        '        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")\n',
        "        object.__setattr__(self, name, value)\n",
        frozen_records_refuse_assignment,
    ),
    (
        "workload-unpickled-unchecked",
        workload,
        "    def __len__(self) -> int:\n",
        "    def __reduce__(self):\n"
        "        return object.__new__, (type(self),), self._values()\n\n"
        "    def __setstate__(self, values):\n"
        "        _Record.__init__(self, *values)\n\n"
        "    def __len__(self) -> int:\n",
        rebuilt_workloads_are_checked,
    ),
]


def build_mutant(module: types.ModuleType, fragment: str, replacement: str, monkeypatch) -> types.ModuleType:
    """``module`` rebuilt from its source with ``fragment`` replaced, as a fresh module."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert source.count(fragment) == 1, f"{fragment!r} must occur exactly once in {module.__name__}"
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__package__ = "tcpnsched"
    mutant.__file__ = module.__file__
    # dataclasses and pickle look a class's module up in sys.modules.
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    # Checks that parse a module read the patched text here, not the file.
    mutant.__source__ = source.replace(fragment, replacement)
    exec(compile(mutant.__source__, module.__file__, "exec"), mutant.__dict__)
    return mutant


@pytest.mark.parametrize(
    "module, fragment, replacement, check", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_mutant_dies(module, fragment, replacement, check, monkeypatch):
    mutant = build_mutant(module, fragment, replacement, monkeypatch)
    check(module)
    with pytest.raises(AssertionError):
        check(mutant)
