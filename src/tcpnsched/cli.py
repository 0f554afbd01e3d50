"""Command-line front end: run schedules, compare engine vs oracle, fuzz."""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import re
import sys

from .kernel import EngineError, trace_records
from .metrics import Aggregates, ScheduleResult, compute_metrics, gantt_csv, result_from_processes
from .oracle import diff_results, oracle_schedule, random_workload
from .sched import simulate
from .workload import (
    Policy,
    Process,
    Workload,
    WorkloadError,
    _process_columns,
    builtin_paper_workload,
    parse_workload,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2


def _load_workload(source: str) -> Workload:
    """A workload file path, or the literal ``paper-table1`` for the builtin."""
    if source == "paper-table1":
        return builtin_paper_workload()
    stem, suffix = os.path.splitext(os.path.basename(source))
    try:
        with open(source, "rb") as f:
            data = f.read()
    except OSError as e:
        raise WorkloadError(f"cannot read workload file {source!r}: {e}") from None
    return parse_workload(data, fmt="csv" if suffix.lower() == ".csv" else "json", name=stem)


def _process_entry(p: Process) -> dict:
    """The document's entry for one finished process.

    Called on ``workload._process_columns`` of the records, it gives the
    values of every entry at once, so a value may combine fields only with
    ``+``, as ``Process.finish`` and ``Process.turnaround`` do. Its ``pr``
    is then the list of the records' pairs.
    """
    return {
        "pi": p.pi,
        "it": p.it,
        "st": p.st,
        "wt": p.wt,
        "es": p.es,
        "finish": p.finish,
        "turnaround": p.turnaround,
        "pr": list(p.pr),
    }


def result_json_doc(result: ScheduleResult) -> dict:
    """The fixed-key-order JSON document for a schedule result."""
    agg = result.aggregates
    return {
        "policy": result.policy.value,
        "makespan": result.makespan,
        "lead_in": result.lead_in,
        "total_idle": result.total_idle,
        "idle": [[s, e] for s, e in result.idle_intervals],
        "processes": list(map(_process_entry, result.finished)),
        "aggregates": None
        if agg is None
        else {
            "avg_waiting": agg.avg_waiting,
            "avg_turnaround": agg.avg_turnaround,
            "total_idle": result.total_idle,
            "utilization": agg.utilization,
        },
    }


#: A 0 that is a whole value in ``json.dumps(..., indent=2)`` text: an array
#: item alone on its line, or an object's value after its key. No key or
#: string holds a raw newline, so no other 0 ends a line this way.
_ZERO_VALUE = re.compile(r"(^ *|: )0(?=,?$)", re.MULTILINE)


def _layout(sample, indent: str) -> str:
    """The ``%``-layout of ``sample``, a JSON value whose numbers are all 0.

    It is ``json.dumps(sample, indent=2)`` with each 0 made a ``%s``, and with
    ``indent`` added to each line after the first, as deep as the value lies
    in the document.
    """
    text = _ZERO_VALUE.sub(r"\1%s", json.dumps(sample, indent=2).replace("%", "%%"))
    return text.replace("\n", "\n" + indent)


#: The document of a result of zeros with one process and one idle pair; each layout is made from a part.
_ZEROS = result_json_doc(
    ScheduleResult(Policy.FCFS, (Process(0, 0, 0),), 0, 0, ((0, 0),), Aggregates(0, 0, 0))
)
#: An entry of the ``idle`` and of the ``processes`` array, at depth 2, ``aggregates``, at depth 1,
#: and the top level, without and with ``trace``.
_IDLE_LAYOUT = _layout(_ZEROS["idle"][0], "    ")
_PROCESS_LAYOUT = _layout(_ZEROS["processes"][0], "    ")
_AGGREGATES_LAYOUT = _layout(_ZEROS["aggregates"], "  ")
_TOP_LAYOUTS = [_layout(dict.fromkeys(keys, 0), "") for keys in ([*_ZEROS], [*_ZEROS, "trace"])]
#: The text before, between and after the items of a list of ints in a trace detail, at depth 4, from a
#: pair's layout: a list's length varies with the data, so lists are joined rather than laid out.
_LIST_HEAD, _LIST_ITEM_JOIN, _LIST_TAIL = _layout([0, 0], " " * 8).split("%s")


@functools.lru_cache(maxsize=64)
def _trace_layout(shape: tuple) -> tuple[str, str]:
    """The layout of a trace entry, and its name's JSON text, made once for each of the last 64 shapes.

    A ``shape`` is ``(tag, name, *keys, *map(type, keys))``: ``tag`` is ``str`` or a non-str name's JSON text.
    """
    name, *keys = shape[1 : len(shape) // 2 + 1]
    sample = {"t": 0, "transition": 0, "detail": dict.fromkeys(keys, 0)}
    return _layout(sample, "    "), json.dumps(name, indent=2).replace("\n", "\n" + " " * 6)


def _array(entries: list[str]) -> str:
    """A JSON array at depth 1 of these entry texts."""
    items = ",\n    ".join(entries)
    return f"[\n    {items}\n  ]" if entries else "[]"


def result_json_text(result: ScheduleResult, trace: list | None = None) -> str:
    """``json.dumps(doc, indent=2)`` of ``result_json_doc(result)``, byte for byte.

    A ``trace`` given (a run's ``FiringEvent``s) is added under ``"trace"``,
    as its ``trace_records``; a time other than an int, or a detail value
    other than an int or a list of ints, raises TypeError, and so does a
    transition name that is a list or a dict, since it keys the layouts.
    Every part, the top level too, is a ``_layout`` filled by ``%``; a trace
    name fills a slot of its entry's layout. The ``processes`` values come
    from one ``_process_entry`` call over the columns of the finished
    records; only here are ``pr`` pairs transposed.
    """
    agg, total_idle = result.aggregates, result.total_idle
    aggregates = "null"
    entry = _process_entry(_process_columns(result.finished))
    # The layout holds a list's items, so a list of the records' lists gives one column per item.
    columns = [c for value in entry.values() for c in (zip(*value) if type(value) is list else (value,))]
    processes = list(map(_PROCESS_LAYOUT.__mod__, zip(*columns)))
    if agg is not None:
        aggregates = _AGGREGATES_LAYOUT % (agg.avg_waiting, agg.avg_turnaround, total_idle, agg.utilization)
    values = [json.dumps(result.policy.value), result.makespan, result.lead_in, total_idle]
    values += _array(list(map(_IDLE_LAYOUT.__mod__, result.idle_intervals))), _array(processes), aggregates
    if trace is not None:
        entries = []
        for transition, t, detail in trace:
            if type(t) is not int:
                raise TypeError(f"trace record of {transition!r}: 't' is {t!r:.40}, not an integer")
            fill = [t, None]
            for key, value in detail.items():
                if type(value) is not int:
                    if type(value) is not list or not set(map(type, value)) <= {int}:
                        where = f"trace record of {transition!r}: {key!r} is {value!r:.40}"
                        raise TypeError(f"{where}, not an integer or a list of integers")
                    value = _LIST_HEAD + _LIST_ITEM_JOIN.join(map(str, value)) + _LIST_TAIL if value else "[]"
                fill.append(value)
            # Types, and a non-str name's JSON text, tell apart what is equal but prints apart: 0, False, 0.0.
            tag = str if type(transition) is str else json.dumps(transition)
            layout, fill[1] = _trace_layout((tag, transition, *detail, *map(type, detail)))
            entries.append(layout % tuple(fill))
        values.append(_array(entries))
    return _TOP_LAYOUTS[trace is not None] % tuple(values)


def _result_table(result: ScheduleResult) -> str:
    header = f"{'pi':>4} {'it':>4} {'st':>4} {'wt':>4} {'es':>4} {'finish':>7} {'turnaround':>11} {'pr':>12}"
    lines = [f"policy: {result.policy.value}", header, "-" * len(header)]
    for p in result.finished:
        pr = f"({p.pr.major},{p.pr.minor})"
        lines.append(
            f"{p.pi:>4} {p.it:>4} {p.st:>4} {p.wt:>4} {p.es:>4} {p.finish:>7} {p.turnaround:>11} {pr:>12}"
        )
    lines.append("-" * len(header))
    lines.append(f"makespan: {result.makespan}  lead-in: {result.lead_in}  idle: {result.total_idle}")
    if result.idle_intervals:
        spans = ", ".join(f"[{s},{e})" for s, e in result.idle_intervals)
        lines.append(f"idle intervals: {spans}")
    if result.aggregates is not None:
        agg = result.aggregates
        lines.append(
            f"avg waiting: {agg.avg_waiting:g}  avg turnaround: {agg.avg_turnaround:g}  "
            f"utilization: {agg.utilization:.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    policy = Policy.from_name(args.policy)
    w = _load_workload(args.workload)

    if args.engine == "cpn":
        state = simulate(w, policy, trace=args.trace)
        result, trace = compute_metrics(state, w, policy), state.trace
    else:
        result, trace = result_from_processes(oracle_schedule(w, policy), w, policy), None

    if args.format == "json":
        print(result_json_text(result, trace))
    else:
        sys.stdout.write(gantt_csv(result) if args.format == "gantt-csv" else _result_table(result))
        if trace is not None:
            print(json.dumps(trace_records(trace)))
    return EXIT_OK


def _disagreement(w: Workload, policy: Policy) -> list[str]:
    """Run the engine and the oracle on ``w``; the divergences, empty if they agree."""
    result = compute_metrics(simulate(w, policy, trace=False), w, policy)
    return diff_results(result, oracle_schedule(w, policy), oracle_policy=policy)


def cmd_compare(args: argparse.Namespace) -> int:
    policy = Policy.from_name(args.policy)
    w = _load_workload(args.workload)

    report = _disagreement(w, policy)
    if report:
        print("\n".join(report))
        return EXIT_INTERNAL
    print(f"engine and oracle agree on {len(w)} processes under {policy.value}")
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise WorkloadError(f"--count must be >= 0, got {args.count}")
    # The case seed of each comparison that fails, once per failure.
    failed: list[int] = []
    # Case i uses seed (base seed + i), so a failure replays with
    # --seed <failing seed> --count 1.
    for i in range(args.count):
        case_seed = args.seed + i
        w = random_workload(random.Random(case_seed), name=f"fuzz-{case_seed}")
        for policy in Policy:
            report = _disagreement(w, policy)
            if report:
                failed.append(case_seed)
                print(f"seed {case_seed} policy {policy.value}: {report[0]}")
    total = len(Policy) * args.count
    print(f"{total - len(failed)}/{total} comparisons passed")
    if failed:
        print("failing seeds: " + " ".join(map(str, dict.fromkeys(failed))))
        return EXIT_INTERNAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other bad input does.

    ``add_subparsers`` builds the subcommand parsers with the same class.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    ``parse_args`` gives each call a fresh ``Namespace``, and help text reads
    the terminal width when it is printed, so no call sees another's options.
    """
    parser = _Parser(
        prog="tcpnsched",
        description="Single-processor non-preemptive scheduling on a timed colored Petri net.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's name, mapped to its own parser

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workload",
        default="paper-table1",
        help="workload file (.json or .csv) or the literal 'paper-table1'",
    )
    common.add_argument("--policy", default="fcfs", help="fcfs, sjf, pr or hrrn")

    p_run = sub.add_parser("run", parents=[common], help="run one schedule and print the result")
    p_run.add_argument("--engine", choices=("cpn", "oracle"), default="cpn")
    p_run.add_argument("--format", choices=("json", "table", "gantt-csv"), default="json")
    p_run.add_argument("--trace", action="store_true", help="include the firing trace")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", parents=[common], help="run CPN engine and oracle, report any divergence"
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_fuzz = sub.add_parser("fuzz", help="differential-test random workloads across all policies")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in the subcommand's parser alone when ``argv`` starts with one."""
    parser = build_parser()
    if not argv or argv[0] not in parser.commands:
        return parser.parse_args(argv)
    args, extras = parser.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.command == "run" and args.trace and args.engine == "oracle":
        # The oracle fires no transitions, so it has no trace to print.
        build_parser().error("argument --trace: not allowed with argument --engine oracle")
    # A command's records hold no reference cycles and live until it ends, so
    # a cyclic collection during it frees nothing; the caller's setting comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except WorkloadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except EngineError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # Point stdout at the null device so the flush at exit cannot fail (Python docs, SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was all written", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
