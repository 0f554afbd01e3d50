"""Command-line front end: run schedules, compare engine vs oracle, fuzz."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .kernel import EngineError, trace_records
from .metrics import ScheduleResult, compute_metrics, gantt_csv, result_from_processes
from .oracle import diff_results, oracle_schedule, random_workload
from .sched import simulate
from .workload import (
    Policy,
    Workload,
    WorkloadError,
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
    path = Path(source)
    fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    try:
        data = path.read_bytes()
    except OSError as e:
        raise WorkloadError(f"cannot read workload file {source!r}: {e}") from None
    return parse_workload(data, fmt=fmt, name=path.stem)


def result_json_doc(result: ScheduleResult) -> dict:
    """The fixed-key-order JSON document for a schedule result."""
    agg = result.aggregates
    return {
        "policy": result.policy.value,
        "makespan": result.makespan,
        "lead_in": result.lead_in,
        "total_idle": result.total_idle,
        "idle": [[s, e] for s, e in result.idle_intervals],
        "processes": [
            {
                "pi": p.pi,
                "it": p.it,
                "st": p.st,
                "wt": p.wt,
                "es": p.es,
                "finish": p.es + p.st,
                "turnaround": p.wt + p.st,
                "pr": [p.pr.major, p.pr.minor],
            }
            for p in result.finished
        ],
        "aggregates": None
        if agg is None
        else {
            "avg_waiting": agg.avg_waiting,
            "avg_turnaround": agg.avg_turnaround,
            "total_idle": result.total_idle,
            "utilization": agg.utilization,
        },
    }


def _result_table(result: ScheduleResult) -> str:
    header = f"{'pi':>4} {'it':>4} {'st':>4} {'wt':>4} {'es':>4} {'finish':>7} {'turnaround':>11} {'pr':>12}"
    lines = [f"policy: {result.policy.value}", header, "-" * len(header)]
    for p in result.finished:
        pr = f"({p.pr.major},{p.pr.minor})"
        lines.append(
            f"{p.pi:>4} {p.it:>4} {p.st:>4} {p.wt:>4} {p.es:>4} {p.es + p.st:>7} {p.wt + p.st:>11} {pr:>12}"
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
        state = simulate(w, policy)
        result = compute_metrics(state, w, policy)
        trace = trace_records(state.trace) if args.trace else []
    else:
        result = result_from_processes(oracle_schedule(w, policy), w, policy)

    if args.format == "json":
        doc = result_json_doc(result)
        if args.trace:
            doc["trace"] = trace
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(gantt_csv(result) if args.format == "gantt-csv" else _result_table(result))
        if args.trace:
            print(json.dumps(trace))
    return EXIT_OK


def _disagreement(w: Workload, policy: Policy) -> list[str]:
    """Run the engine and the oracle on ``w``; the divergences, empty if they agree."""
    result = compute_metrics(simulate(w, policy), w, policy)
    return diff_results(result, oracle_schedule(w, policy), oracle_policy=policy)


def cmd_compare(args: argparse.Namespace) -> int:
    policy = Policy.from_name(args.policy)
    w = _load_workload(args.workload)

    report = _disagreement(w, policy)
    if report:
        for line in report:
            print(line)
        return EXIT_INTERNAL
    print(f"engine and oracle agree on {len(w)} processes under {policy.value}")
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    import random

    if args.count < 0:
        raise WorkloadError(f"--count must be >= 0, got {args.count}")
    total = 0
    passed = 0
    failing_seeds: list[int] = []
    # Case i uses seed (base seed + i), so a failure replays with
    # --seed <failing seed> --count 1.
    for i in range(args.count):
        case_seed = args.seed + i
        w = random_workload(random.Random(case_seed), name=f"fuzz-{case_seed}")
        case_failed = False
        for policy in Policy:
            total += 1
            report = _disagreement(w, policy)
            if report:
                case_failed = True
                print(f"seed {case_seed} policy {policy.value}: {report[0]}")
            else:
                passed += 1
        if case_failed:
            failing_seeds.append(case_seed)
    print(f"{passed}/{total} comparisons passed")
    if failing_seeds:
        print("failing seeds: " + " ".join(str(s) for s in failing_seeds))
        return EXIT_INTERNAL
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as other bad input does.

    ``add_subparsers`` builds the subcommand parsers with the same class.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcpnsched",
        description="Single-processor non-preemptive scheduling on a timed colored Petri net.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.trace and args.engine == "oracle":
        # The oracle fires no transitions, so it has no trace to print.
        parser.error("argument --trace: not allowed with argument --engine oracle")
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was all written", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
