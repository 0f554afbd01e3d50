"""Benchmark for tcpnsched: end-to-end CLI timings and a traced per-layer breakdown.

Run from the repository root, with no installation step:

    python3 perfbench/run.py --workload burst-t0 --seed 2024 --seconds 28 --trace 0

With ``--trace 0`` it times ``tcpnsched.cli.main`` in this process, stdout
captured, which is the path a CLI user pays for, and reports each timing in
calibrated seconds (see ``calibration.py``) with the host-time figure beside
it; with ``--trace 1`` it runs the traced pass of ``layers.py`` instead and
reports the per-layer metrics.
Every operation is checked and every failure counted. The last line of
stdout is the result object; the line before it records the environment and
each metric's sample count. See README.md in this directory for the
workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, Clock
from workloads import PAPER_TABLE1, SPECS, gap_5m

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
POLICIES = ("fcfs", "sjf", "pr", "hrrn")
SETUP_REPEATS = 9

# (pi, es, wt, pr.major) in completion order, and the oracle-confirmed
# (order, starts) of SJF and PR: the goldens of acceptance criteria 1-4.
GOLDEN_ROWS = {
    "fcfs": [(6, 1, 0, 1), (4, 5, 0, 5), (1, 7, 1, 6), (2, 11, 4, 7), (3, 14, 6, 8), (5, 16, 7, 9)],
    "hrrn": [(6, 1, 0, 100), (4, 5, 0, 100), (1, 7, 1, 125), (3, 11, 3, 250), (2, 13, 6, 300), (5, 16, 7, 333)],
}
GOLDEN_ORDERS = {
    "sjf": ([6, 4, 2, 3, 5, 1], [1, 5, 7, 10, 12, 15]),
    "pr": ([6, 4, 1, 3, 2, 5], [1, 5, 7, 11, 13, 16]),
}

END_TO_END_UNITS = {
    **{f"run_s.{p}": "s" for p in POLICIES},
    "oracle_s": "s",
    "procs_per_s": "1/s",
    "compare_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "success_rate": "share",
}

now = time.perf_counter


class Tally:
    """Operations attempted, operations failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, ok, wrong=False):
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong


class Terminated(BaseException):
    """SIGTERM, raised so clean-up runs; cli_run does not swallow it as it does SystemExit."""


def _terminate(signum, frame):
    raise Terminated


def cli_run(argv):
    """``tcpnsched.cli.main(argv)`` with output captured: (seconds, exit code, stdout).

    An exception or an argparse exit counts as a failed run, with exit code None.
    """
    main = sys.modules["tcpnsched.cli"].main
    out, err = io.StringIO(), io.StringIO()
    start = now()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit):
        rc = None
    return now() - start, rc, out.getvalue()


def run_argv(policy, source, engine):
    return ["run", "--policy", policy, "--workload", source, "--engine", engine, "--format", "json"]


def set_up(spec, seed, workdir):
    """Import tcpnsched.cli afresh, generate the inputs and write them as JSON files.

    Returns the ``--workload`` arguments, their process counts and the
    gap-5M file (or None).
    """
    for name in [m for m in sys.modules if m == "tcpnsched" or m.startswith("tcpnsched.")]:
        del sys.modules[name]
    importlib.import_module("tcpnsched.cli")
    from tcpnsched.workload import builtin_paper_workload, serialize_workload

    workdir.mkdir(parents=True, exist_ok=True)
    sources, sizes = [], []
    for label, w in spec.inputs(seed):
        if w is None:
            sources.append(PAPER_TABLE1)
            sizes.append(len(builtin_paper_workload()))
            continue
        path = workdir / f"{label}.json"
        path.write_text(serialize_workload(w))
        sources.append(str(path))
        sizes.append(len(w))
    gap = None
    if spec.gap_input:
        gap = workdir / "gap-5M.json"
        gap.write_text(serialize_workload(gap_5m()))
        gap = str(gap)
    return sources, sizes, gap


def golden_holds(policy, out):
    """True iff the CLI's JSON for paper-table1 under ``policy`` matches the goldens."""
    try:
        doc = json.loads(out)
        procs = doc["processes"]
        if doc["makespan"] != 19 or doc["idle"] != [[4, 5]]:
            return False
        if policy in GOLDEN_ROWS:
            return [(p["pi"], p["es"], p["wt"], p["pr"][0]) for p in procs] == GOLDEN_ROWS[policy]
        order, starts = GOLDEN_ORDERS[policy]
        return [p["pi"] for p in procs] == order and [p["es"] for p in procs] == starts
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def check_goldens(tally):
    """The paper-table1 goldens, read back from the CLI's JSON on all four policies."""
    for policy in POLICIES:
        _, rc, out = cli_run(run_argv(policy, PAPER_TABLE1, "cpn"))
        ok = rc == 0 and golden_holds(policy, out)
        tally.record(ok=ok, wrong=rc == 0 and not ok)


def check_against_oracle(engine_runs, oracle_runs, tally):
    """Every engine run's stdout must equal the oracle's for the same input, byte for byte."""
    for (_, rc_engine, out_engine), (_, rc_oracle, out_oracle) in zip(engine_runs, oracle_runs):
        tally.record(ok=rc_oracle == 0)
        both_ran = rc_engine == 0 and rc_oracle == 0
        tally.record(ok=both_ran and out_engine == out_oracle, wrong=both_ran and out_engine != out_oracle)


def run_all(policy, sources, engine):
    return [cli_run(run_argv(policy, source, engine)) for source in sources]


def run_gap(gap, tally):
    """gap-5M under FCFS: it counts in the failure tally and in no timing."""
    _, rc, out = cli_run(run_argv("fcfs", gap, "cpn"))
    if rc != 0:
        tally.record(ok=False)
        return
    _, rc_oracle, out_oracle = cli_run(run_argv("fcfs", gap, "oracle"))
    tally.record(ok=rc_oracle == 0 and out == out_oracle, wrong=rc_oracle == 0 and out != out_oracle)


def fuzz(seed, count, tally):
    _, rc, out = cli_run(["fuzz", "--seed", str(seed), "--count", str(count)])
    ok = rc == 0 and f"{4 * count}/{4 * count} comparisons passed" in out
    tally.record(ok=ok, wrong=rc == 2)


def repeat_until(deadline, body):
    """Call ``body`` at least once, and again while another call should end by ``deadline``."""
    durations = []
    while True:
        start = now()
        body()
        durations.append(now() - start)
        if now() + statistics.median(durations) > deadline:
            return


def peak_memory(sources, sizes, tally):
    """Peak resident memory of the process, in MB, after one HRRN engine run on the largest input.

    Run it before anything larger, such as gap-5M, has raised the peak.
    """
    largest = [sources[sizes.index(max(sizes))]]
    oracle_runs = run_all("hrrn", largest, "oracle")
    check_against_oracle(run_all("hrrn", largest, "cpn"), oracle_runs, tally)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(spec, seed, sources, sizes, deadline, clock, tally):
    """Timed repeats of every engine and oracle run.

    Returns the metrics in calibrated seconds, the same medians in host
    seconds, and each metric's sample count.
    """
    names = [f"run_s.{p}" for p in POLICIES] + ["oracle_s"] + (["fuzz_s"] if spec.fuzz_count else [])
    host = {name: [] for name in names}
    calibrated = {name: [] for name in names}

    def rep():
        # Rotate the policy order so no policy always runs first in a repeat.
        k = len(host["oracle_s"]) % len(POLICIES)
        oracle_host = oracle_cal = 0.0
        for p in POLICIES[k:] + POLICIES[:k]:
            h, c, oracle_runs = clock.time(run_all, p, sources, "oracle")
            oracle_host += h
            oracle_cal += c
            h, c, engine_runs = clock.time(run_all, p, sources, "cpn")
            host[f"run_s.{p}"].append(h)
            calibrated[f"run_s.{p}"].append(c)
            check_against_oracle(engine_runs, oracle_runs, tally)
        host["oracle_s"].append(oracle_host)
        calibrated["oracle_s"].append(oracle_cal)
        if spec.fuzz_count:
            h, c, _ = clock.time(fuzz, seed, spec.fuzz_count, tally)
            host["fuzz_s"].append(h)
            calibrated["fuzz_s"].append(c)

    repeat_until(deadline, rep)
    m = derived(spec, sources, sizes, {k: statistics.median(v) for k, v in calibrated.items()})
    host_m = derived(spec, sources, sizes, {k: statistics.median(v) for k, v in host.items()})
    reps = len(host["oracle_s"])
    counts = dict.fromkeys(m, reps)
    return m, host_m, counts


def derived(spec, sources, sizes, medians):
    """The timings plus the rates derived from them; drops the fuzz time itself."""
    m = {k: v for k, v in medians.items() if k != "fuzz_s"}
    engine_total = sum(m[f"run_s.{p}"] for p in POLICIES)
    m["procs_per_s"] = len(POLICIES) * sum(sizes) / engine_total
    if spec.fuzz_count:
        m["compare_per_s"] = len(POLICIES) * spec.fuzz_count / medians["fuzz_s"]
    else:
        m["compare_per_s"] = len(POLICIES) * len(sources) / (engine_total + m["oracle_s"])
    return m


def per_layer(spec, seed, sources, deadline, tally):
    """The scaling probe once, then traced passes until the deadline; medians of the passes."""
    import layers

    try:
        m = layers.probe(spec, seed, tally)
    except Exception:
        tally.record(ok=False)
        m = dict.fromkeys(layers.PROBE_KEYS, 0.0)
    counts = dict.fromkeys(m, 1)
    passes = []
    repeat_until(deadline, lambda: passes.append(layers.traced_pass(sources, POLICIES, cli_run, tally)))
    for key in passes[0]:
        m[key] = statistics.median(p[key] for p in passes)
        counts[key] = len(passes)
    return m, counts


def git_revision():
    """HEAD's commit id, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tcpnsched" / "cli.py").is_file():
        print(f"error: no tcpnsched source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # The step limit must be the default one, or the defect gap-5M shows could hide.
    os.environ.pop("TCPN_STEP_LIMIT", None)
    spec = SPECS[args.workload]
    workdir = WORK / str(os.getpid())
    signal.signal(signal.SIGTERM, _terminate)
    try:
        clock = Clock()
        setup_host, setup_cal = [], []
        for _ in range(SETUP_REPEATS):
            h, c, (sources, sizes, gap) = clock.time(set_up, spec, args.seed, workdir)
            setup_host.append(h)
            setup_cal.append(c)

        tally = Tally()
        deadline = now() + args.seconds
        peak_mem_mb = None if args.trace else peak_memory(sources, sizes, tally)
        check_goldens(tally)
        host = {}
        if args.trace:
            metrics, counts = per_layer(spec, args.seed, sources, deadline, tally)
        else:
            metrics, host, counts = end_to_end(spec, args.seed, sources, sizes, deadline, clock, tally)
        # gap-5M takes 10-15 s at the seed commit; after the window, it leaves
        # the window's repeats alone.
        if gap is not None:
            run_gap(gap, tally)
        if args.trace:
            metrics["fail_rate"] = tally.failed / tally.attempted
            counts["fail_rate"] = tally.attempted
            units = None
        else:
            metrics["peak_mem_mb"] = peak_mem_mb
            metrics["setup_s"] = statistics.median(setup_cal)
            host["setup_s"] = statistics.median(setup_host)
            metrics["success_rate"] = 1 - tally.failed / tally.attempted
            counts.update(peak_mem_mb=1, setup_s=len(setup_cal), success_rate=tally.attempted)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if units is None:
        units = {key: layer_unit(key) for key in metrics}
    for key in sorted(metrics):
        in_host = f"  (host: {host[key]:.6g} {units[key]})" if key in host else ""
        print(f"{key:<32} {metrics[key]:>14.6g} {units[key]}{in_host}")
    info = {
        "workload": spec.name,
        "why": spec.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": {Path(s).stem: n for s, n in zip(sources, sizes)},
        "samples": counts,
        "host": host,
        "calibration_reference_s": REFERENCE_S,
    }
    print(json.dumps(info))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def layer_unit(key):
    if key.endswith("_s") or ".action_s." in key or ".schedule_s." in key:
        return "s"
    if key == "kernel.us_per_firing":
        return "us"
    if key.startswith("probe."):
        return "ratio"
    if key == "fail_rate":
        return "share"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
