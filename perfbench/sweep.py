"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out BENCH_label.json

Each run is a separate ``perfbench/run.py`` process, one after another. For
every workload and metric the summary holds the median of the runs' values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, which is the figure
BENCHMARK.json's bounds are set against; under "host" it holds the same for
the uncalibrated host-time medians of a ``--trace 0`` run. Use it for
before-and-after numbers: sweep the parent and the change with the same seeds
and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SPECS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(SPECS),
        default=[w["name"] for w in BENCHMARK["workloads"]],
    )
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        values, host, runs, info = {}, {}, [], None
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=False,
            )
            lines = done.stdout.splitlines()
            if len(lines) < 2:
                sys.exit(f"{name} seed {seed}: no result (exit {done.returncode})\n{done.stderr}")
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")} | {"seed": seed})
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            for key, value in info.get("host", {}).items():
                host.setdefault(key, []).append(value)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {key: summarise(v) for key, v in values.items()}
        for key, m in metrics.items():
            bound = bounds.get(key)
            flag = "" if bound is None or m["spread"] is None else f"  bound {bound}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {key:<32} median {m['median']:<14.6g} spread {spread}{flag}")
        summary["workloads"][name] = {
            "git_revision": info["git_revision"],
            "python": info["python"],
            "nproc": info["nproc"],
            "runs": runs,
            "metrics": metrics,
            "host": {key: summarise(v) for key, v in host.items()},
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
