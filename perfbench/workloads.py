"""Seeded input generators for the benchmark's workloads.

Every generator is a pure function of its seed, so the same seed gives the
same inputs. Generators import tcpnsched at call time: the harness re-imports
the package while it measures set-up, and the records must come from the
package that is loaded when they are built.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

BURSTY_N = 2_500
BURST_N = 500
SPARSE_N = 31
SPARSE_GAP = (500, 1_500)
SPARSE_PROBE_N = 11
GAP_5M = 5_000_000
FUZZ_K = 48

PAPER_TABLE1 = "paper-table1"


def scale_workload(n=10_000, burst=25, seed=2024):
    """Bursty near-critical load: arrivals slightly outpace the machine.

    A copy of the generator of acceptance criterion 8, kept identical so the
    benchmark measures the same data; test_workloads.py checks that.
    """
    from tcpnsched.workload import PriorityPair, Process, Workload

    rng = random.Random(seed)
    sts = [rng.randint(1, 20) for _ in range(n)]
    procs = []
    served = 0
    for k in range(0, n, burst):
        arrival = served * 199 // 200
        for j, st in enumerate(sts[k : k + burst]):
            procs.append(
                Process(pi=k + j + 1, it=arrival, st=st, pr=PriorityPair(rng.randint(0, 9), 0))
            )
        served += sum(sts[k : k + burst])
    return Workload(tuple(procs), name="scale-smoke")


def burst_at_zero(n, seed):
    """``n`` processes that all arrive at t=0, so the ready queue peaks at n."""
    from tcpnsched.workload import PriorityPair, Process, Workload

    rng = random.Random(seed)
    procs = tuple(
        Process(pi=i, it=0, st=rng.randint(1, 20), pr=PriorityPair(rng.randint(0, 9), 0))
        for i in range(1, n + 1)
    )
    return Workload(procs, name=f"burst-t0-{n}")


def sparse_gaps(n, seed, stretch=1):
    """Arrivals ``stretch`` x U[500, 1500] ticks apart; every job ends before the next arrives.

    Gaps come in pairs (g, 2000 - g), shuffled, so each gap is uniform on
    [500, 1500] while the total idle time, and with it the run's cost, is
    the same for every seed when n - 1 is even. The draws do not depend on
    ``stretch``, so stretching scales the idle time and nothing else.
    """
    from tcpnsched.workload import PriorityPair, Process, Workload

    rng = random.Random(seed)
    lo, hi = SPARSE_GAP
    gaps = []
    while len(gaps) < n - 1:
        g = rng.randint(lo, hi)
        gaps += [g, lo + hi - g]
    gaps = gaps[: n - 1]
    rng.shuffle(gaps)
    arrivals = [0, *itertools.accumulate(stretch * g for g in gaps)]
    procs = tuple(
        Process(pi=i, it=it, st=rng.randint(1, 20), pr=PriorityPair(rng.randint(0, 9), 0))
        for i, it in enumerate(arrivals, start=1)
    )
    return Workload(procs, name=f"sparse-{n}-x{stretch}")


def gap_5m():
    """The two-process input whose second arrival lies 5,000,000 ticks out."""
    from tcpnsched.workload import Process, Workload

    return Workload((Process(pi=1, it=0, st=1), Process(pi=2, it=GAP_5M, st=1)), name="gap-5M")


def fuzz_cases(seed, count):
    """The cases ``tcpnsched fuzz --seed seed --count count`` compares."""
    from tcpnsched.oracle import random_workload

    return [
        random_workload(random.Random(seed + i), name=f"fuzz-{seed + i}") for i in range(count)
    ]


@dataclass(frozen=True)
class Spec:
    """One workload: its timed inputs, its extra operations and its scaling probe.

    ``inputs(seed)`` returns ``(label, workload)`` pairs; a ``None`` workload
    stands for the CLI's built-in ``paper-table1``. ``probe(seed)`` returns
    the inputs of the scaling probe at x1, x2 and x4 of the property the
    workload stresses.
    """

    name: str
    why: str
    inputs: Callable[[int], list]
    probe: Callable[[int], list]
    fuzz_count: int = 0
    gap_input: bool = False


def _halvings(make, full):
    return [[make(full // 4)], [make(full // 2)], [make(full)]]


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="bursty-2500",
            why="criterion 8's bursty near-critical generator at n=2,500: "
            "the ready queue holds up to about 40, so every layer does real work",
            inputs=lambda seed: [("bursty", scale_workload(n=BURSTY_N, seed=seed))],
            probe=lambda seed: _halvings(lambda n: scale_workload(n=n, seed=seed), BURSTY_N),
        ),
        Spec(
            name="burst-t0",
            why="500 processes all arriving at t=0: the ready queue peaks at n, "
            "so Dispatch and the oracle's min scan dominate; Idle never fires",
            inputs=lambda seed: [("burst-t0", burst_at_zero(BURST_N, seed))],
            probe=lambda seed: _halvings(lambda n: burst_at_zero(n, seed), BURST_N),
        ),
        Spec(
            name="sparse-gaps",
            why="31 processes 500-1500 ticks apart: cost is per idle tick and the "
            "ready queue never exceeds 1; also runs the failing gap-5M input",
            inputs=lambda seed: [("sparse", sparse_gaps(SPARSE_N, seed))],
            probe=lambda seed: [[sparse_gaps(SPARSE_PROBE_N, seed, m)] for m in (1, 2, 4)],
            gap_input=True,
        ),
        Spec(
            name="fuzz-small",
            why="paper-table1 plus 48 small random cases and fuzz over them: "
            "per-invocation fixed costs dominate",
            inputs=lambda seed: [(PAPER_TABLE1, None)]
            + [(w.name, w) for w in fuzz_cases(seed, FUZZ_K)],
            probe=lambda seed: [fuzz_cases(seed, k) for k in (FUZZ_K // 4, FUZZ_K // 2, FUZZ_K)],
            fuzz_count=FUZZ_K,
        ),
    )
}
