import ast
import inspect
import random

import pytest

from helpers import make_corpus
from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    WorkloadError,
    compute_metrics,
    diff_results,
    oracle_schedule,
    random_workload,
    simulate,
)
from tcpnsched import oracle as oracle_module


class TestGoldenSchedules:
    def test_fcfs(self, table1):
        events = oracle_schedule(table1, Policy.FCFS)
        assert [e.pi for e in events] == [6, 4, 1, 2, 3, 5]
        assert [e.es for e in events] == [1, 5, 7, 11, 14, 16]

    def test_hrrn(self, table1):
        events = oracle_schedule(table1, Policy.HRRN)
        assert [e.pi for e in events] == [6, 4, 1, 3, 2, 5]
        assert [e.es for e in events] == [1, 5, 7, 11, 13, 16]
        assert [tuple(e.pr) for e in events] == [
            (100, 0),
            (100, 0),
            (125, 0),
            (250, 0),
            (300, 0),
            (333, 0),
        ]

    def test_sjf(self, table1):
        events = oracle_schedule(table1, Policy.SJF)
        assert [e.pi for e in events] == [6, 4, 2, 3, 5, 1]
        assert [e.es for e in events] == [1, 5, 7, 10, 12, 15]

    def test_pr_with_earlier_arrival_tie_break(self, table1):
        events = oracle_schedule(table1, Policy.PR)
        assert [e.pi for e in events] == [6, 4, 1, 3, 2, 5]
        assert [e.es for e in events] == [1, 5, 7, 11, 13, 16]
        # At t=13 both P2 and P5 carry static priority 1; P2 arrived earlier.
        at_13 = next(e for e in events if e.es == 13)
        assert at_13.pi == 2

    def test_invalid_workload_rejected(self):
        with pytest.raises(WorkloadError):
            oracle_schedule(Workload((Process(1, 0, 0),)), Policy.FCFS)


class TestSelfChecks:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_event_identities_and_work_conservation(self, policy):
        for seed in range(200):
            w = random_workload(random.Random(seed), max_n=20)
            records = oracle_schedule(w, policy)
            assert sorted(e.pi for e in records) == sorted(p.pi for p in w.processes)
            by_pi = {p.pi: p for p in w.processes}
            undispatched = {p.pi for p in w.processes}
            prev_finish = 0
            for e in records:
                p = by_pi[e.pi]
                assert (e.it, e.st) == (p.it, p.st)
                assert e.wt == e.es - p.it
                assert e.wt >= 0
                # Never idle while someone has arrived: each dispatch happens
                # at the previous finish or at the next arrival, whichever is due.
                next_arrival = min(by_pi[pi].it for pi in undispatched)
                assert e.es == max(prev_finish, next_arrival)
                undispatched.discard(e.pi)
                prev_finish = e.es + e.st


def reference_schedule(w: Workload, policy: Policy) -> list[tuple]:
    """The brute-force rule the oracle must reproduce, as event tuples.

    At each dispatch, rank every arrived process afresh at that instant and
    take the minimum of (major, minor, pi), with PR and HRRN majors negated.
    """

    def pair(p: Process, now: int) -> tuple[int, int]:
        if policy is Policy.FCFS:
            return (p.it, 0)
        if policy is Policy.SJF:
            return (p.st, p.it)
        if policy is Policy.PR:
            return (p.pr.major, p.it)
        return ((p.st + now - p.it) * 100 // p.st, 0)

    sign = -1 if policy in (Policy.PR, Policy.HRRN) else 1
    left = list(w.processes)
    events = []
    t = 0
    while left:
        arrived = [p for p in left if p.it <= t]
        if not arrived:
            t = min(p.it for p in left)
            continue
        best = min(arrived, key=lambda p: (sign * pair(p, t)[0], pair(p, t)[1], p.pi))
        left.remove(best)
        events.append((best.pi, t, t + best.st, t - best.it, pair(best, t)))
        t += best.st
    return events


def _bursts(seed: int, n: int = 300) -> Workload:
    # Two instants, short services and two priorities: most ranks tie on the
    # major field, many on the minor field too, so pi decides.
    rng = random.Random(seed)
    procs = [
        Process(pi=pi, it=rng.choice((0, 250)), st=rng.randint(1, 3), pr=PriorityPair(rng.randint(0, 1), 0))
        for pi in range(1, n + 1)
    ]
    rng.shuffle(procs)
    return Workload(tuple(procs), name=f"burst-{seed}")


def _hrrn_floor_ties(seed: int) -> Workload:
    # With st >= 101, ratios floor to the same x100 value over whole ranges of waits.
    rng = random.Random(seed)
    procs = [
        Process(pi=pi, it=rng.randint(0, 40), st=rng.randint(101, 400), pr=PriorityPair(rng.randint(0, 1), 0))
        for pi in range(1, 41)
    ]
    rng.shuffle(procs)
    return Workload(tuple(procs), name=f"hrrn-ties-{seed}")


def _shuffled(procs: list[Process], rng: random.Random, name: str) -> Workload:
    # Fresh pis in random order, so that the lowest pi of a tie can sit in
    # any arrival group; the input order is shuffled too.
    pis = list(range(1, len(procs) + 1))
    rng.shuffle(pis)
    procs = [p._replace(pi=pi) for p, pi in zip(procs, pis)]
    rng.shuffle(procs)
    return Workload(tuple(procs), name=name)


def _overload(seed: int, n: int = 300) -> Workload:
    # One arrival a tick against a mean service of 10.5 ticks: the ready
    # queue grows to most of n, with one arrival group per tick.
    rng = random.Random(seed)
    procs = [Process(pi=i, it=i, st=rng.randint(1, 20)) for i in range(1, n + 1)]
    return _shuffled(procs, rng, f"overload-{seed}")


def _hrrn_group_ties(seed: int, n: int = 300) -> Workload:
    # Few service times, all >= 101, over 41 arrival instants: several
    # arrival groups of one st floor to the same ratio at once.
    rng = random.Random(seed)
    procs = [
        Process(pi=i, it=rng.randint(0, 40), st=rng.choice((101, 150, 200, 300, 400)))
        for i in range(1, n + 1)
    ]
    return _shuffled(procs, rng, f"hrrn-group-ties-{seed}")


def _hrrn_short_and_long(seed: int, n: int = 300) -> Workload:
    # st 1 and 2, whose ratios climb by 100 or 50 a tick, beside st >= 101,
    # whose ratios stay floored at the same value for a long time.
    rng = random.Random(seed)
    procs = [
        Process(pi=i, it=rng.randint(0, 60), st=rng.choice((1, 2, rng.randint(101, 1_000))))
        for i in range(1, n + 1)
    ]
    return _shuffled(procs, rng, f"hrrn-short-long-{seed}")


def _distinct_st_burst(seed: int, n: int = 300) -> Workload:
    # Everything at t=0 and every st its own: one arrival group per st.
    rng = random.Random(seed)
    sts = rng.sample(range(1, 10**6 + 1), n)
    procs = [Process(pi=i, it=0, st=st) for i, st in enumerate(sts, start=1)]
    return _shuffled(procs, rng, f"distinct-st-burst-{seed}")


class TestIndependence:
    """The oracle is evidence only while it shares no selection code with the engine."""

    ENGINE_NAMES = {
        "bisect",
        "cmp_to_key",
        "compare_process",
        "elect",
        "update_all",
        "update_priority",
        "hrrn_ratio",
    }

    @staticmethod
    def package_modules(node: ast.AST) -> list[str]:
        """The tcpnsched modules that an import statement loads."""
        if isinstance(node, ast.Import):
            return [a.name for a in node.names if a.name.split(".")[0] == "tcpnsched"]
        if not isinstance(node, ast.ImportFrom):
            return []
        if node.level == 0:
            return [node.module] if node.module.split(".")[0] == "tcpnsched" else []
        if node.module:
            return [f"tcpnsched.{node.module}"]
        return [f"tcpnsched.{a.name}" for a in node.names]

    def test_imports_only_the_data_model_at_run_time(self):
        tree = ast.parse(inspect.getsource(oracle_module))
        type_only = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
            for stmt in node.body
            for inner in ast.walk(stmt)
        }
        loaded = {
            module
            for node in ast.walk(tree)
            if id(node) not in type_only
            for module in self.package_modules(node)
        }
        assert loaded == {"tcpnsched.workload"}

    def test_names_no_engine_selection_code(self):
        named = set()
        for node in ast.walk(ast.parse(inspect.getsource(oracle_module))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                named.update(node.module.split("."))
            elif isinstance(node, ast.alias):
                named.update(node.name.split("."))
                named.add(node.asname)
        assert not named & self.ENGINE_NAMES


class TestAgainstReferenceRule:
    CASES = (
        make_corpus(11, 300)
        + [_bursts(seed) for seed in range(3)]
        + [_hrrn_floor_ties(seed) for seed in range(20)]
        + [
            shape(seed)
            for shape in (_overload, _hrrn_group_ties, _hrrn_short_and_long, _distinct_st_burst)
            for seed in range(2)
        ]
    )

    @pytest.mark.parametrize("policy", list(Policy))
    def test_events_equal_the_brute_force_rule(self, policy):
        for w in self.CASES:
            got = [(e.pi, e.es, e.es + e.st, e.wt, tuple(e.pr)) for e in oracle_schedule(w, policy)]
            assert got == reference_schedule(w, policy), f"{w.name} under {policy.value}"


class TestDiff:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_engine_agrees_on_table1(self, table1, policy):
        result = compute_metrics(simulate(table1, policy), table1, policy)
        assert diff_results(result, oracle_schedule(table1, policy), oracle_policy=policy) == []

    FIELD_WORDS = {
        "es": "dispatch time",
        "wt": "waiting time",
        "pr": "priority pair",
        "it": "arrival time",
        "st": "service time",
    }

    @pytest.mark.parametrize("field", list(FIELD_WORDS))
    def test_each_perturbed_field_is_named(self, table1, field):
        result = compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN)
        bent = oracle_schedule(table1, Policy.HRRN)
        p = bent[2]
        value = PriorityPair(999, 0) if field == "pr" else getattr(p, field) + 1
        bent[2] = p._replace(**{field: value})
        report = diff_results(result, bent)
        assert len(report) == 1
        assert f"pi={p.pi}" in report[0] and self.FIELD_WORDS[field] in report[0]

    def test_policy_mismatch_flagged(self, table1):
        result = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        report = diff_results(result, oracle_schedule(table1, Policy.SJF), oracle_policy=Policy.SJF)
        assert report and "policy mismatch" in report[0]

    def test_length_mismatch_flagged(self, table1):
        result = compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)
        report = diff_results(result, oracle_schedule(table1, Policy.FCFS)[:-1])
        assert report and "length mismatch" in report[0]


class TestGenerator:
    def test_reproducible(self):
        a = random_workload(random.Random(7))
        b = random_workload(random.Random(7))
        assert a.processes == b.processes

    def test_ranges_and_uniqueness(self):
        for seed in range(50):
            w = random_workload(random.Random(seed))
            n = len(w.processes)
            assert 1 <= n <= 50
            assert sorted(p.pi for p in w.processes) == list(range(1, n + 1))
            for p in w.processes:
                assert 0 <= p.it <= 100
                assert 1 <= p.st <= 20
                assert 0 <= p.pr.major <= 9
                assert p.pr.minor == 0 and p.wt == 0 and p.es == 0
