import ast
import hashlib
import inspect
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_corpus
from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    WorkloadError,
    builtin_paper_workload,
    compute_metrics,
    diff_results,
    oracle_schedule,
    random_workload,
    serialize_workload,
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


#: The engine's selection helpers, which the oracle must never name.
ENGINE_NAMES = {
    "bisect",
    "cmp_to_key",
    "compare_process",
    "elect",
    "update_all",
    "update_priority",
    "hrrn_ratio",
}


def _tree(oracle_mod) -> ast.Module:
    """The syntax tree of ``oracle_mod``: of its ``__source__`` text, which a mutant keeps, or of its file."""
    return ast.parse(getattr(oracle_mod, "__source__", None) or inspect.getsource(oracle_mod))


def _package_modules(node: ast.AST) -> list[str]:
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


def imports_only_the_data_model_at_run_time(oracle_mod) -> None:
    """The only package module that ``oracle_mod`` imports outside ``TYPE_CHECKING`` is ``workload``."""
    tree = _tree(oracle_mod)
    type_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    loaded = {module for node in ast.walk(tree) if id(node) not in type_only for module in _package_modules(node)}
    assert loaded == {"tcpnsched.workload"}


def names_no_engine_selection_code(oracle_mod) -> None:
    """No name, attribute or import of ``oracle_mod`` is one of ``ENGINE_NAMES``."""
    named = set()
    for node in ast.walk(_tree(oracle_mod)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            named.update(node.module.split("."))
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
            named.add(node.asname)
    assert not named & ENGINE_NAMES


class TestIndependence:
    """The oracle is evidence only while it shares no selection code with the engine."""

    def test_imports_only_the_data_model_at_run_time(self):
        imports_only_the_data_model_at_run_time(oracle_module)

    def test_names_no_engine_selection_code(self):
        names_no_engine_selection_code(oracle_module)


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
            assert _oracle_events(w, policy) == reference_schedule(w, policy), f"{w.name} under {policy.value}"


def _oracle_events(w: Workload, policy: Policy) -> list[tuple]:
    """``oracle_schedule``'s records as ``reference_schedule``'s event tuples."""
    return [(e.pi, e.es, e.es + e.st, e.wt, tuple(e.pr)) for e in oracle_schedule(w, policy)]


#: Service times that tie often: short ones, whose ratios climb fast, and ones
#: of at least 101, whose x100-floored ratios stay level over several ticks.
TIE_SERVICE_TIMES = (1, 2, 3, 4, 6, 101, 150)


@st.composite
def tie_heavy_workloads(draw) -> Workload:
    """Up to 12 processes arriving at 0..4 with priorities 0..1; pis and input order shuffled."""
    row = st.tuples(st.integers(0, 4), st.sampled_from(TIE_SERVICE_TIMES), st.integers(0, 1))
    rows = draw(st.lists(row, max_size=12))
    pis = draw(st.permutations(range(1, len(rows) + 1)))
    procs = [Process(pi, it, service, pr=PriorityPair(prio, 0)) for pi, (it, service, prio) in zip(pis, rows)]
    return Workload(tuple(draw(st.permutations(procs))))


@given(tie_heavy_workloads())
def test_drawn_ties_follow_the_brute_force_rule(w):
    """The oracle's events are the brute-force rule's under every policy, on drawn tie-heavy workloads.

    No settings of its own, so ``conftest.py``'s profile applies, as in
    ``test_reference_kernel.py``.
    """
    for policy in Policy:
        assert _oracle_events(w, policy) == reference_schedule(w, policy), policy


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


#: The ranges ``random_workload`` is called with: its defaults, then those of the tests' corpora.
DRAW_RANGES = [
    {},
    {"max_n": 20},
    {"max_n": 12, "max_it": 30, "max_st": 8},
    {"min_n": 6, "max_n": 30, "max_it": 8, "max_st": 3},
    {"min_n": 0, "max_n": 2},
]
#: ``workload_digest()``: any change to what ``random_workload`` draws, or to
#: the order of its draws, changes it. ``fuzz --seed`` replays and the
#: benchmark's ``fuzz-small`` cases depend on both.
DRAWS_DIGEST = "cd000aa75a1d4213c53a94b9508ad18b79877e0d3c449eee42b19b28f98e23ef"


def workload_digest(oracle_mod, seeds: int = 100) -> str:
    """SHA-256 of ``builtin_paper_workload()`` and of ``seeds`` random workloads per range set.

    Each workload gives the ``repr`` of its processes and its JSON and CSV
    serializations, each text ended by a NUL byte.
    """
    h = hashlib.sha256()
    drawn = [oracle_mod.random_workload(random.Random(s), **r) for r in DRAW_RANGES for s in range(seeds)]
    for w in [builtin_paper_workload()] + drawn:
        for text in (repr(w.processes), serialize_workload(w, "json"), serialize_workload(w, "csv")):
            h.update(text.encode() + b"\0")
    return h.hexdigest()


def draws_are_pinned(oracle_mod) -> None:
    """``random_workload`` draws what it drew before, in the same order."""
    assert workload_digest(oracle_mod) == DRAWS_DIGEST


class TestGenerator:
    def test_draws_match_the_pinned_digest(self):
        draws_are_pinned(oracle_module)

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
