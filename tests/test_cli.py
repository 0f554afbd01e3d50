import codecs
import contextlib
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpnsched import (
    FiringEvent,
    Policy,
    PriorityPair,
    Process,
    StepLimitExceeded,
    Workload,
    build_net,
    builtin_paper_workload,
    compute_metrics,
    oracle_schedule,
    parse_workload,
    result_from_processes,
    run,
    sched,
    serialize_workload,
    simulate,
    trace_records,
)
from tcpnsched import cli

from helpers import ENTRIES, JSON_VALUES, VALID_ARRAYS, csv_texts, json_text, odd_trace, run_on_closed_pipe
from test_acceptance import scale_workload

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def child_env() -> dict:
    """The environment for a child Python that imports this checkout's package."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

HRRN_EXPECTED = {
    "policy": "hrrn",
    "makespan": 19,
    "lead_in": 1,
    "total_idle": 1,
    "idle": [[4, 5]],
    "processes": [
        {"pi": 6, "it": 1, "st": 3, "wt": 0, "es": 1, "finish": 4, "turnaround": 3, "pr": [100, 0]},
        {"pi": 4, "it": 5, "st": 2, "wt": 0, "es": 5, "finish": 7, "turnaround": 2, "pr": [100, 0]},
        {"pi": 1, "it": 6, "st": 4, "wt": 1, "es": 7, "finish": 11, "turnaround": 5, "pr": [125, 0]},
        {"pi": 3, "it": 8, "st": 2, "wt": 3, "es": 11, "finish": 13, "turnaround": 5, "pr": [250, 0]},
        {"pi": 2, "it": 7, "st": 3, "wt": 6, "es": 13, "finish": 16, "turnaround": 9, "pr": [300, 0]},
        {"pi": 5, "it": 9, "st": 3, "wt": 7, "es": 16, "finish": 19, "turnaround": 10, "pr": [333, 0]},
    ],
    "aggregates": {
        "avg_waiting": 17 / 6,
        "avg_turnaround": 34 / 6,
        "total_idle": 1,
        "utilization": 17 / 18,
    },
}


#: 200 processes 100 ticks apart, each shorter than its gap: 199 idle intervals.
GAPS = json.dumps([{"pi": i, "it": 100 * i, "st": 1 + i % 50} for i in range(1, 201)])


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: In-process calls that each set options the others leave at their defaults:
#: ``run`` under both engines, every format and each policy, with and without
#: a trace, then each other command and each way out of ``main``.
SEQUENCE = [
    *(
        ("run", "--engine", "cpn", "--format", fmt, "--policy", policy.value, *trace)
        for fmt, policy in zip(("json", "table", "gantt-csv"), Policy)
        for trace in ((), ("--trace",))
    ),
    *(("run", "--engine", "oracle", "--format", fmt) for fmt in ("json", "table", "gantt-csv")),
    ("run", "--policy", "hrrn", "--engine", "oracle"),
    ("compare", "--policy", "pr"),
    ("compare",),
    ("fuzz", "--seed", "1", "--count", "2"),
    ("run", "--policy", "bogus"),
    ("run", "--format", "bogus"),
    ("run", "--engine", "oracle", "--trace"),
    ("run", "--help"),
    ("run",),
]


def outcomes(main, sequence) -> dict:
    """Each argv's exit code, stdout and stderr when ``main`` runs ``sequence`` in order, in this process.

    An exception other than ``SystemExit`` that escapes ``main`` fails the
    check by assertion, so a mutant that raises dies as one that prints
    wrongly does.
    """
    seen = {}
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
            except Exception as e:
                raise AssertionError(f"{argv} raised {e!r}") from e
        seen[argv] = (code, out.getvalue(), err.getvalue())
    return seen


def step_limit_flag_is_a_usage_error(cli_module) -> None:
    """``run --step-limit 3`` exits 1, as argparse reports an unknown option, under the top-level usage."""
    (code, out, err), = outcomes(cli_module.main, [("run", "--step-limit", "3")]).values()
    assert (code, out) == (1, "")
    assert err.startswith("usage: tcpnsched [-h]"), err
    assert err.splitlines()[-1] == "tcpnsched: error: unrecognized arguments: --step-limit 3"


def oracle_trace_is_a_usage_error(cli_module) -> None:
    """``run --engine oracle --trace`` exits 1 naming both options, in every format: the oracle fires nothing."""
    argvs = [("run", "--engine", "oracle", "--trace", "--format", fmt) for fmt in ("json", "table", "gantt-csv")]
    for argv, (code, out, err) in outcomes(cli_module.main, argvs).items():
        assert (code, out) == (1, ""), argv
        assert err.splitlines()[-1] == "tcpnsched: error: argument --trace: not allowed with argument --engine oracle"


def csv_suffix_in_any_case(cli_module) -> None:
    """A workload file named ``W.CSV`` is read as CSV: its base name's suffix counts, in any case."""
    table1 = builtin_paper_workload()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "W.CSV")
        with open(path, "w", encoding="utf-8") as f:
            f.write(serialize_workload(table1, "csv"))
        try:
            processes = cli_module._load_workload(path).processes
        except cli_module.WorkloadError as e:
            raise AssertionError(f"W.CSV gave {e}") from e
    assert processes == table1.processes


#: Command lines on which ``cli._parse`` must do what the top-level parser's ``parse_args`` does.
ARGV_GRID = [
    # Every option of each subcommand, as "--opt v" and as "--opt=v".
    ("run", "--workload", "w.json", "--policy", "sjf", "--engine", "oracle", "--format", "table", "--trace"),
    ("run", "--workload=w.json", "--policy=sjf", "--engine=oracle", "--format=table", "--trace"),
    ("compare", "--workload", "w.csv", "--policy", "pr"),
    ("compare", "--workload=w.csv", "--policy=pr"),
    ("fuzz", "--seed", "3", "--count", "2"),
    ("fuzz", "--seed=3", "--count=2"),
    ("run",),
    ("compare",),
    # A repeated option, abbreviations, and a value given to a flag.
    ("run", "--policy", "sjf", "--policy", "pr"),
    ("run", "--pol", "sjf"),
    ("run", "--eng", "oracle"),
    ("run", "--trace=1"),
    # Help after the command.
    *((command, flag) for command in ("run", "compare", "fuzz") for flag in ("-h", "--help")),
    ("run", "--policy", "sjf", "-h", "--bogus"),
    # An unknown option and a stray positional.
    ("run", "--bogus"),
    ("run", "--bogus", "1", "--policy", "sjf"),
    ("run", "extra"),
    ("compare", "extra", "more"),
    ("fuzz", "--seed", "1", "extra"),
    # "--" first, in the middle and last.
    ("--", "run"),
    ("run", "--", "--policy", "sjf"),
    ("run", "--policy", "sjf", "--"),
    ("run", "--"),
    ("fuzz", "--seed", "1", "--", "--count", "2"),
    # An option without its value, a bad choice, a missing required option.
    ("run", "--policy"),
    ("run", "--workload", "--trace"),
    ("run", "--engine", "bogus"),
    ("run", "--format", "bogus"),
    ("fuzz", "--count", "1"),
    ("fuzz", "--seed", "x"),
    ("fuzz", "--workload", "x"),
    # No subcommand first: the whole argv.
    ("RUN",),
    ("ru",),
    ("-h",),
    ("--help",),
    (),
    ("--policy", "sjf", "run"),
]


def parsed(parse, argv):
    """``vars`` of the ``Namespace`` that ``parse(argv)`` returns, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGV_GRID, ids=lambda argv: " ".join(argv) or "(empty)")
def test_parse_is_the_top_level_parse(argv):
    assert parsed(cli._parse, argv) == parsed(cli.build_parser().parse_args, argv)


def calls_are_independent(cli_module) -> None:
    """``SEQUENCE`` gives the same outcome per argv run forward and reversed, and a trace only when asked."""
    forward = outcomes(cli_module.main, SEQUENCE)
    assert outcomes(cli_module.main, SEQUENCE[::-1]) == forward
    assert [code for code, _, _ in forward.values()].count(1) == 3
    for argv, (code, out, _) in forward.items():
        assert ('"transition"' in out) == ("--trace" in argv and code == 0), argv


def collector_is_left_as_found(cli_module) -> None:
    """``main`` leaves the cyclic collector on, or off, as it found it, on every way out.

    The ways out: exit 0 from each command; exit 1 from a bad workload file
    and from ``fuzz --count -1``; exit 2 from a layer that raises; and a
    ``KeyboardInterrupt`` from a layer, which ``main`` lets through. The
    check puts back the collector's state itself, so a mutant that leaves it
    off does not leave it off for the tests that follow.
    """

    def fault(*args):
        raise ZeroDivisionError("simulated bug")

    def interrupt(*args):
        raise KeyboardInterrupt

    was, real = gc.isenabled(), cli_module.compute_metrics
    with tempfile.TemporaryDirectory() as folder:
        bad = os.path.join(folder, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write('[{"pi": 1, "it": 0, "st": 1, "wt": 0}]')
        calls = [
            (["run"], None, 0),
            (["compare"], None, 0),
            (["fuzz", "--seed", "1", "--count", "2"], None, 0),
            (["run", "--workload", bad], None, 1),
            (["fuzz", "--seed", "1", "--count", "-1"], None, 1),
            (["run"], fault, 2),
            (["run"], interrupt, KeyboardInterrupt),
        ]
        try:
            for enabled in (True, False):
                for argv, layer, expected in calls:
                    gc.enable() if enabled else gc.disable()
                    cli_module.compute_metrics = layer or real
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = cli_module.main(argv)
                        except KeyboardInterrupt:
                            code = KeyboardInterrupt
                    assert (code, gc.isenabled()) == (expected, enabled), (argv, layer)
        finally:
            cli_module.compute_metrics = real
            gc.enable() if was else gc.disable()


def table_and_gantt_agree_with_document(cli_module) -> None:
    """On paper-table1 and ``GAPS`` under each policy, the table and the Gantt rows carry the document's times.

    Each table row has the ``finish`` and ``turnaround`` of the JSON
    document's entry for its ``pi``, and each Gantt ``run`` row its ``es`` and
    ``finish``.
    """
    for w in (builtin_paper_workload(), parse_workload(GAPS)):
        for policy in Policy:
            result = compute_metrics(simulate(w, policy, trace=False), w, policy)
            doc = {entry["pi"]: entry for entry in json.loads(cli_module.result_json_text(result))["processes"]}
            lines = cli_module._result_table(result).splitlines()
            # The rows lie between the rule under the header and the next rule.
            rows = [line.split() for line in lines[3 : lines.index(lines[2], 3)]]
            assert sorted(int(row[0]) for row in rows) == sorted(doc), policy
            for pi, _, _, _, _, finish, turnaround, _ in rows:
                entry = doc[int(pi)]
                assert (int(finish), int(turnaround)) == (entry["finish"], entry["turnaround"]), (policy, pi)
            runs = [line.split(",")[1:] for line in cli_module.gantt_csv(result).splitlines() if line.startswith("run,")]
            assert sorted(int(pi) for pi, _, _ in runs) == sorted(doc), policy
            for pi, start, finish in runs:
                entry = doc[int(pi)]
                assert (int(start), int(finish)) == (entry["es"], entry["finish"]), (policy, pi)


def tuple_names_print_as_json_dumps(cli_module) -> None:
    """Trace names ``(0,)`` and ``(False,)``, equal but printed apart, are written as ``json.dumps`` writes them.

    Both in one trace, in either order, and in two calls one after the
    other, since the trace layouts are kept from call to call.
    """
    table1 = builtin_paper_workload()
    result = compute_metrics(simulate(table1, Policy.SJF, trace=False), table1, Policy.SJF)
    zero, false = FiringEvent((0,), 1, {}), FiringEvent((False,), 2, {})
    for trace in ([zero, false], [false, zero], [zero], [false]):
        doc = cli_module.result_json_doc(result)
        doc["trace"] = trace_records(trace)
        assert cli_module.result_json_text(result, trace) == json.dumps(doc, indent=2), trace


class TestRun:
    def test_hrrn_json_golden(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "hrrn", "--workload", "paper-table1", "--format", "json")
        assert code == 0
        assert json.loads(out) == HRRN_EXPECTED
        # Parsed dicts ignore key order; the text pins the order the README documents.
        assert out == json.dumps(HRRN_EXPECTED, indent=2) + "\n"

    def test_json_output_is_byte_stable(self, capsys):
        _, first, _ = invoke(capsys, "run", "--policy", "hrrn", "--format", "json")
        _, second, _ = invoke(capsys, "run", "--policy", "hrrn", "--format", "json")
        assert first == second

    def test_fcfs_gantt_csv(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "fcfs", "--workload", "paper-table1", "--format", "gantt-csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kind,pi,start,finish"
        assert len(lines) == 8  # 6 run rows + 1 idle row
        assert "idle,,4,5" in lines

    def test_table_format(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "sjf", "--format", "table")
        assert code == 0
        assert "makespan: 19" in out

    def test_table_and_gantt_agree_with_document(self):
        table_and_gantt_agree_with_document(cli)

    def test_trace_embedded_in_json(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "fcfs", "--format", "json", "--trace")
        doc = json.loads(out)
        assert code == 0
        assert doc["trace"], "trace must be present and non-empty"
        assert set(doc["trace"][0]) == {"t", "transition", "detail"}

    def test_fcfs_trace_on_paper_table1(self, capsys):
        argv = ("run", "--policy", "fcfs", "--workload", "paper-table1", "--format", "json", "--trace")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        fired = [(r["t"], r["transition"], r["detail"]) for r in json.loads(out)["trace"]]
        assert fired == [
            (0, "Idle", {"idle_until": 1}),
            (1, "Activate", {"activated": [6]}),
            (1, "Dispatch", {"dispatched": 6, "wt": 0, "pr": [1, 0]}),
            (1, "Execute", {"executed": 6, "start": 1, "finish": 4}),
            (4, "Idle", {"idle_until": 5}),
            (5, "Activate", {"activated": [4]}),
            (5, "Dispatch", {"dispatched": 4, "wt": 0, "pr": [5, 0]}),
            (5, "Execute", {"executed": 4, "start": 5, "finish": 7}),
            (7, "Activate", {"activated": [1, 2]}),
            (7, "Dispatch", {"dispatched": 1, "wt": 1, "pr": [6, 0]}),
            (7, "Execute", {"executed": 1, "start": 7, "finish": 11}),
            (11, "Activate", {"activated": [3, 5]}),
            (11, "Dispatch", {"dispatched": 2, "wt": 4, "pr": [7, 0]}),
            (11, "Execute", {"executed": 2, "start": 11, "finish": 14}),
            (14, "Dispatch", {"dispatched": 3, "wt": 6, "pr": [8, 0]}),
            (14, "Execute", {"executed": 3, "start": 14, "finish": 16}),
            (16, "Dispatch", {"dispatched": 5, "wt": 7, "pr": [9, 0]}),
            (16, "Execute", {"executed": 5, "start": 16, "finish": 19}),
        ]

    def test_no_trace_event_is_built_unless_asked(self, capsys, monkeypatch):
        from tcpnsched import kernel

        built = []
        real = kernel.FiringEvent

        def counting(*fields):
            built.append(fields)
            return real(*fields)

        monkeypatch.setattr(kernel, "FiringEvent", counting)
        for argv in (
            ("run", "--format", "json"),
            ("run", "--format", "table"),
            ("compare",),
            ("fuzz", "--seed", "1", "--count", "2"),
        ):
            code, _, _ = invoke(capsys, *argv)
            assert code == 0 and built == [], argv
        code, out, _ = invoke(capsys, "run", "--trace")
        assert code == 0
        assert [fields[0] for fields in built] == [r["transition"] for r in json.loads(out)["trace"]]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_trace_activates_a_tie_by_index_then_idles_to_the_next_arrival(self, capsys, tmp_path, policy):
        # Three processes arrive together, listed out of pi order, then a gap.
        path = tmp_path / "tie.json"
        path.write_text(
            '[{"pi": 7, "it": 3, "st": 2}, {"pi": 2, "it": 3, "st": 1},'
            ' {"pi": 9, "it": 20, "st": 1}, {"pi": 5, "it": 3, "st": 1}]'
        )
        argv = ("run", "--policy", policy.value, "--workload", str(path), "--format", "json", "--trace")
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        trace = json.loads(out)["trace"]
        fired = [(r["t"], r["transition"], r["detail"]) for r in trace if r["transition"] in ("Activate", "Idle")]
        assert fired == [
            (0, "Idle", {"idle_until": 3}),
            (3, "Activate", {"activated": [2, 5, 7]}),
            (7, "Idle", {"idle_until": 20}),
            (20, "Activate", {"activated": [9]}),
        ]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_oracle_engine_matches_cpn_engine(self, capsys, policy):
        _, cpn, _ = invoke(capsys, "run", "--policy", policy.value, "--engine", "cpn")
        _, orc, _ = invoke(capsys, "run", "--policy", policy.value, "--engine", "oracle")
        assert json.loads(cpn) == json.loads(orc)

    def test_policy_is_case_insensitive(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "HRRN")
        assert code == 0 and json.loads(out)["policy"] == "hrrn"

    def test_workload_files(self, capsys, tmp_path, table1):
        for fmt, suffix in (("json", ".json"), ("csv", ".csv")):
            # A leading UTF-8 byte-order mark is accepted in either format.
            for bom in (b"", codecs.BOM_UTF8):
                path = tmp_path / f"w{suffix}"
                path.write_bytes(bom + serialize_workload(table1, fmt).encode())
                code, out, err = invoke(capsys, "run", "--policy", "fcfs", "--workload", str(path))
                assert code == 0, err
                assert json.loads(out)["makespan"] == 19

    def test_csv_suffix_in_any_case(self):
        csv_suffix_in_any_case(cli)

    def test_other_names_are_read_as_json(self, capsys, tmp_path, table1):
        # Only the base name's own suffix counts: not a folder's, and no suffix is JSON.
        (tmp_path / "d.csv").mkdir()
        for path in (tmp_path / "d.csv" / "w.json", tmp_path / "noext"):
            path.write_text(serialize_workload(table1, "json"), encoding="utf-8")
            code, out, err = invoke(capsys, "run", "--workload", str(path))
            assert (code, err) == (0, ""), path
            assert json.loads(out)["makespan"] == 19

    def test_long_idle_gap_finishes_within_the_default_step_limit(self, capsys, tmp_path):
        # Idle jumps to the next arrival, so a 5,000,000-tick gap costs one firing.
        path = tmp_path / "gap.json"
        path.write_text('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 5000000, "st": 1}]')
        code, cpn, err = invoke(capsys, "run", "--workload", str(path))
        assert code == 0, err
        _, orc, _ = invoke(capsys, "run", "--workload", str(path), "--engine", "oracle")
        assert cpn == orc
        assert json.loads(cpn)["idle"] == [[1, 5000000]]

    def test_default_step_budget_covers_the_4n_bound(self, capsys, tmp_path, monkeypatch):
        # A chain with it=2i+1 and st=1 takes exactly 4n firings: Idle,
        # Activate, Dispatch and Execute per process. simulate's budget is
        # that bound, no more, and the CLI runs with it.
        budgets = []
        real_run = sched.run

        def recording_run(net, initial, step_limit):
            budgets.append(step_limit)
            return real_run(net, initial, step_limit)

        monkeypatch.setattr(sched, "run", recording_run)
        n = 2_500
        w = Workload(tuple(Process(pi=i + 1, it=2 * i + 1, st=1) for i in range(n)))
        assert len(simulate(w, Policy.FCFS).trace) == 4 * n
        assert budgets == [4 * n]
        path = tmp_path / "chain.json"
        path.write_text(serialize_workload(w, "json"))
        code, _, err = invoke(capsys, "run", "--workload", str(path))
        assert code == 0, err
        assert budgets == [4 * n, 4 * n]
        # The chain uses the whole budget: one firing fewer is not enough.
        sn = build_net(w, Policy.FCFS)
        with pytest.raises(StepLimitExceeded, match=f"did not halt within {4 * n - 1} firings"):
            run(sn.net, sn.initial_state(), step_limit=4 * n - 1)


@st.composite
def workloads(draw) -> Workload:
    n = draw(st.integers(0, 8))
    times = st.one_of(st.integers(0, 30), st.integers(2**63, 2**64))
    services = st.one_of(st.integers(1, 20), st.just(2**62))
    procs = [
        Process(pi=pi, it=draw(times), st=draw(services), pr=PriorityPair(draw(st.integers(0, 5)), 0))
        for pi in draw(st.permutations(range(1, n + 1)))
    ]
    return Workload(tuple(procs), name="writer")


class TestJsonWriter:
    """``run --format json`` prints ``json.dumps(result_json_doc(result), indent=2)`` byte for byte."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(workloads())
    def test_writer_is_json_dumps_on_drawn_workloads(self, w):
        for policy in Policy:
            for result in (
                compute_metrics(simulate(w, policy), w, policy),
                result_from_processes(oracle_schedule(w, policy), w, policy),
            ):
                assert cli.result_json_text(result) == json.dumps(cli.result_json_doc(result), indent=2)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(workloads())
    def test_trace_writer_is_json_dumps_on_drawn_workloads(self, w):
        for policy in Policy:
            state = simulate(w, policy)
            result = compute_metrics(state, w, policy)
            doc = cli.result_json_doc(result)
            doc["trace"] = trace_records(state.trace)
            assert cli.result_json_text(result, state.trace) == json.dumps(doc, indent=2)

    def test_trace_writer_is_json_dumps_on_shapes_the_net_never_makes(self, table1):
        result = compute_metrics(simulate(table1, Policy.SJF), table1, Policy.SJF)
        trace = odd_trace()
        doc = cli.result_json_doc(result)
        doc["trace"] = trace_records(trace)
        assert cli.result_json_text(result, trace) == json.dumps(doc, indent=2)

    def test_trace_writer_tells_apart_names_whose_items_print_apart(self):
        tuple_names_print_as_json_dumps(cli)

    @pytest.mark.parametrize(
        "event, key",
        [
            (FiringEvent("Fork", 0, {"a": 1, "k": True}), "k"),
            (FiringEvent("Fork", 0, {"k": "7"}), "k"),
            (FiringEvent("Fork", 0, {"k": [1, False]}), "k"),
            (FiringEvent("Fork", True, {}), "t"),
        ],
        ids=["bool", "str", "bool-in-list", "bool-t"],
    )
    def test_trace_writer_rejects_values_it_would_write_wrongly(self, table1, event, key):
        result = compute_metrics(simulate(table1, Policy.SJF), table1, Policy.SJF)
        with pytest.raises(TypeError, match=f"trace record of 'Fork': '{key}' is "):
            cli.result_json_text(result, [FiringEvent("Idle", 1, {"idle_until": 2}), event])

    @pytest.mark.parametrize("engine", ["cpn", "oracle"])
    @pytest.mark.parametrize(
        "text",
        ["[]", '[{"pi": 1, "it": %d, "st": %d}]' % (2**1022, 2**1021), GAPS],
        ids=["empty", "huge", "gaps"],
    )
    def test_run_prints_json_dumps(self, capsys, tmp_path, engine, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        w = parse_workload(text)
        for policy in Policy:
            argv = ("run", "--workload", str(path), "--policy", policy.value, "--engine", engine)
            code, out, err = invoke(capsys, *argv)
            assert code == 0, err
            if engine == "cpn":
                result = compute_metrics(simulate(w, policy), w, policy)
            else:
                result = result_from_processes(oracle_schedule(w, policy), w, policy)
            assert out == json.dumps(cli.result_json_doc(result), indent=2) + "\n"
            if not w.processes:
                assert '\n  "processes": [],\n' in out
            assert len(result.idle_intervals) == (199 if text == GAPS else 0)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_trace_run_prints_json_dumps(self, capsys, tmp_path, policy):
        path = tmp_path / "w.json"
        for text in (None, "[]", GAPS):
            if text is not None:
                path.write_text(text)
            source = "paper-table1" if text is None else str(path)
            code, out, err = invoke(capsys, "run", "--workload", source, "--policy", policy.value, "--trace")
            assert code == 0, err
            w = builtin_paper_workload() if text is None else parse_workload(text)
            state = simulate(w, policy)
            doc = cli.result_json_doc(compute_metrics(state, w, policy))
            doc["trace"] = trace_records(state.trace)
            assert out == json.dumps(doc, indent=2) + "\n"
            if text == "[]":
                for empty in ('"idle": []', '"processes": []', '"aggregates": null', '"trace": []'):
                    assert f"\n  {empty}" in out


class TestErrorPaths:
    def test_unknown_policy_exits_1_and_lists_valid(self, capsys):
        code, _, err = invoke(capsys, "run", "--policy", "bogus")
        assert code == 1
        assert "fcfs, sjf, pr, hrrn" in err

    def test_missing_workload_file_exits_1(self, capsys, tmp_path):
        # A directory and the empty path cannot be read either.
        for source in ("no/such/file.json", str(tmp_path), ""):
            code, out, err = invoke(capsys, "run", "--policy", "fcfs", "--workload", source)
            assert (code, out) == (1, ""), source
            assert err.startswith(f"error: cannot read workload file {source!r}: ") and err.count("\n") == 1, err

    def test_malformed_workload_exits_1(self, capsys, tmp_path):
        huge = "9" * 5_000
        cases = (
            ("bad.json", '[{"pi": 1, "it": 0, "st": 0}]', "service time"),
            # Beyond Python's cap on the digits of an int parsed from text.
            ("digits.json", f'[{{"pi": 1, "it": {huge}, "st": 1}}]', "more than 4300 digits"),
            ("digits.csv", f"pi,it,st\n1,{huge},1\n", "more than the limit of 4300"),
            # Parses, but the averages would not fit a float.
            ("float.json", f'[{{"pi": 1, "it": 0, "st": {10**400}}}]', "below 2**1023"),
            # Deeper than json.loads can recurse.
            ("deep5k.json", "[" * 5_000 + "]" * 5_000, "nested too deeply"),
            ("deep100k.json", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
            # A repeated key or column would otherwise keep its last value.
            ("dup.json", '[{"pi": 1, "it": 0, "st": 5, "st": 7}]', "entry 0: duplicate field 'st'"),
            ("dup.csv", "pi,it,st,st\n1,0,5,7\n", "line 1: duplicate column 'st'"),
            # Beyond the csv module's cell size limit of 131,072 characters.
            ("wide.csv", f"pi,it,st\n1,0,{'9' * 200_000}\n", "line 2: field larger than field limit"),
            # int() reads both of these; JSON takes neither.
            ("underscore.csv", "pi,it,st\n1,0,1_0\n", "must be an integer, got '1_0'"),
            ("arabic.csv", "pi,it,st\n1,0,\u0663\n", "must be an integer, got '\u0663'"),
        )
        for name, text, message in cases:
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            for argv in (("run", "--engine", "cpn"), ("run", "--engine", "oracle"), ("compare",)):
                code, _, err = invoke(capsys, *argv, "--workload", str(path))
                assert code == 1, (name, argv)
                assert err.startswith("error:") and message in err, (name, argv, err)
                assert huge not in err, "the offending cell must not be echoed"

    def test_invalid_process_same_error_on_every_path(self, capsys, tmp_path):
        # The Workload rejects itself when parsed, before either engine runs.
        for name, text in (
            ("zero.json", '[{"pi": 1, "it": 0, "st": 0}]'),
            ("zero.csv", "pi,it,st\n1,0,0\n"),
        ):
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            for argv in (("run",), ("run", "--engine", "oracle"), ("compare",)):
                code, out, err = invoke(capsys, *argv, "--workload", str(path))
                assert (code, out, err) == (1, "", "error: process 1: service time must be >= 1\n"), (name, argv)

    def test_invariant_report_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "twins.json"
        path.write_text(json.dumps([{"pi": 1, "it": 0, "st": 0}] * 20_000))
        code, out, err = invoke(capsys, "run", "--workload", str(path))
        assert (code, out) == (1, "")
        assert len(err.encode()) < 1_000
        assert err.startswith("error: process 1: service time must be >= 1; duplicate index 1; ")
        assert err.endswith("; … and 39989 more\n")

    def test_step_limit_env_is_ignored(self, capsys, monkeypatch):
        # The budget is fixed at 4n; no environment variable reaches it.
        _, expected, _ = invoke(capsys, "run", "--policy", "fcfs")
        for raw in ("3", "soon", "-1"):
            monkeypatch.setenv("TCPN_STEP_LIMIT", raw)
            code, out, _ = invoke(capsys, "run", "--policy", "fcfs")
            assert code == 0 and out == expected, raw

    def test_step_limit_flag_is_a_usage_error(self):
        step_limit_flag_is_a_usage_error(cli)

    def test_oracle_trace_is_a_usage_error(self):
        oracle_trace_is_a_usage_error(cli)

    def test_usage_error_exits_1_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--format", "bogus"])
        assert exit_info.value.code == 1
        assert "--format" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--format" in capsys.readouterr().out

    def test_engine_error_exits_2(self, capsys, monkeypatch):
        def runaway(w, policy, trace=True):
            raise StepLimitExceeded(f"net 'scheduler-{policy.value}' did not halt within 0 firings")

        monkeypatch.setattr(cli, "simulate", runaway)
        for argv in (("run",), ("compare",)):
            code, out, err = invoke(capsys, *argv, "--policy", "sjf")
            assert code == 2, argv
            assert err.startswith("internal error:") and "did not halt" in err, (argv, err)
            assert out == ""

    def test_program_fault_exits_2(self, capsys, monkeypatch):
        # A fault in a layer other than the kernel is the program's, not the input's.
        def fault(*args):
            raise ZeroDivisionError("simulated bug")

        monkeypatch.setattr(cli, "compute_metrics", fault)
        code, out, err = invoke(capsys, "run")
        assert (code, out, err) == (2, "", "internal error: ZeroDivisionError: simulated bug\n")

    def test_unreadable_bytes_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff[]")
        code, out, err = invoke(capsys, "run", "--workload", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: workload source is not valid UTF-8"), err

    def test_main_module_imports_the_cli_main(self):
        # Imported here rather than run, so its module lines run in-process too.
        assert importlib.import_module("tcpnsched.__main__").main is cli.main

    def test_python_dash_m_runs_the_cli(self):
        for argv, code in ((("run",), 0), (("run", "--policy", "bogus"), 1)):
            done = subprocess.run(
                [sys.executable, "-m", "tcpnsched", *argv, "--workload", "paper-table1"],
                capture_output=True,
                env=child_env(),
                timeout=60,
            )
            assert done.returncode == code, (argv, done.stderr)
        assert done.stderr.startswith(b"error: unknown policy 'bogus'")

    def test_closed_output_pipe_exits_1_without_traceback(self, tmp_path):
        # Far more output than a pipe buffers, so the reader closes it early.
        burst = Workload(tuple(Process(pi=i, it=0, st=1 + i % 20) for i in range(1, 2001)))
        path = tmp_path / "burst.json"
        path.write_text(serialize_workload(burst), encoding="utf-8")
        child = subprocess.Popen(
            [sys.executable, "-m", "tcpnsched.cli", "run", "--workload", str(path), "--trace"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    def test_closed_output_pipe_leaves_no_descriptor_open(self, capsys):
        for _ in range(3):
            code, before, after = run_on_closed_pipe(cli.main)
            assert (code, after) == (1, before)
        assert capsys.readouterr().err == "error: output closed before it was all written\n" * 3

    def test_readme_names_every_cli_option(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # so no help line wraps inside a flag
        section = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
        readme_flags = set(re.findall(r"--[a-z][a-z-]*", section))
        help_flags = {}
        for command in ("run", "compare", "fuzz"):
            with pytest.raises(SystemExit):
                cli.main([command, "--help"])
            help_flags[command] = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        offered = set().union(*help_flags.values())
        assert readme_flags - offered == set(), "README names options no subcommand offers"
        for command, flags in help_flags.items():
            assert flags - readme_flags == set(), f"README does not name {command} options"


class TestInProcess:
    """``main`` called again and again in one process, as a program embedding the CLI does."""

    def test_calls_are_independent_of_their_order(self):
        calls_are_independent(cli)

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        assert cli.main(["run"]) == 0  # the first call in the process may build it
        built = []
        real_init = cli._Parser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        for policy in [*Policy, *Policy, Policy.FCFS, Policy.SJF]:  # ten calls
            assert cli.main(["run", "--policy", policy.value]) == 0
        assert built == []
        assert capsys.readouterr().err == ""

    def test_a_call_naming_its_command_skips_the_top_level_parse(self, monkeypatch):
        parser, passes = cli.build_parser(), []
        real = parser.parse_known_args

        def counting(*args, **kwargs):
            passes.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        for argv in (["run"], ["compare", "--policy", "pr"], ["fuzz", "--seed", "1", "--count", "1"]):
            assert cli.main(argv) == 0, argv
        assert passes == []
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert len(passes) == 1


def cyclic_garbage(argv) -> tuple[int, int]:
    """``main(argv)``'s exit code, and the objects it left that only a cyclic collection frees.

    The call runs with the collector paused. Objects that were there before
    it are frozen, so the count is the call's alone, and the collection that
    counts walks only what the call left.
    """
    was = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, gc.collect()
    finally:
        gc.unfreeze()
        if was:
            gc.enable()


class TestCollector:
    """``main`` pauses the cyclic collector for a command, which is safe because a command makes no cycles."""

    def test_main_leaves_the_collector_as_it_found_it(self):
        collector_is_left_as_found(cli)

    def test_commands_leave_no_cyclic_garbage(self, tmp_path):
        # If a command starts to leave cycles, this names it: it would then need the collector.
        cyclic_garbage(["run"])  # the first call in a process sets up what later calls reuse
        gaps, bad_field, bad_json = tmp_path / "gaps.json", tmp_path / "bad-field.json", tmp_path / "bad.json"
        gaps.write_text(GAPS, encoding="utf-8")
        bad_field.write_text('[{"pi": 1, "it": 0, "st": 1, "wt": 0}]', encoding="utf-8")
        bad_json.write_text('[{"pi": 1,', encoding="utf-8")
        calls = [
            *(
                (("run", "--workload", source, "--policy", policy.value, "--engine", engine, "--format", fmt), 0)
                for source in ("paper-table1", str(gaps))
                for policy in Policy
                for engine in ("cpn", "oracle")
                for fmt in ("json", "table", "gantt-csv")
            ),
            *((("compare", "--policy", policy.value), 0) for policy in Policy),
            (("fuzz", "--seed", "1", "--count", "30"), 0),
            (("run", "--workload", str(bad_field)), 1),
            (("run", "--workload", str(bad_json)), 1),
            (("run", "--workload", str(tmp_path / "missing.json")), 1),
            (("run", "--policy", "bogus"), 1),
            (("fuzz", "--seed", "1", "--count", "-1"), 1),
        ]
        for argv, code in calls:
            assert cyclic_garbage(argv) == (code, 0), argv

    def test_traced_json_garbage_does_not_grow_with_n(self, tmp_path):
        # Where json.dumps(..., indent=2) runs the pure-Python encoder, each
        # layout it makes leaves closures that refer to each other. Each trace
        # shape is laid out once per process, so after one traced call of the
        # same net's shapes, a traced call of any length leaves none.
        cyclic_garbage(["run", "--trace", "--format", "json"])
        for n in (500, 2_500):
            path = tmp_path / f"bursty-{n}.json"
            path.write_text(serialize_workload(scale_workload(n=n)), encoding="utf-8")
            assert cyclic_garbage(["run", "--workload", str(path), "--trace", "--format", "json"]) == (0, 0), n


class TestInputContract:
    """Any JSON or CSV text as a workload file: ``run`` exits 0 with a JSON document, or 1 with one ``error:`` line.

    A valid file exits 0 under every policy, and both engines print the same document.
    """

    @staticmethod
    def assert_exits_0_or_1(path) -> None:
        argvs = [("run", "--workload", str(path), "--engine", engine) for engine in ("cpn", "oracle")]
        seen = outcomes(cli.main, argvs)
        for argv, (code, out, err) in seen.items():
            if code == 0:
                assert err == "", argv
                json.loads(out)
            else:
                assert (code, out) == (1, ""), (argv, err)
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        cpn, oracle = seen.values()
        assert cpn == oracle

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.lists(ENTRIES, max_size=5) | JSON_VALUES)
    def test_any_json_file_exits_0_or_1(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "contract.json"
        path.write_text(json_text(value), encoding="utf-8")
        self.assert_exits_0_or_1(path)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(csv_texts())
    def test_any_csv_file_exits_0_or_1(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "contract.csv"
        # Text with a lone surrogate is a file that is not UTF-8, which is input too.
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        self.assert_exits_0_or_1(path)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(VALID_ARRAYS)
    def test_valid_file_exits_0_alike_under_both_engines(self, tmp_path_factory, value):
        path = tmp_path_factory.getbasetemp() / "valid.json"
        path.write_text(json_text(value), encoding="utf-8")
        for policy in Policy:
            argv = ("run", "--workload", str(path), "--policy", policy.value, "--engine")
            cpn, oracle = outcomes(cli.main, [(*argv, "cpn"), (*argv, "oracle")]).values()
            assert cpn[0] == 0 and cpn[2] == "", cpn
            assert oracle == cpn


class TestCompare:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_agreement_exits_0(self, capsys, policy):
        code, out, _ = invoke(capsys, "compare", "--policy", policy.value, "--workload", "paper-table1")
        assert code == 0
        assert "agree" in out

    def test_injected_fault_exits_2_with_divergence(self, capsys, monkeypatch):
        real = cli.oracle_schedule

        def skewed(w, policy):
            records = real(w, policy)
            return [records[0]._replace(es=records[0].es + 1)] + records[1:]

        monkeypatch.setattr(cli, "oracle_schedule", skewed)
        code, out, _ = invoke(capsys, "compare", "--policy", "fcfs")
        assert code == 2
        assert "pi=6" in out

    def test_program_fault_exits_2(self, capsys, monkeypatch):
        def fault(*args):
            raise KeyError("simulated bug")

        monkeypatch.setattr(cli, "oracle_schedule", fault)
        code, out, err = invoke(capsys, "compare")
        assert (code, out, err) == (2, "", "internal error: KeyError: 'simulated bug'\n")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = invoke(capsys, "compare", "--policy", "fcfs", "--workload", "missing.json")
        assert code == 1


class TestFuzz:
    def test_hundred_comparisons_pass(self, capsys):
        code, out, _ = invoke(capsys, "fuzz", "--seed", "42", "--count", "25")
        assert code == 0
        assert "100/100 comparisons passed" in out

    def test_count_zero_is_a_trivial_pass(self, capsys):
        code, out, _ = invoke(capsys, "fuzz", "--seed", "42", "--count", "0")
        assert code == 0
        assert "0/0 comparisons passed" in out
        # Below zero there is nothing to pass: the count is rejected.
        code, out, err = invoke(capsys, "fuzz", "--seed", "42", "--count", "-5")
        assert code == 1
        assert "--count" in err and out == ""

    def test_injected_fault_reports_seed(self, capsys, monkeypatch):
        real = cli.oracle_schedule

        def skewed(w, policy):
            records = real(w, policy)
            if w.name == "fuzz-9" and records:
                return [records[0]._replace(wt=records[0].wt + 1)] + records[1:]
            return records

        monkeypatch.setattr(cli, "oracle_schedule", skewed)
        code, out, _ = invoke(capsys, "fuzz", "--seed", "7", "--count", "5")
        assert code == 2
        assert "failing seeds: 9" in out

    def test_program_fault_exits_2(self, capsys, monkeypatch):
        def fault(*args, **kwargs):
            raise IndexError("simulated bug")

        monkeypatch.setattr(cli, "diff_results", fault)
        code, out, err = invoke(capsys, "fuzz", "--seed", "7", "--count", "5")
        assert (code, out, err) == (2, "", "internal error: IndexError: simulated bug\n")

    def test_workload_and_policy_are_usage_errors(self, capsys):
        # fuzz draws its own workloads and runs every policy.
        for flag, value in (("--workload", "/no/such.json"), ("--policy", "bogus")):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["fuzz", "--seed", "1", "--count", "2", flag, value])
            assert exit_info.value.code == 1
            captured = capsys.readouterr()
            assert flag in captured.err and captured.out == ""

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fuzz", "--count", "1"])
        assert exit_info.value.code == 1
        assert "--seed" in capsys.readouterr().err
