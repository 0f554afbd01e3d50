import codecs
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpnsched import (
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


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_hrrn_json_golden(self, capsys):
        code, out, _ = invoke(capsys, "run", "--policy", "hrrn", "--workload", "paper-table1", "--format", "json")
        assert code == 0
        assert json.loads(out) == HRRN_EXPECTED

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
            result, trace = compute_metrics(state, w, policy), trace_records(state.trace)
            doc = cli.result_json_doc(result)
            doc["trace"] = trace
            assert cli.result_json_text(result, trace) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("engine", ["cpn", "oracle"])
    @pytest.mark.parametrize(
        "text",
        ["[]", '[{"pi": 1, "it": %d, "st": %d}]' % (2**1022, 2**1021)],
        ids=["empty", "huge"],
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

    @pytest.mark.parametrize("policy", list(Policy))
    def test_trace_run_prints_json_dumps(self, capsys, policy):
        code, out, err = invoke(capsys, "run", "--policy", policy.value, "--trace")
        assert code == 0, err
        w = builtin_paper_workload()
        state = simulate(w, policy)
        doc = cli.result_json_doc(compute_metrics(state, w, policy))
        doc["trace"] = trace_records(state.trace)
        assert out == json.dumps(doc, indent=2) + "\n"


class TestErrorPaths:
    def test_unknown_policy_exits_1_and_lists_valid(self, capsys):
        code, _, err = invoke(capsys, "run", "--policy", "bogus")
        assert code == 1
        assert "fcfs, sjf, pr, hrrn" in err

    def test_missing_workload_file_exits_1(self, capsys):
        code, _, err = invoke(capsys, "run", "--policy", "fcfs", "--workload", "no/such/file.json")
        assert code == 1
        assert "cannot read workload file" in err

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

    def test_step_limit_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--step-limit", "3"])
        assert exit_info.value.code == 1
        assert "--step-limit" in capsys.readouterr().err

    def test_oracle_trace_is_a_usage_error(self, capsys):
        # The oracle fires no transitions, so it has no trace to print.
        for fmt in ("json", "table", "gantt-csv"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["run", "--engine", "oracle", "--trace", "--format", fmt])
            assert exit_info.value.code == 1, fmt
            captured = capsys.readouterr()
            assert "--trace" in captured.err and "--engine oracle" in captured.err, captured.err
            assert captured.out == "", fmt

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
