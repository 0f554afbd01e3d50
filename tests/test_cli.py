import codecs
import dataclasses
import json

import pytest

from tcpnsched import Policy, Process, Workload, sched, serialize_workload, simulate
from tcpnsched import cli

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

    def test_long_idle_gap_finishes_within_the_default_step_limit(self, capsys, tmp_path, monkeypatch):
        # Idle jumps to the next arrival, so a 5,000,000-tick gap costs one firing.
        monkeypatch.delenv(cli.STEP_LIMIT_ENV, raising=False)
        path = tmp_path / "gap.json"
        path.write_text('[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 5000000, "st": 1}]')
        code, cpn, err = invoke(capsys, "run", "--workload", str(path))
        assert code == 0, err
        _, orc, _ = invoke(capsys, "run", "--workload", str(path), "--engine", "oracle")
        assert cpn == orc
        assert json.loads(cpn)["idle"] == [[1, 5000000]]

    def test_default_step_budget_covers_the_4n_bound(self, capsys, tmp_path, monkeypatch):
        # A chain with it=2i+1 and st=1 takes exactly 4n firings: Idle,
        # Activate, Dispatch and Execute per process. Lowering the 1,000,000
        # floor to 1,000 lets 2,500 processes stand in for 250,001. The CLI's
        # own copy of the name is lowered too, so the CLI cannot pass by
        # supplying a fixed default of its own.
        monkeypatch.delenv(cli.STEP_LIMIT_ENV, raising=False)
        monkeypatch.setattr(sched, "DEFAULT_STEP_LIMIT", 1_000)
        monkeypatch.setattr(cli, "DEFAULT_STEP_LIMIT", 1_000)
        n = 2_500
        w = Workload(tuple(Process(pi=i + 1, it=2 * i + 1, st=1) for i in range(n)))
        assert len(simulate(w, Policy.FCFS).trace) == 4 * n
        path = tmp_path / "chain.json"
        path.write_text(serialize_workload(w, "json"))
        code, _, err = invoke(capsys, "run", "--workload", str(path))
        assert code == 0, err
        # An explicit budget still wins, even below the bound.
        code, _, err = invoke(capsys, "run", "--workload", str(path), "--step-limit", str(4 * n - 1))
        assert code == 2
        assert f"did not halt within {4 * n - 1} firings" in err


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
            # Beyond the csv module's cell size limit of 131,072 characters.
            ("wide.csv", f"pi,it,st\n1,0,{'9' * 200_000}\n", "line 2: field larger than field limit"),
        )
        for name, text, message in cases:
            path = tmp_path / name
            path.write_text(text)
            for argv in (("run", "--engine", "cpn"), ("run", "--engine", "oracle"), ("compare",)):
                code, _, err = invoke(capsys, *argv, "--workload", str(path))
                assert code == 1, (name, argv)
                assert err.startswith("error:") and message in err, (name, argv, err)
                assert huge not in err, "the offending cell must not be echoed"

    def test_step_limit_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.STEP_LIMIT_ENV, "3")
        code, _, err = invoke(capsys, "run", "--policy", "fcfs")
        assert code == 2
        assert "did not halt within 3 firings" in err

    def test_step_limit_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.STEP_LIMIT_ENV, "3")
        code, _, _ = invoke(capsys, "run", "--policy", "fcfs", "--step-limit", "100000")
        assert code == 0

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

    def test_bad_step_limit_env_exits_1(self, capsys, monkeypatch):
        for raw in ("soon", "-1"):
            monkeypatch.setenv(cli.STEP_LIMIT_ENV, raw)
            code, _, err = invoke(capsys, "run", "--policy", "fcfs")
            assert code == 1
            assert cli.STEP_LIMIT_ENV in err
        code, _, err = invoke(capsys, "run", "--policy", "fcfs", "--step-limit", "-1")
        assert code == 1
        assert "--step-limit" in err


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
            return [dataclasses.replace(records[0], es=records[0].es + 1)] + records[1:]

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
                return [dataclasses.replace(records[0], wt=records[0].wt + 1)] + records[1:]
            return records

        monkeypatch.setattr(cli, "oracle_schedule", skewed)
        code, out, _ = invoke(capsys, "fuzz", "--seed", "7", "--count", "5")
        assert code == 2
        assert "failing seeds: 9" in out

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fuzz", "--count", "1"])
        assert exit_info.value.code == 1
        assert "--seed" in capsys.readouterr().err
