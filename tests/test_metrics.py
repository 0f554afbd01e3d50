import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcpnsched import (
    EngineError,
    Policy,
    PriorityPair,
    Process,
    Workload,
    compute_metrics,
    gantt_csv,
    oracle_schedule,
    result_from_processes,
    simulate,
)


@pytest.fixture
def fcfs_result(table1):
    return compute_metrics(simulate(table1, Policy.FCFS), table1, Policy.FCFS)


def gantt_rows(result):
    """The data rows of ``gantt_csv`` as (kind, pi, start, finish); pi is None for idle."""
    header, *lines = gantt_csv(result).splitlines()
    assert header == "kind,pi,start,finish"
    rows = []
    for line in lines:
        kind, pi, start, finish = line.split(",")
        rows.append((kind, int(pi) if pi else None, int(start), int(finish)))
    return rows


@pytest.fixture
def hrrn_result(table1):
    return compute_metrics(simulate(table1, Policy.HRRN), table1, Policy.HRRN)


class TestComputeMetrics:
    def test_fcfs_waiting_times(self, fcfs_result):
        waits = {p.pi: p.wt for p in fcfs_result.finished}
        assert waits == {6: 0, 4: 0, 1: 1, 2: 4, 3: 6, 5: 7}
        assert fcfs_result.aggregates.avg_waiting == 3

    def test_fcfs_idle_and_makespan(self, fcfs_result):
        assert fcfs_result.idle_intervals == ((4, 5),)
        assert fcfs_result.total_idle == 1
        assert fcfs_result.makespan == 19
        assert fcfs_result.lead_in == 1

    def test_idle_accounting_identity(self, fcfs_result):
        total_service = sum(p.st for p in fcfs_result.finished)
        assert fcfs_result.total_idle + total_service == fcfs_result.makespan - fcfs_result.lead_in

    def test_hrrn_turnarounds(self, hrrn_result):
        t = {p.pi: p.wt + p.st for p in hrrn_result.finished}
        assert t == {6: 3, 4: 2, 1: 5, 3: 5, 2: 9, 5: 10}

    def test_per_process_identities(self, hrrn_result, table1):
        arrivals = {p.pi: p.it for p in table1.processes}
        for p in hrrn_result.finished:
            finish = p.es + p.st
            assert p.wt + p.st == finish - arrivals[p.pi]

    def test_utilization(self, fcfs_result):
        assert fcfs_result.aggregates.utilization == 17 / 18

    def test_missing_process_is_an_integrity_error(self, table1):
        state = simulate(table1, Policy.FCFS)
        short = state.marking["Finished"].value[:-1]
        with pytest.raises(EngineError) as info:
            result_from_processes(short, table1, Policy.FCFS)
        assert str(info.value) == (
            "finished set does not match the workload: 5 records for 6 processes, "
            "first missing pi 5, first extra pi none"
        )

    def test_integrity_error_is_bounded(self):
        w = Workload(tuple(Process(pi=i, it=0, st=1) for i in range(1, 10_001)))
        records = oracle_schedule(w, Policy.FCFS)
        with pytest.raises(EngineError) as info:
            result_from_processes(records[:17] + records[18:], w, Policy.FCFS)
        assert str(info.value) == (
            "finished set does not match the workload: 9999 records for 10000 processes, "
            "first missing pi 18, first extra pi none"
        )

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_columns_match_the_per_record_rule(self, data):
        # Any start at or after arrival, overlapping runs included, in any order.
        n = data.draw(st.integers(1, 8))
        w = Workload(tuple(Process(pi, data.draw(st.integers(0, 30)), data.draw(st.integers(1, 9))) for pi in range(1, n + 1)))
        finished = [
            p._replace(es=p.it + data.draw(st.integers(0, 30)), wt=data.draw(st.integers(0, 40)))
            for p in data.draw(st.permutations(w.processes))
        ]
        result = result_from_processes(finished, w, Policy.FCFS)
        lead_in = min(p.it for p in w.processes)
        makespan = max(p.es + p.st for p in finished)
        idle = []
        cursor = lead_in
        for start, end in sorted((p.es, p.es + p.st) for p in finished):
            if start > cursor:
                idle.append((cursor, start))
            cursor = max(cursor, end)
        assert (result.finished, result.lead_in, result.makespan) == (tuple(finished), lead_in, makespan)
        assert result.idle_intervals == tuple(idle)
        assert result.aggregates.avg_waiting == sum(p.wt for p in finished) / n
        assert result.aggregates.avg_turnaround == sum(p.wt + p.st for p in finished) / n
        assert result.aggregates.utilization == sum(p.st for p in finished) / (makespan - lead_in)

    def test_empty_workload(self):
        w = Workload(())
        res = compute_metrics(simulate(w, Policy.SJF), w, Policy.SJF)
        assert res.makespan == 0
        assert res.aggregates is None
        assert res.idle_intervals == ()
        assert gantt_csv(res) == "kind,pi,start,finish\n"


class TestGantt:
    def test_fcfs_segments(self, fcfs_result):
        assert gantt_rows(fcfs_result) == [
            ("run", 6, 1, 4),
            ("idle", None, 4, 5),
            ("run", 4, 5, 7),
            ("run", 1, 7, 11),
            ("run", 2, 11, 14),
            ("run", 3, 14, 16),
            ("run", 5, 16, 19),
        ]

    def test_hrrn_tail_segments(self, hrrn_result):
        segs = [(pi, start, finish) for kind, pi, start, finish in gantt_rows(hrrn_result) if kind == "run"]
        assert segs[-3:] == [(3, 11, 13), (2, 13, 16), (5, 16, 19)]

    def test_segments_tile_lead_in_to_makespan(self, fcfs_result):
        segs = gantt_rows(fcfs_result)
        assert segs[0][2] == fcfs_result.lead_in
        assert segs[-1][3] == fcfs_result.makespan
        for a, b in zip(segs, segs[1:]):
            assert a[3] == b[2], "gantt must tile with no gap or overlap"

    def test_csv_rows(self, fcfs_result):
        lines = gantt_csv(fcfs_result).splitlines()
        assert lines[0] == "kind,pi,start,finish"
        assert len(lines) == 8
        assert "idle,,4,5" in lines


class TestOracleAdapter:
    @pytest.mark.parametrize("policy", list(Policy))
    def test_oracle_events_yield_same_result(self, table1, policy):
        engine = compute_metrics(simulate(table1, policy), table1, policy)
        via_oracle = result_from_processes(oracle_schedule(table1, policy), table1, policy)
        assert via_oracle.finished == engine.finished
        assert via_oracle.idle_intervals == engine.idle_intervals
        assert via_oracle.makespan == engine.makespan

    def test_unknown_pi_rejected(self, table1):
        records = oracle_schedule(table1, Policy.FCFS)
        bogus = records[:-1] + [Process(pi=99, it=0, st=1, wt=0, es=19, pr=PriorityPair(0, 0))]
        with pytest.raises(EngineError) as info:
            result_from_processes(bogus, table1, Policy.FCFS)
        assert str(info.value) == (
            "finished set does not match the workload: 6 records for 6 processes, "
            "first missing pi 5, first extra pi 99"
        )
        twice = records[:-1] + records[:1]
        with pytest.raises(EngineError) as info:
            result_from_processes(twice, table1, Policy.FCFS)
        assert str(info.value).endswith(f"first missing pi 5, first extra pi {records[0].pi}")

    def test_single_process_workload(self):
        w = Workload((Process(1, 3, 2),))
        res = compute_metrics(simulate(w, Policy.PR), w, Policy.PR)
        assert res.makespan == 5
        assert res.lead_in == 3
        assert res.idle_intervals == ()
        assert res.aggregates.utilization == 1.0
