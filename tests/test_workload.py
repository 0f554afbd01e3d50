import copy
import io
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcpnsched import (
    Policy,
    PriorityPair,
    Process,
    Workload,
    WorkloadError,
    parse_workload,
    random_workload,
    serialize_workload,
)

from helpers import ENTRIES, JSON_VALUES, JsonObject, json_text, unchecked

TABLE1_JSON = json.dumps(
    [
        {"pi": 1, "it": 6, "st": 4, "priority": 2},
        {"pi": 2, "it": 7, "st": 3, "priority": 1},
        {"pi": 3, "it": 8, "st": 2, "priority": 2},
        {"pi": 4, "it": 5, "st": 2, "priority": 3},
        {"pi": 5, "it": 9, "st": 3, "priority": 1},
        {"pi": 6, "it": 1, "st": 3, "priority": 4},
    ]
)

#: Processes no workload may hold, and the message of the WorkloadError that building one raises.
BAD_WORKLOADS = {
    "service-floor": ((Process(1, 0, 0),), "process 1: service time must be >= 1"),
    "duplicate": ((Process(2, 0, 1), Process(2, 1, 1)), "duplicate index 2"),
    "stamped": ((Process(1, 0, 1, es=4),), "process 1: fresh workload must have es = 0"),
}


def rebuilds(workload_cls, procs, name=""):
    """Each way to build a ``workload_cls`` of ``procs`` anew, by name: its constructor, unpickling and copying.

    The three copies start from a workload built around the constructor,
    so they hold whatever ``procs`` holds.
    """
    forged = unchecked(workload_cls, procs, name)
    return {
        "constructor": lambda: workload_cls(procs, name),
        "unpickled": lambda: pickle.loads(pickle.dumps(forged)),
        "copied": lambda: copy.copy(forged),
        "deep-copied": lambda: copy.deepcopy(forged),
    }


def rebuilt_workloads_are_checked(workload_module) -> None:
    """Each way to build a workload anew raises the WorkloadError of each of ``BAD_WORKLOADS``.

    Any other outcome, another exception included, fails by assertion.
    """
    for procs, message in BAD_WORKLOADS.values():
        for way, build in rebuilds(workload_module.Workload, procs).items():
            try:
                build()
            except workload_module.WorkloadError as e:
                assert str(e) == message, way
            except Exception as e:
                raise AssertionError(f"{way} raised {e!r}") from e
            else:
                raise AssertionError(f"{way} built a workload of {procs}")


def reference_report(procs):
    """The invariant report of ``procs`` by the rule written process by process; None if valid."""
    violations = []
    seen = set()
    for p in procs:
        where = f"process {p.pi}"
        if p.pi < 1:
            violations.append(f"{where}: index must be >= 1")
        if p.pi in seen:
            violations.append(f"duplicate index {p.pi}")
        seen.add(p.pi)
        if p.it < 0:
            violations.append(f"{where}: negative arrival time {p.it}")
        if p.st < 1:
            violations.append(f"{where}: service time must be >= 1")
        if p.wt != 0:
            violations.append(f"{where}: fresh workload must have wt = 0")
        if p.es != 0:
            violations.append(f"{where}: fresh workload must have es = 0")
        if p.pr.minor != 0:
            violations.append(f"{where}: fresh workload must have minor priority 0")
    if procs and max(p.it for p in procs) + sum(p.st for p in procs) >= 2**1023:
        violations.append("latest possible finish max(it) + sum(st) must be below 2**1023")
    if not violations:
        return None
    report = "; ".join(violations[:10])
    return report + f"; … and {len(violations) - 10} more" if len(violations) > 10 else report


class TestBuiltin:
    def test_six_processes_in_index_order(self, table1):
        assert [p.pi for p in table1.processes] == [1, 2, 3, 4, 5, 6]

    def test_exact_values(self, table1):
        rows = [(p.pi, p.it, p.st, p.pr.major) for p in table1.processes]
        assert rows == [(1, 6, 4, 2), (2, 7, 3, 1), (3, 8, 2, 2), (4, 5, 2, 3), (5, 9, 3, 1), (6, 1, 3, 4)]

    def test_process_six(self, table1):
        p6 = table1.processes[5]
        assert (p6.it, p6.st, p6.pr) == (1, 3, PriorityPair(4, 0))

    def test_fresh_fields(self, table1):
        assert all(p.wt == 0 and p.es == 0 and p.pr.minor == 0 for p in table1.processes)

    def test_validates_clean(self, table1):
        assert Workload(table1.processes, name=table1.name) == table1


class TestValidate:
    """A Workload checks its processes when it is built; an invalid one never exists."""

    def test_duplicate_index(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(3, 0, 1), Process(3, 1, 1)))
        assert str(info.value) == "duplicate index 3"

    def test_negative_arrival(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, -1, 1),))
        assert str(info.value) == "process 1: negative arrival time -1"

    def test_service_time_floor(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, 0, 0),))
        assert str(info.value) == "process 1: service time must be >= 1"

    def test_index_floor(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(0, 0, 1),))
        assert str(info.value) == "process 0: index must be >= 1"

    def test_stale_run_fields(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, 0, 1, wt=2, es=3, pr=PriorityPair(0, 1)),))
        assert str(info.value) == (
            "process 1: fresh workload must have wt = 0; "
            "process 1: fresh workload must have es = 0; "
            "process 1: fresh workload must have minor priority 0"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"wt": None}, "process 1: fresh workload must have wt = 0"),
            ({"es": None}, "process 1: fresh workload must have es = 0"),
            ({"pr": PriorityPair(0, None)}, "process 1: fresh workload must have minor priority 0"),
        ],
        ids=["wt", "es", "minor-priority"],
    )
    def test_a_none_run_field_is_reported(self, fields, message):
        # None is falsy, so a check that only asks whether any field is set lets it through.
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, 0, 1, **fields),))
        assert str(info.value) == message

    def test_a_list_is_stored_as_a_tuple(self):
        # The processes are checked once, so they must not change afterwards.
        procs = [Process(1, 0, 1)]
        w = Workload(procs)
        assert w.processes == (Process(1, 0, 1),)
        procs.append(Process(1, 0, 0))
        assert len(w) == 1
        with pytest.raises(AttributeError):
            w.processes.append(Process(1, 0, 0))

    def test_latest_finish_must_fit_a_float(self):
        # max(it) + sum(st) bounds every finish time and so every average.
        fits = Workload((Process(1, 2**1022, 1), Process(2, 0, 2**1022 - 2)))
        assert len(fits) == 2
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, 2**1022, 1), Process(2, 0, 2**1022 - 1)))
        assert str(info.value) == "latest possible finish max(it) + sum(st) must be below 2**1023"

    def test_reports_are_complete(self):
        with pytest.raises(WorkloadError) as info:
            Workload((Process(1, -1, 0), Process(1, 0, 1)))
        violations = str(info.value).split("; ")
        assert violations == [
            "process 1: negative arrival time -1",
            "process 1: service time must be >= 1",
            "duplicate index 1",
        ]

    def test_report_lists_the_first_ten_violations(self):
        with pytest.raises(WorkloadError) as info:
            Workload(tuple(Process(pi, -1, 0) for pi in range(1, 7)))
        assert str(info.value) == (
            "process 1: negative arrival time -1; process 1: service time must be >= 1; "
            "process 2: negative arrival time -1; process 2: service time must be >= 1; "
            "process 3: negative arrival time -1; process 3: service time must be >= 1; "
            "process 4: negative arrival time -1; process 4: service time must be >= 1; "
            "process 5: negative arrival time -1; process 5: service time must be >= 1; "
            "… and 2 more"
        )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.builds(
                Process,
                pi=st.integers(-1, 3),
                it=st.sampled_from([-1, 0, 5, 2**1022 - 1, 2**1022]),
                st=st.sampled_from([0, 1, 2, 2**1022 - 2, 2**1022]),
                wt=st.integers(0, 1),
                es=st.integers(0, 1),
                pr=st.builds(PriorityPair, st.integers(0, 2), st.integers(0, 1)),
            ),
            max_size=6,
        )
    )
    # Each bound broken alone, where nothing else would send the workload to the report.
    @example([Process(0, 0, 1)])
    @example([Process(1, 0, 1), Process(1, 5, 2)])
    @example([Process(1, -1, 1)])
    @example([Process(1, 0, 0)])
    @example([Process(1, 0, 1, wt=1)])
    @example([Process(1, 0, 1, es=1)])
    @example([Process(1, 0, 1, pr=PriorityPair(0, 1))])
    @example([Process(1, 2**1022, 2**1022)])
    @example([Process(1, 2**1022 - 1, 2**1022)])
    def test_column_check_matches_the_per_process_rule(self, procs):
        expected = reference_report(procs)
        if expected is None:
            assert Workload(procs).processes == tuple(procs)
        else:
            with pytest.raises(WorkloadError) as info:
                Workload(procs)
            assert str(info.value) == expected

    @pytest.mark.parametrize("bad, message", BAD_WORKLOADS.values(), ids=list(BAD_WORKLOADS))
    def test_replace_checks_again(self, table1, bad, message):
        # Unpickling or copying a workload calls its constructor, so neither can skip the check.
        for way, build in rebuilds(Workload, bad).items():
            with pytest.raises(WorkloadError) as info:
                build()
            assert str(info.value) == message, way
        for way, build in rebuilds(Workload, table1.processes, "renamed").items():
            assert build() == Workload(table1.processes, "renamed"), way


class TestProcessRecord:
    def test_fields_cannot_be_assigned(self):
        p = Process(1, 0, 1)
        for field in Process._fields:
            with pytest.raises(AttributeError):
                setattr(p, field, 5)
        assert p == Process(1, 0, 1)

    def test_replace_leaves_the_original_unchanged(self):
        p = Process(1, 2, 3, pr=PriorityPair(4, 0))
        q = p._replace(wt=5, es=6)
        assert p == Process(pi=1, it=2, st=3, wt=0, es=0, pr=PriorityPair(4, 0))
        assert q == Process(pi=1, it=2, st=3, wt=5, es=6, pr=PriorityPair(4, 0))

    def test_a_replaced_record_is_still_checked(self, table1):
        bad = table1.processes[0]._replace(st=0)
        with pytest.raises(WorkloadError) as info:
            Workload((bad,) + table1.processes[1:])
        assert str(info.value) == f"process {bad.pi}: service time must be >= 1"


class TestParseJson:
    def test_table1(self, table1):
        w = parse_workload(TABLE1_JSON, fmt="json")
        assert w.processes == table1.processes
        assert [p.pr for p in w.processes] == [
            PriorityPair(2, 0),
            PriorityPair(1, 0),
            PriorityPair(2, 0),
            PriorityPair(3, 0),
            PriorityPair(1, 0),
            PriorityPair(4, 0),
        ]

    def test_empty_array(self):
        assert parse_workload("[]", fmt="json").processes == ()

    def test_accepts_bytes_and_streams(self, table1):
        assert parse_workload(TABLE1_JSON.encode(), fmt="json").processes == table1.processes
        assert parse_workload(io.StringIO(TABLE1_JSON), fmt="json").processes == table1.processes

    def test_bytes_that_are_not_utf8_rejected(self):
        with pytest.raises(WorkloadError, match="^workload source is not valid UTF-8: "):
            parse_workload(b"\xff[]")

    def test_priority_defaults_to_zero(self):
        w = parse_workload('[{"pi": 1, "it": 0, "st": 2}]', fmt="json")
        assert w.processes[0].pr == PriorityPair(0, 0)

    def test_zero_service_time_rejected(self):
        with pytest.raises(WorkloadError, match="service time must be >= 1"):
            parse_workload('[{"pi": 1, "it": 0, "st": 0}]', fmt="json")

    def test_duplicate_pi_rejected(self):
        src = '[{"pi": 3, "it": 0, "st": 1}, {"pi": 3, "it": 1, "st": 1}]'
        with pytest.raises(WorkloadError, match="duplicate index 3"):
            parse_workload(src, fmt="json")

    def test_negative_arrival_rejected(self):
        with pytest.raises(WorkloadError, match="negative arrival"):
            parse_workload('[{"pi": 1, "it": -1, "st": 1}]', fmt="json")

    def test_unknown_field_rejected(self):
        with pytest.raises(WorkloadError, match="unknown field 'wt'"):
            parse_workload('[{"pi": 1, "it": 0, "st": 1, "wt": 5}]', fmt="json")

    def test_duplicate_field_rejected(self):
        with pytest.raises(WorkloadError, match="entry 0: duplicate field 'st'"):
            parse_workload('[{"pi": 1, "it": 0, "st": 5, "st": 7}]', fmt="json")

    def test_missing_field_rejected(self):
        with pytest.raises(WorkloadError, match="missing field 'st'"):
            parse_workload('[{"pi": 1, "it": 0}]', fmt="json")

    def test_non_integer_rejected(self):
        with pytest.raises(WorkloadError) as info:
            parse_workload('[{"pi": 1, "it": "soon", "st": 1}]', fmt="json")
        assert str(info.value) == "entry 0: field 'it' must be an integer, got \"soon\""

    def test_bool_is_not_an_integer(self):
        with pytest.raises(WorkloadError) as info:
            parse_workload('[{"pi": 1, "it": true, "st": 1}]', fmt="json")
        assert str(info.value) == "entry 0: field 'it' must be an integer, got true"

    @pytest.mark.parametrize(
        "value, shown",
        [
            ('[{"a": 1}]', "an array"),
            ('{"a": 1}', "an object"),
            ("null", "null"),
            ("1.5", "1.5"),
            ("[" + "0, " * 99_999 + "0]", "an array"),
            ("[" * 900 + "]" * 900, "an array"),
        ],
        ids=["array", "object", "null", "float", "100k-array", "900-deep"],
    )
    def test_non_integer_shown_as_json_or_by_its_kind(self, value, shown):
        with pytest.raises(WorkloadError) as info:
            parse_workload(f'[{{"pi": {value}, "it": 0, "st": 1}}]', fmt="json")
        assert str(info.value) == f"entry 0: field 'pi' must be an integer, got {shown}"

    @pytest.mark.parametrize(
        "value, shown",
        [
            ('"' + "x" * 100_000 + '"', '"' + "x" * 39 + "... (100002 characters)"),
            ("1e400", "1e400"),
            ("-1e400", "-1e400"),
            ("1.50", "1.50"),
            ("1." + "0" * 100_000, "1." + "0" * 38 + "... (100002 characters)"),
        ],
        ids=["100k-string", "huge-float", "huge-negative-float", "float-as-written", "100k-digit-float"],
    )
    def test_rejected_value_shown_as_written_and_bounded(self, value, shown):
        with pytest.raises(WorkloadError) as info:
            parse_workload(f'[{{"pi": 1, "it": {value}, "st": 1}}]', fmt="json")
        assert str(info.value) == f"entry 0: field 'it' must be an integer, got {shown}"

    def test_unknown_field_name_bounded(self):
        with pytest.raises(WorkloadError) as info:
            parse_workload('[{"pi": 1, "%s": 0, "st": 1}]' % ("k" * 100_000), fmt="json")
        assert str(info.value) == "entry 0: unknown field '" + "k" * 39 + "... (100002 characters)"

    def test_syntax_error_reports_position(self):
        with pytest.raises(WorkloadError, match=r"line 1 column"):
            parse_workload('[{"pi": 1,]', fmt="json")

    def test_top_level_must_be_array(self):
        with pytest.raises(WorkloadError, match="array"):
            parse_workload('{"pi": 1}', fmt="json")


class TestLaterEntries:
    """Errors in entries after the first, whose key order may already have passed the name check."""

    VALID = '{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 4, "st": 2}, '

    @pytest.mark.parametrize(
        "entry, message",
        [
            ('{"pi": 3, "it": "x", "st": 1}', "entry 2: field 'it' must be an integer, got \"x\""),
            ('{"pi": 3, "it": "a", "st": "b"}', "entry 2: field 'it' must be an integer, got \"a\""),
            ('{"pi": 3, "it": 0, "st": 1, "wt": 0}', "entry 2: unknown field 'wt'"),
            ('{"pi": 3, "it": 0}', "entry 2: missing field 'st'"),
            ('{"pi": 3, "it": true, "st": 1}', "entry 2: field 'it' must be an integer, got true"),
            (
                '{"pi": 3, "it": 0, "st": 1, "priority": false}',
                "entry 2: field 'priority' must be an integer, got false",
            ),
            ('{"pi": 3, "it": 0, "st": 1.5}', "entry 2: field 'st' must be an integer, got 1.5"),
            ('{"pi": null, "it": 0, "st": 1}', "entry 2: field 'pi' must be an integer, got null"),
            ('{"pi": 3, "it": [0], "st": 1}', "entry 2: field 'it' must be an integer, got an array"),
            ('{"pi": 3, "it": 0, "st": {"a": 1}}', "entry 2: field 'st' must be an integer, got an object"),
            ("7", "entry 2: expected an object, got int"),
        ],
        ids=[
            "seen-order-bad-value",
            "first-bad-value-wins",
            "unknown",
            "missing-st",
            "true",
            "false-priority",
            "float",
            "null",
            "array",
            "object",
            "non-object",
        ],
    )
    def test_third_entry(self, entry, message):
        with pytest.raises(WorkloadError) as info:
            parse_workload(f"[{self.VALID}{entry}]", fmt="json")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "src, message",
        [
            (
                '[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": "x", "st": 1}, {"pi": 3, "it": 0, "st": 1, "wt": 0}]',
                "entry 1: field 'it' must be an integer, got \"x\"",
            ),
            (
                '[{"pi": 1, "it": 0, "st": 1}, {"st": 2, "priority": 3, "pi": 2, "it": 4}, [1, 2]]',
                "entry 2: expected an object, got list",
            ),
            (
                "["
                + ", ".join('{"pi": %d, "it": %d, "st": 1}' % (i + 1, i) for i in range(2499))
                + ', {"pi": 2500, "it": 0, "st": true}]',
                "entry 2499: field 'st' must be an integer, got true",
            ),
        ],
        ids=["value-before-later-key", "non-object-after-other-order", "true-in-last-of-2500"],
    )
    def test_first_error_in_entry_order(self, src, message):
        with pytest.raises(WorkloadError) as info:
            parse_workload(src, fmt="json")
        assert str(info.value) == message

    def test_duplicate_key_in_second_entry(self):
        src = '[{"pi": 1, "it": 0, "st": 1}, {"pi": 2, "it": 0, "st": 1, "st": 2}]'
        with pytest.raises(WorkloadError) as info:
            parse_workload(src, fmt="json")
        assert str(info.value) == "entry 1: duplicate field 'st'"


def flagged(entry) -> bool:
    """Whether an array entry is bad by itself: not an object, a wrong key set or a value that is not an int."""
    if not isinstance(entry, JsonObject):
        return True
    names = [name for name, _ in entry]
    return (
        len(set(names)) != len(names)
        or not {"pi", "it", "st"} <= set(names) <= {"pi", "it", "st", "priority"}
        or any(type(value) is not int for _, value in entry)
    )


class TestInputContract:
    """Any JSON text parses to a ``Workload`` or raises ``WorkloadError``, naming the first bad entry."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(ENTRIES, max_size=5) | JSON_VALUES)
    def test_any_json_gives_a_workload_or_a_workload_error(self, value):
        try:
            parse_workload(json_text(value), fmt="json")
            message = None
        except WorkloadError as e:
            message = str(e)
        if not isinstance(value, list):
            assert message == "workload JSON must be an array of process objects"
            return
        first = next((i for i, entry in enumerate(value) if flagged(entry)), None)
        if first is None:
            # Only a process invariant, such as a repeated pi, can fail.
            assert message is None or not message.startswith("entry "), message
        else:
            assert message is not None and message.startswith(f"entry {first}: "), (first, message)


class TestParseCsv:
    def test_table1(self, table1):
        src = "pi,it,st,priority\n" + "\n".join(
            f"{p.pi},{p.it},{p.st},{p.pr.major}" for p in table1.processes
        )
        assert parse_workload(src, fmt="csv").processes == table1.processes

    def test_empty_priority_cell(self):
        w = parse_workload("pi,it,st,priority\n1,0,2,\n", fmt="csv")
        assert w.processes[0].pr == PriorityPair(0, 0)

    def test_priority_column_optional(self):
        w = parse_workload("pi,it,st\n1,0,2\n", fmt="csv")
        assert w.processes[0].pr == PriorityPair(0, 0)

    def test_unknown_column(self):
        with pytest.raises(WorkloadError, match="unknown column 'wt'"):
            parse_workload("pi,it,st,wt\n1,0,2,0\n", fmt="csv")

    def test_duplicate_column(self):
        with pytest.raises(WorkloadError, match="line 1: duplicate column 'st'"):
            parse_workload("pi,it,st,st\n1,0,5,7\n", fmt="csv")

    def test_missing_column(self):
        with pytest.raises(WorkloadError, match="missing column 'st'"):
            parse_workload("pi,it\n1,0\n", fmt="csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_any_line_ending(self, table1, newline):
        src = newline.join(
            ["pi,it,st,priority"] + [f"{p.pi},{p.it},{p.st},{p.pr.major}" for p in table1.processes]
        )
        assert parse_workload(src + newline, fmt="csv").processes == table1.processes

    def test_bad_cell_reports_line(self):
        with pytest.raises(WorkloadError, match="line 3"):
            parse_workload("pi,it,st,priority\n1,0,2,0\n2,x,2,0\n", fmt="csv")

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", "0x1", "1.0", "+-1"])
    def test_only_ascii_digits_make_an_integer(self, cell):
        # int() takes the first three; JSON takes none of them.
        with pytest.raises(WorkloadError) as info:
            parse_workload(f"pi,it,st\n1,0,{cell}\n", fmt="csv")
        assert str(info.value) == f"line 2: field 'st' must be an integer, got {cell!r}"

    def test_long_cell_shown_bounded(self):
        with pytest.raises(WorkloadError) as info:
            parse_workload("pi,it,st\n1,0,%s\n" % ("x" * 100_000), fmt="csv")
        assert str(info.value) == "line 2: field 'st' must be an integer, got '" + "x" * 39 + "... (100002 characters)"

    def test_signed_ascii_cells_parse(self):
        (p,) = parse_workload("pi,it,st,priority\n+1, 0 ,+2,-3\n", fmt="csv").processes
        assert (p.pi, p.it, p.st, p.pr) == (1, 0, 2, PriorityPair(-3, 0))
        # Unlike JSON, a CSV cell may carry a plus sign and leading zeros.
        (p,) = parse_workload("pi,it,st\n+1,007,1\n", fmt="csv").processes
        assert (p.pi, p.it, p.st) == (1, 7, 1)

    def test_cell_beyond_the_digit_cap_named_without_echo(self):
        with pytest.raises(WorkloadError) as info:
            parse_workload("pi,it,st\n1,-%s,1\n" % ("9" * 5_000), fmt="csv")
        assert str(info.value) == "line 2: field 'it' has 5000 digits, more than the limit of 4300"

    def test_ragged_row(self):
        with pytest.raises(WorkloadError, match="expected 4 cells"):
            parse_workload("pi,it,st,priority\n1,0,2\n", fmt="csv")

    def test_missing_header(self):
        with pytest.raises(WorkloadError, match="missing CSV header"):
            parse_workload("", fmt="csv")

    def test_unknown_format(self):
        with pytest.raises(WorkloadError, match="unknown workload format"):
            parse_workload("[]", fmt="yaml")

    def test_blank_rows_skipped(self):
        w = parse_workload("pi,it,st\n1,0,1\n\n , \n2,0,1\n", fmt="csv")
        assert w.processes == (Process(1, 0, 1), Process(2, 0, 1))


class TestFieldNames:
    """JSON fields and CSV columns: the first bad name in input order is reported."""

    @pytest.mark.parametrize(
        "fmt, src, message",
        [
            ("json", '[{"pi": 1, "zz": 0, "aa": 0}]', "entry 0: unknown field 'zz'"),
            ("json", '[{"pi": 1, "pi": 2, "wt": 0}]', "entry 0: duplicate field 'pi'"),
            ("json", '[{"wt": 0, "pi": 1, "pi": 2}]', "entry 0: unknown field 'wt'"),
            ("json", '[{"pi": 1, "wt": 0}]', "entry 0: unknown field 'wt'"),
            ("csv", "pi,st,st,wt\n", "line 1: duplicate column 'st'"),
            ("csv", "wt,pi,pi\n", "line 1: unknown column 'wt'"),
            ("csv", "pi,wt\n", "line 1: unknown column 'wt'"),
        ],
        ids=[
            "json-unknown-unsorted",
            "json-duplicate-then-unknown",
            "json-unknown-then-duplicate",
            "json-unknown-before-missing",
            "csv-duplicate-then-unknown",
            "csv-unknown-then-duplicate",
            "csv-unknown-before-missing",
        ],
    )
    def test_first_bad_name_in_input_order(self, fmt, src, message):
        with pytest.raises(WorkloadError) as info:
            parse_workload(src, fmt=fmt)
        assert str(info.value) == message


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_parse_serialize_identity(self, fmt):
        for seed in range(100):
            w = random_workload(random.Random(seed), name=f"rt-{seed}")
            again = parse_workload(serialize_workload(w, fmt), fmt=fmt)
            assert again.processes == w.processes, f"seed {seed} failed {fmt} round-trip"

    def test_unknown_format(self, table1):
        with pytest.raises(WorkloadError) as info:
            serialize_workload(table1, fmt="yaml")
        assert str(info.value) == "unknown workload format 'yaml'; valid formats: json, csv"

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_any_key_order_and_optional_priority(self, data):
        n = data.draw(st.integers(0, 12))
        procs = tuple(
            Process(pi, data.draw(st.integers(0, 2**64)), data.draw(st.integers(1, 50)), pr=PriorityPair(data.draw(st.integers(0, 3)), 0))
            for pi in data.draw(st.permutations(range(1, n + 1)))
        )
        entries = []
        for p in procs:
            fields = {"pi": p.pi, "it": p.it, "st": p.st}
            if p.pr.major or data.draw(st.booleans()):
                fields["priority"] = p.pr.major
            order = data.draw(st.permutations(sorted(fields)))
            entries.append({name: fields[name] for name in order})
        assert parse_workload(json.dumps(entries), fmt="json").processes == procs

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_round_trip(self, fmt):
        w = Workload(())
        assert parse_workload(serialize_workload(w, fmt), fmt=fmt).processes == ()


class TestByteOrderMark:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_leading_bom_is_dropped_from_text(self, fmt, table1):
        text = "\ufeff" + serialize_workload(table1, fmt)
        for source in (text, io.StringIO(text), text.encode()):
            assert parse_workload(source, fmt=fmt).processes == table1.processes

    def test_only_one_bom_is_dropped(self):
        with pytest.raises(WorkloadError, match="unknown column"):
            parse_workload("\ufeff\ufeffpi,it,st\n1,0,1\n", fmt="csv")


class TestPolicy:
    def test_case_insensitive_lookup(self):
        assert Policy.from_name("HRRN") is Policy.HRRN
        assert Policy.from_name(" fcfs ") is Policy.FCFS

    def test_unknown_policy_lists_valid_names(self):
        with pytest.raises(WorkloadError, match="fcfs, sjf, pr, hrrn"):
            Policy.from_name("bogus")
