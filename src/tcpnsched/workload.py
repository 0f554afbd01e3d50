"""Process/policy data model plus workload parsing, validation and serialization."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from enum import Enum
from itertools import repeat
from operator import add, itemgetter
from types import MethodType
from typing import Any, IO, Iterable, NamedTuple, Sequence

from .kernel import _Record


#: Every finish time must stay below this, so that the averages, which are
#: at most the latest finish, fit in a float.
_FINISH_LIMIT = 2**1023


class WorkloadError(ValueError):
    """Raised when a workload source is malformed or violates an invariant."""


class Policy(Enum):
    """Non-preemptive scheduling method."""

    FCFS = "fcfs"
    SJF = "sjf"
    PR = "pr"
    HRRN = "hrrn"

    @classmethod
    def from_name(cls, name: str) -> "Policy":
        """Look up a policy by name, case-insensitively."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise WorkloadError(f"unknown policy {name!r}; valid policies: {valid}") from None


class PriorityPair(NamedTuple):
    """Computed priority: major field decides, minor field breaks ties.

    Fractional priorities (HRRN response ratios) are stored pre-scaled by 100
    so both fields stay integers.
    """

    major: int
    minor: int


class Process(NamedTuple):
    """One job record, immutable; ``_replace`` gives a changed copy.

    pi: process index (unique, >= 1)
    it: arrival time
    st: service time (>= 1)
    wt: waiting time accumulated up to the current instant
    es: execution start time
    pr: current priority pair; in a fresh workload pr.major holds the static
        priority (only meaningful under the PR policy) and pr.minor is 0
    """

    pi: int
    it: int
    st: int
    wt: int = 0
    es: int = 0
    pr: PriorityPair = PriorityPair(0, 0)

    @property
    def finish(self) -> int:
        """Completion time: execution start plus service time."""
        return self.es + self.st

    @property
    def turnaround(self) -> int:
        """Time from arrival to completion: waiting time plus service time."""
        return self.wt + self.st


#: A record from a tuple of its values in field order: ``tuple.__new__`` bound to the class runs in C,
#: where calling the class runs namedtuple's Python ``__new__``. It does not check the number of values.
_new_pair = MethodType(tuple.__new__, PriorityPair)
_new_process = MethodType(tuple.__new__, Process)


class _Column(tuple):
    """One field of many records, in order; ``+`` adds two columns item by item."""

    def __add__(self, other: tuple) -> "_Column":
        return _Column(map(add, self, other))


def _process_columns(records: Iterable[Process]) -> Process:
    """One ``Process`` whose fields are the columns of the ``records``.

    Its ``finish`` and ``turnaround`` are then columns too, item i of each
    being that of record i; its ``pr`` is the column of the records' pairs.
    With no records there are no rows to transpose, but still six empty columns.
    """
    return Process(*map(_Column, list(zip(*records)) or [()] * len(Process._fields)))


class Workload(_Record):
    """An ordered collection of processes; list order is preserved end-to-end.

    Building one checks every process against the invariants of
    ``_violations`` and raises WorkloadError listing what it finds: the first
    ten violations in order, then a count of the rest. Field types are not
    checked: a value that compares as a valid one, such as ``st=nan``, passes.
    """

    __slots__ = ("processes", "name")

    def __init__(self, processes: Iterable[Process], name: str = "") -> None:
        # Stored as a tuple, so that no one can change the processes once checked.
        procs = tuple(processes)
        violations = _violations(procs)
        if violations:
            raise WorkloadError(_report(violations))
        super().__init__(procs, name)

    def __len__(self) -> int:
        return len(self.processes)


#: A WorkloadError lists at most this many violations and counts the rest.
_REPORTED_VIOLATIONS = 10


def _violations(procs: tuple[Process, ...]) -> list[str]:
    """Every invariant violation in ``procs``, in the order they are reported; empty if none.

    Each process has an index >= 1 that no other process has, an arrival
    time >= 0, a service time >= 1, and wt, es and minor priority 0; and the
    latest possible finish, max(it) + sum(st), is below 2**1023. One pass
    unpacks each record once, and words a violation only when it finds one.
    """
    violations: list[str] = []
    seen: set[int] = set()
    for pi, it, st, wt, es, (_, minor) in procs:
        if pi < 1:
            violations.append(f"process {pi}: index must be >= 1")
        if pi in seen:
            violations.append(f"duplicate index {pi}")
        seen.add(pi)
        if it < 0:
            violations.append(f"process {pi}: negative arrival time {it}")
        if st < 1:
            violations.append(f"process {pi}: service time must be >= 1")
        if wt != 0:
            violations.append(f"process {pi}: fresh workload must have wt = 0")
        if es != 0:
            violations.append(f"process {pi}: fresh workload must have es = 0")
        if minor != 0:
            violations.append(f"process {pi}: fresh workload must have minor priority 0")
    if max(map(itemgetter(1), procs), default=0) + sum(map(itemgetter(2), procs)) >= _FINISH_LIMIT:
        violations.append("latest possible finish max(it) + sum(st) must be below 2**1023")
    return violations


def _report(violations: list[str]) -> str:
    """The first violations joined by ``; ``, and a count of any left out."""
    shown = "; ".join(violations[:_REPORTED_VIOLATIONS])
    more = len(violations) - _REPORTED_VIOLATIONS
    return f"{shown}; … and {more} more" if more > 0 else shown


#: The built-in six-process case study selected with the ``paper-table1`` keyword.
_TABLE1 = (
    (1, 6, 4, 2),
    (2, 7, 3, 1),
    (3, 8, 2, 2),
    (4, 5, 2, 3),
    (5, 9, 3, 1),
    (6, 1, 3, 4),
)


def builtin_paper_workload() -> Workload:
    """Return the built-in six-process workload (``paper-table1``)."""
    return Workload(processes=_processes(*zip(*_TABLE1)), name="paper-table1")


_JSON_FIELDS = ("pi", "it", "st", "priority")
_REQUIRED_FIELDS = ("pi", "it", "st")
_SHOWN_CHARS = 40
#: A CSV integer cell: ASCII digits with an optional sign, leading zeros
#: allowed (``+1`` and ``007`` pass, though JSON rejects both); no ``1_0``
#: and no digits of other scripts, which ``int()`` would take.
_CSV_INT = re.compile(r"[+-]?[0-9]+")


class _Number(str):
    """A JSON number with a fraction or exponent, kept as written: 1e400 stays 1e400."""


def _shown(text: str) -> str:
    """``text`` as a message quotes it: at most ``_SHOWN_CHARS`` characters, then its full length."""
    return text if len(text) <= _SHOWN_CHARS else f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _not_an_integer(value: Any, field: str, where: str) -> WorkloadError:
    """The error for a JSON value that is not an integer."""
    # A container is named by its kind, so the message stays short however
    # large or deep it is; objects decode to tuples of pairs.
    if isinstance(value, list):
        shown = "an array"
    elif isinstance(value, tuple):
        shown = "an object"
    else:
        shown = _shown(value if isinstance(value, _Number) else json.dumps(value))
    return WorkloadError(f"{where}: field {field!r} must be an integer, got {shown}")


def _check_names(names: Iterable[str], where: str, noun: str) -> None:
    """Reject the first unknown or repeated name, then a missing required one."""
    seen = set()
    for name in names:
        if name not in _JSON_FIELDS:
            raise WorkloadError(f"{where}: unknown {noun} {_shown(repr(name))}")
        if name in seen:
            raise WorkloadError(f"{where}: duplicate {noun} {name!r}")
        seen.add(name)
    for name in _REQUIRED_FIELDS:
        if name not in seen:
            raise WorkloadError(f"{where}: missing {noun} {name!r}")


def _processes(
    pi: Sequence[int], it: Sequence[int], st: Sequence[int], priority: Sequence[int]
) -> tuple[Process, ...]:
    """Fresh processes from the columns of their input records; wt/es are never input, so both start at 0."""
    pairs = {major: _new_pair((major, 0)) for major in set(priority)}
    return tuple(map(_new_process, zip(pi, it, st, repeat(0), repeat(0), map(pairs.__getitem__, priority))))


def _parse_json(text: str) -> tuple[Process, ...]:
    try:
        # Objects decode to tuples of (key, value) pairs, so that a repeated
        # key is seen rather than silently keeping its last value; other
        # numbers than integers stay as written, for the message.
        data = json.loads(text, object_pairs_hook=tuple, parse_float=_Number)
    except json.JSONDecodeError as e:
        raise WorkloadError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError:
        # The only other ValueError json.loads raises: Python's cap on the
        # digits of an int parsed from text.
        raise WorkloadError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        # json.loads recurses once per nested array or object.
        raise WorkloadError("invalid JSON: nested too deeply") from None
    if not isinstance(data, list):
        raise WorkloadError("workload JSON must be an array of process objects")
    # One pass checks each entry and appends its values to the columns, so
    # the first error in entry order is the one raised. Most files give every
    # entry the same keys in the same order, so each order is checked once.
    # A repeated key makes the dict shorter than the entry, so its order is
    # checked too, and fails.
    pi, it, st, priority = [], [], [], []
    checked: set[tuple[str, ...]] = set()
    for i, entry in enumerate(data):
        if type(entry) is not tuple:
            raise WorkloadError(f"entry {i}: expected an object, got {type(entry).__name__}")
        fields = dict(entry)
        names = tuple(fields)
        if names not in checked or len(names) != len(entry):
            _check_names(map(itemgetter(0), entry), f"entry {i}", "field")
            checked.add(names)
        for name, value in entry:
            # bool is an int subclass, and true/false is a schema error;
            # json.loads makes no other int subclass.
            if type(value) is not int:
                raise _not_an_integer(value, name, f"entry {i}")
        pi.append(fields["pi"])
        it.append(fields["it"])
        st.append(fields["st"])
        priority.append(fields.get("priority", 0))
    return _processes(pi, it, st, priority)


def _parse_csv(text: str) -> tuple[Process, ...]:
    # newline="" lets the reader split lines itself, so CR-only files parse.
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as e:
        # The reader's own errors, such as a cell over its size limit, quote no cell.
        raise WorkloadError(f"line {reader.line_num}: {e}") from None
    if not rows:
        raise WorkloadError("line 1: missing CSV header 'pi,it,st,priority'")
    header = [h.strip() for h in rows[0]]
    _check_names(header, "line 1", "column")
    pi, it, st, priority = columns = [], [], [], []
    by_name = dict(zip(_JSON_FIELDS, columns))
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise WorkloadError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        where = f"line {lineno}"
        for name, cell in zip(header, row):
            cell = cell.strip()
            if name == "priority" and cell == "":
                cell = "0"
            if not _CSV_INT.fullmatch(cell):
                raise WorkloadError(f"{where}: field {name!r} must be an integer, got {_shown(repr(cell))}")
            try:
                by_name[name].append(int(cell))
            except ValueError:
                # Well-formed, so int() refused it for Python's digit cap.
                raise WorkloadError(
                    f"{where}: field {name!r} has {len(cell.lstrip('+-'))} digits, "
                    f"more than the limit of {sys.get_int_max_str_digits()}"
                ) from None
    # A missing priority column, like an empty priority cell, means priority 0.
    return _processes(pi, it, st, priority if "priority" in header else [0] * len(pi))


def parse_workload(source: bytes | str | IO, fmt: str = "json", name: str = "") -> Workload:
    """Parse a workload from a JSON or CSV source.

    Rejects any input that violates a process invariant; values are never
    silently clamped. Missing static priority defaults to 0; wt/es are
    forced to 0 regardless of input.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as e:
            raise WorkloadError(f"workload source is not valid UTF-8: {e}") from None
    else:
        text = source
    # Drop one leading byte-order mark, as editors on Windows write one; a
    # file opened in text mode keeps it as the first character.
    if text.startswith("\ufeff"):
        text = text[1:]

    if fmt == "json":
        procs = _parse_json(text)
    elif fmt == "csv":
        procs = _parse_csv(text)
    else:
        raise WorkloadError(f"unknown workload format {fmt!r}; valid formats: json, csv")

    return Workload(processes=procs, name=name)


def serialize_workload(w: Workload, fmt: str = "json") -> str:
    """Serialize a workload so that parse_workload round-trips it."""
    # One tuple per record, in _JSON_FIELDS order.
    rows = ((p.pi, p.it, p.st, p.pr.major) for p in w.processes)
    if fmt == "json":
        return json.dumps([dict(zip(_JSON_FIELDS, row)) for row in rows])
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_JSON_FIELDS)
        writer.writerows(rows)
        return out.getvalue()
    raise WorkloadError(f"unknown workload format {fmt!r}; valid formats: json, csv")
