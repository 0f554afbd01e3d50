"""Process/policy data model plus workload parsing, validation and serialization."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter, methodcaller
from typing import Any, IO, Iterable, NamedTuple


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


@dataclass(frozen=True)
class Workload:
    """An ordered collection of processes; list order is preserved end-to-end.

    Building one raises WorkloadError listing the invariant violations: the
    first ten in order, then a count of the rest.
    """

    processes: tuple[Process, ...]
    name: str = ""

    def __post_init__(self) -> None:
        # Stored as a tuple, so that no one can change the processes once checked.
        procs = tuple(self.processes)
        object.__setattr__(self, "processes", procs)
        # One pass over the columns clears a valid workload; anything it
        # doubts goes through _violations, which decides and words the report.
        if procs and not _columns_valid(procs):
            violations = _violations(procs)
            if violations:
                raise WorkloadError(_report(violations))

    def __len__(self) -> int:
        return len(self.processes)


#: A WorkloadError lists at most this many violations and counts the rest.
_REPORTED_VIOLATIONS = 10


def _columns_valid(procs: tuple[Process, ...]) -> bool:
    """True when no process breaks an invariant, decided column by column."""
    pi, it, st, wt, es, pr = zip(*procs)
    return (
        min(pi) >= 1
        and len(set(pi)) == len(pi)
        and min(it) >= 0
        and min(st) >= 1
        and not any(wt)
        and not any(es)
        and not any(map(itemgetter(1), pr))
        and max(it) + sum(st) < _FINISH_LIMIT
    )


def _violations(procs: tuple[Process, ...]) -> list[str]:
    """Every invariant violation, process by process, in the order they are reported.

    ``_columns_valid`` must reject every workload this finds a violation in:
    a new invariant goes into both.
    """
    violations: list[str] = []
    seen: set[int] = set()
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
    if procs and max(p.it for p in procs) + sum(p.st for p in procs) >= _FINISH_LIMIT:
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
    procs = tuple(
        Process(pi=pi, it=it, st=st, wt=0, es=0, pr=PriorityPair(prio, 0))
        for pi, it, st, prio in _TABLE1
    )
    return Workload(processes=procs, name="paper-table1")


_JSON_FIELDS = ("pi", "it", "st", "priority")
_REQUIRED_FIELDS = ("pi", "it", "st")
#: A CSV integer cell, as JSON would accept it: ASCII digits only, so no
#: ``1_0`` and no digits of other scripts, which ``int()`` would take.
_CSV_INT = re.compile(r"[+-]?[0-9]+")


class _Number(str):
    """A JSON number with a fraction or exponent, kept as written: 1e400 stays 1e400."""


def _shown(text: str, limit: int = 40) -> str:
    """``text`` as a message quotes it: at most ``limit`` characters, then its full length."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


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


def _process_from_fields(fields: dict[str, int]) -> Process:
    # wt/es are never read from input, so a parsed process starts with both at 0.
    return Process(fields["pi"], fields["it"], fields["st"], pr=PriorityPair(fields.get("priority", 0), 0))


def _check_entries(data: list) -> None:
    """Raise the first error in entry order: a non-object, a bad field name or a non-integer value.

    Returns only when every entry is valid, which ``_parse_json`` treats as a
    disagreement with ``_columns``.
    """
    # Most files give every entry the same keys in the same order, so each
    # order is checked once; a duplicate key never gets past this check.
    checked: set[tuple[str, ...]] = set()
    for i, entry in enumerate(data):
        if not isinstance(entry, tuple):
            raise WorkloadError(f"entry {i}: expected an object, got {type(entry).__name__}")
        names = tuple(map(itemgetter(0), entry))
        if names not in checked:
            _check_names(names, f"entry {i}", "field")
            checked.add(names)
        for name, value in entry:
            # bool is an int subclass, and true/false is a schema error;
            # json.loads makes no other int subclass.
            if type(value) is not int:
                raise _not_an_integer(value, name, f"entry {i}")


def _names_valid(names: tuple[str, ...]) -> bool:
    """Whether ``_check_names`` accepts one entry's field names."""
    try:
        _check_names(names, "", "field")
    except WorkloadError:
        return False
    return True


def _columns(data: list) -> list[list[int]] | None:
    """The pi, it, st and priority columns of the entries; None if any entry is invalid.

    Each check runs over the whole array; ``_check_entries`` finds and words
    the first error of an array this rejects.
    """
    if not set(map(type, data)) <= {tuple}:
        return None
    entries = list(map(dict, data))
    # dict() keeps one value of a repeated key, so a repeat shortens its entry.
    if sum(map(len, entries)) != sum(map(len, data)) or not all(map(_names_valid, set(map(tuple, entries)))):
        return None
    columns = [list(map(itemgetter(name), entries)) for name in _REQUIRED_FIELDS]
    columns.append(list(map(methodcaller("get", "priority", 0), entries)))
    if not set(map(type, chain.from_iterable(columns))) <= {int}:
        return None
    return columns


def _parse_json(text: str) -> list[Process]:
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
    columns = _columns(data)
    if columns is None:
        _check_entries(data)
        raise AssertionError("the column checks rejected entries that _check_entries accepts")
    pi, it, st, priority = columns
    # wt/es are never read from input, so a parsed process starts with both at 0.
    pairs = {major: PriorityPair(major, 0) for major in set(priority)}
    return list(map(Process._make, zip(pi, it, st, repeat(0), repeat(0), map(pairs.__getitem__, priority))))


def _parse_csv(text: str) -> list[Process]:
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
    procs = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise WorkloadError(f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        where = f"line {lineno}"
        fields: dict[str, int] = {}
        for name, cell in zip(header, row):
            cell = cell.strip()
            if name == "priority" and cell == "":
                continue
            if not _CSV_INT.fullmatch(cell):
                raise WorkloadError(f"{where}: field {name!r} must be an integer, got {_shown(repr(cell))}")
            try:
                fields[name] = int(cell)
            except ValueError:
                # Well-formed, so int() refused it for Python's digit cap.
                raise WorkloadError(
                    f"{where}: field {name!r} has {len(cell.lstrip('+-'))} digits, "
                    f"more than the limit of {sys.get_int_max_str_digits()}"
                ) from None
        procs.append(_process_from_fields(fields))
    return procs


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

    return Workload(processes=tuple(procs), name=name)


def serialize_workload(w: Workload, fmt: str = "json") -> str:
    """Serialize a workload so that parse_workload round-trips it."""
    rows = [{"pi": p.pi, "it": p.it, "st": p.st, "priority": p.pr.major} for p in w.processes]
    if fmt == "json":
        return json.dumps(rows)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_JSON_FIELDS)
        for row in rows:
            writer.writerow([row[f] for f in _JSON_FIELDS])
        return out.getvalue()
    raise WorkloadError(f"unknown workload format {fmt!r}; valid formats: json, csv")
