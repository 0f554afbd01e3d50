"""Per-record code takes none of two slow paths of CPython, which a timing could miss.

On Python 3.10 and 3.11 each read of an enum member through its class, such
as ``Policy.FCFS``, runs ``EnumType.__getattr__``, and each call of a
namedtuple class, such as ``Process(...)``, runs the class's Python
``__new__``. So the code that runs once or more per process reads policies
through names bound once, and builds records through ``workload``'s
builders, which run in C. What this saves is smaller than the spread of
timings on a shared machine, so the source is checked instead.
"""

import ast
from pathlib import Path

import pytest

import tcpnsched

PACKAGE = Path(tcpnsched.__file__).parent
#: The functions of each module that run once or more per process.
PER_RECORD = {
    "sched.py": (
        "cmp_scalar",
        "compare_process",
        "update_priority",
        "update_proc_wait",
        "set_execution_start",
        "activate_action",
        "execute_action",
        "dispatch_action",
        "hrrn_winner",
    ),
    "oracle.py": ("_hrrn_take",),
    "workload.py": ("_processes",),
}
#: The record classes; ``Policy`` is read for its members.
CLASSES = {"Policy", "Process", "PriorityPair"}


def slow_paths(node: ast.AST) -> list[str]:
    """The reads of an attribute of ``Policy`` or of a record class under ``node``, and the calls of a record class.

    Each is given as its source text, sorted.
    """
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in CLASSES:
            found.append(ast.unparse(sub))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in CLASSES - {"Policy"}:
            found.append(ast.unparse(sub))
    return sorted(found)


def functions(module: str) -> dict[str, ast.FunctionDef]:
    """The functions of a module of the package by name, nested ones included."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in PER_RECORD.items() for name in names])
def test_per_record_code_takes_no_slow_path(module, name):
    assert slow_paths(functions(module)[name]) == []


def test_the_oracle_loops_take_no_slow_path():
    # oracle_schedule reads Policy once per run, before its loops.
    body = functions("oracle.py")["oracle_schedule"]
    loops = [node for node in ast.walk(body) if isinstance(node, (ast.For, ast.While))]
    assert loops
    assert [path for loop in loops for path in slow_paths(loop)] == []


def test_the_check_sees_both_slow_paths():
    tree = ast.parse(
        "def f(p, policy, Policy=None):\n"
        "    if policy is Policy.FCFS:\n"
        "        return Process(p.pi, 0, 1)\n"
        "    pairs = map(PriorityPair._make, [(1, 0)])\n"
        "    return policy.value, _new_pair((1, 0)), PriorityPair(1, 0)\n"
    )
    assert slow_paths(tree) == ["Policy.FCFS", "PriorityPair(1, 0)", "PriorityPair._make", "Process(p.pi, 0, 1)"]
