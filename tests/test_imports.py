"""Every module-level import in the package is used, since no linter runs on it.

Deleting code can leave an import behind that nothing reads any more. A name
counts as used when the module reads it anywhere, in code or in a string
annotation such as ``"ScheduleResult"``, or lists it in ``__all__``, as the
package's ``__init__`` does to re-export names. The CLI's imports also leave
out ``pathlib``, which a bare interpreter does not load on its own, and the
package defines one dataclass only.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import tcpnsched

MODULES = sorted(Path(tcpnsched.__file__).parent.glob("*.py"))


def outside_functions(node: ast.AST):
    """The nodes under ``node`` that lie in no function or class body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield child
            yield from outside_functions(child)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's own imports bind, outside any function or class, with their lines."""
    bound = {}
    for node in outside_functions(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def annotations(tree: ast.Module):
    """Every annotation in the module: of arguments, of returns and of assigned names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def annotation_names(annotation: ast.expr) -> set[str]:
    """The names an annotation reads, those in a string in it included."""
    found = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= annotation_names(ast.parse(node.value, mode="eval").body)
    return found


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, in code or in string annotations, and those it lists in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        used |= annotation_names(annotation)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"


def test_the_check_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, IO\n"
        "if TYPE_CHECKING:\n"
        "    from .metrics import ScheduleResult\n"
        "def f(x: 'list[\"ScheduleResult\"]') -> None:\n"
        "    import sys\n"
        "    return TYPE_CHECKING\n"
    )
    assert set(imported_names(tree)) == {"os", "TYPE_CHECKING", "IO", "ScheduleResult"}
    assert set(imported_names(tree)) - used_names(tree) == {"os", "IO"}


def test_the_cli_does_not_import_pathlib():
    # -I and -S: no site packages, no .pth file and no environment load pathlib first.
    src = str(Path(tcpnsched.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tcpnsched.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('pathlib')))"
    )
    # -B too: -I ignores PYTHONDONTWRITEBYTECODE, and the child would write .pyc files into src/.
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_transition_is_the_only_dataclass():
    # Making a dataclass at import costs about ten times a NamedTuple and a
    # hundred times a __slots__ class. Transition stays one because
    # perfbench/layers.py wraps each transition's guard and action with
    # dataclasses.replace, and perfbench is the benchmark that times this.
    decorated = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                        decorated.append((path.name, node.name))
    assert decorated == [("kernel.py", "Transition")]
