"""Line coverage of ``src/tcpnsched`` under tier-1, from a stdlib tracer.

Run from the repository root:

    python tests/line_coverage.py [pytest arguments]

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` and
any arguments given) in this process under ``sys.settrace``, and exits 1,
listing them, if a line of the package outside ``ALLOWED`` never ran; else
it exits with pytest's code. Tests that start a child Python are not traced.

A line counts only in a frame that runs a real ``tcpnsched`` module: its
globals' ``__name__`` is the module's name and its code comes from the
module's file. The mutant table compiles patched sources under the real file
names into modules of other names, so a mutant earns no line. The executable
lines of a file are those that ``co_lines()`` gives for the code objects
compiled from it, less the body of an ``if TYPE_CHECKING:`` block, which
holds imports for annotations only and by design never runs. The tracer
starts before ``tcpnsched`` is first imported, so the lines that run at
import count too. The name is not ``test_*.py``, so pytest does not collect
it.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tcpnsched"

#: Lines that no in-process test can run, as ``(file name, stripped source)``:
#: the ``__main__`` guards' calls, which only a child Python reaches.
ALLOWED = {
    ("__main__.py", "raise SystemExit(main())"),
    ("cli.py", "raise SystemExit(main())"),
}


def module_files() -> dict[str, str]:
    """Each module name of the package, mapped to the path of its source file."""
    files = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "tcpnsched" if path.stem == "__init__" else f"tcpnsched.{path.stem}"
        files[name] = str(path)
    return files


def executable_lines(path: str) -> set[int]:
    """The lines that the code objects compiled from ``path`` map instructions to.

    The body of an ``if TYPE_CHECKING:`` block is left out.
    """
    source = Path(path).read_text(encoding="utf-8")
    lines = set()
    pending = [compile(source, path, "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            lines -= {n for stmt in node.body for n in range(stmt.lineno, stmt.end_lineno + 1)}
    return lines


def main(argv: list[str]) -> int:
    files = module_files()
    ran: dict[str, set[int]] = {path: set() for path in files.values()}

    def line_tracer(seen: set[int]):
        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    # One local tracer per file, made once: a closure that returns itself is a
    # reference cycle, and one made per frame would leave cyclic garbage that
    # the package's code never made (tests/test_cli.py::TestCollector counts it).
    tracers = {path: line_tracer(ran[path]) for path in files.values()}

    def trace(frame, event, arg):
        path = files.get(frame.f_globals.get("__name__"))
        if path is None or frame.f_code.co_filename != path:
            return None
        return tracers[path]

    if "tcpnsched" in sys.modules:
        raise SystemExit("tcpnsched was imported before the tracer started")
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)

    total, allowed, unrun = 0, 0, []
    for path in files.values():
        source = Path(path).read_text(encoding="utf-8").splitlines()
        name = Path(path).name
        lines = executable_lines(path)
        total += len(lines)
        for n in sorted(lines - ran[path]):
            if (name, source[n - 1].strip()) in ALLOWED:
                allowed += 1
            else:
                unrun.append(f"src/tcpnsched/{name}:{n}: {source[n - 1].strip()}")
    if unrun:
        print(f"{len(unrun)} of {total} executable lines of src/tcpnsched never ran:", *unrun, sep="\n  ")
        return 1
    print(f"line coverage: {total - allowed} of {total} executable lines of src/tcpnsched ran; {allowed} allowed")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
