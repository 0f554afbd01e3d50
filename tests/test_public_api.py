"""The package's public surface: ``__all__`` and the README's library example."""

import re
import typing
from pathlib import Path

import tcpnsched

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(tcpnsched.__all__) == len(set(tcpnsched.__all__))
    missing = [name for name in tcpnsched.__all__ if not hasattr(tcpnsched, name)]
    assert missing == []
    namespace: dict = {}
    exec("from tcpnsched import *", namespace)
    assert set(tcpnsched.__all__) <= set(namespace)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under ## Library"
    exec(compile(match.group(1), str(README), "exec"), {})


def test_every_exported_callable_has_resolvable_type_hints():
    for name in tcpnsched.__all__:
        obj = getattr(tcpnsched, name)
        if callable(obj):
            typing.get_type_hints(obj)
