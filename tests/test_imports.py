"""Every name a library module imports is used in it.

A deletion that leaves an import behind fails here. An import stays unused
on purpose only when ``__all__`` exports it or its line carries
``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import optarget

MODULES = sorted(Path(optarget.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports of ``source`` that it never reads or exports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            noqa = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if alias.name == "*" or any("# noqa: F401" in line for line in noqa):
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported[bound] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import (\n    b,\n    c,\n)\nb()\n", ["line 3: c"]),
    ("from a import b as c\nb()\n", ["line 1: c"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\n__all__ = []\n__all__ += ['b']\n", []),
    ("from a import b  # noqa: F401\n", []),
    ("from a import (\n    b,  # noqa: F401\n    c,\n)\n", ["line 3: c"]),
    ("from __future__ import annotations\n", []),
])
def test_checker_finds_exactly_the_unused_imports(source, unused):
    assert unused_imports(source) == unused
