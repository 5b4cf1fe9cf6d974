"""No function default in a library module reads a module-level name.

A default is evaluated once, when its ``def`` runs, so a constant read there
ignores a later patch of the module attribute. Every constant the tests
patch (``RESIDUAL_RTOL``, ``_FACTOR_WORK``, ``_DIAG_PROBE``, ...) is read in
a function body, at call time.
"""

import ast
from pathlib import Path

import pytest

import optarget

MODULES = sorted(Path(optarget.__file__).parent.glob("*.py"))


def module_names(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level by assignment or ``from``
    import; plain ``import`` binds modules, which no test patches."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
            continue
        else:
            continue
        for target in targets:
            names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def bound_defaults(source: str) -> list[str]:
    """Module-level names read by the default values of ``source``'s functions."""
    tree = ast.parse(source)
    names = module_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            found += [f"line {n.lineno}: {n.id}" for n in ast.walk(default)
                      if isinstance(n, ast.Name) and n.id in names]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_default_reads_a_module_name(path):
    assert bound_defaults(path.read_text()) == []


@pytest.mark.parametrize("source, bound", [
    ("X = 1\ndef f(a=X): pass\n", ["line 2: X"]),
    ("X: float = 1\ndef f(*, a=X): pass\n", ["line 2: X"]),
    ("X = 1\nf = lambda a=-X: a\n", ["line 2: X"]),
    ("from m import X\nclass C:\n    def f(self, a=(X, 1)): pass\n", ["line 3: X"]),
    ("X = 1\ndef f(a=None, *, b=()): return X\n", []),
    ("import math\ndef f(a=math.inf): pass\n", []),
    ("def f(X=1):\n    def g(a=X): pass\n", []),
])
def test_checker_finds_exactly_the_bound_defaults(source, bound):
    assert bound_defaults(source) == bound
