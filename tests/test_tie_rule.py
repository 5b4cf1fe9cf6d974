"""The search layer has one tie rule.

``heuristics._best_candidate`` is the record walk every candidate scan goes
through; only ``tree_descent``, which stops at the first improving child,
compares against ``SCORE_TIE_TOL`` itself. A new ad-hoc tie comparison
anywhere else in ``heuristics.py`` fails this check.
"""

import ast
from pathlib import Path

import pytest

from optarget import heuristics

TIE_RULE_READERS = {"_best_candidate", "tree_descent"}


def tie_readers(source: str) -> set[str]:
    """Names of the innermost functions in ``source`` that read
    ``SCORE_TIE_TOL``; ``<module>`` for a read outside every function."""
    readers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif (isinstance(child, ast.Name) and child.id == "SCORE_TIE_TOL"
                  and isinstance(child.ctx, ast.Load)):
                readers.add(owner)
            else:
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return readers


def test_only_the_record_walk_and_tree_descent_read_the_tolerance():
    assert tie_readers(Path(heuristics.__file__).read_text()) == TIE_RULE_READERS


@pytest.mark.parametrize("source, readers", [
    ("SCORE_TIE_TOL = 1\ndef f(a, b): return a > b + SCORE_TIE_TOL\n", {"f"}),
    ("def f(xs):\n    return [x for x in xs if x > SCORE_TIE_TOL]\n", {"f"}),
    ("def f():\n    def g(a): return a - SCORE_TIE_TOL\n    return g\n", {"g"}),
    ("TOL = SCORE_TIE_TOL\ndef f(): SCORE_TIE_TOL = 2\n", {"<module>"}),
    ("def f(a): return a > TOL\n", set()),
])
def test_checker_finds_every_reader(source, readers):
    assert tie_readers(source) == readers
