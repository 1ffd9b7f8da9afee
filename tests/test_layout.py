"""Rules about where code lives in ``src/``, read from the source itself.

The grep guards are the tier-1 twins of the ones ``tier1.yml`` runs: each
pattern may match only in the one module that owns what it names, or
nowhere.  The closure guard keeps the streamed sums free of reference
cycles: a function defined inside another that calls itself by name
holds its own cell, so it and everything it closes over (a run buffer,
say) outlive the call until a cyclic garbage collection.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted(SRC.rglob("*.py"))


def relative(path: Path) -> str:
    return path.relative_to(SRC.parent).as_posix()


@pytest.mark.parametrize(
    "pattern, owner",
    [
        # the probes' log-sum-exp is written out so that reports do not move with scipy
        (r"scipy\.special|from scipy import .*special", None),
        # core loads scipy's compiled cdist/pdist kernels without importing scipy.spatial
        (r"scipy\.spatial|from scipy import", "src/isoclust/core.py"),
        # core calls numpy's own dsyevd in place; the rest take eigenbases from core.eigh
        (r"\bctypes\b", "src/isoclust/core.py"),
        # run_measure opens the one thread pool; the indices only receive its map
        (r"concurrent\.futures|from concurrent import", "src/isoclust/measure.py"),
        # a value shared between the pool's tasks has exactly one writer
        (r"^\s*(import threading|from threading import)", None),
        # np.add.reduce's split rule is stated once, in core.pairwise_split
        (r"%\s*8\b", "src/isoclust/core.py"),
    ],
    ids=["scipy.special", "scipy.spatial", "ctypes", "concurrent.futures", "threading", "split-rule"],
)
def test_only_the_owner_names_it(pattern, owner):
    assert SOURCES
    found = [
        f"{relative(path)}:{number}: {line.strip()}"
        for path in SOURCES
        if relative(path) != owner
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert found == []


def self_referring_closures(tree: ast.AST):
    """(line, name) of each function defined inside another that names itself."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(tree):
        if not isinstance(outer, functions):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, functions):
                if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    yield inner.lineno, inner.name


def test_no_closure_refers_to_itself():
    found = sorted(
        {f"{relative(path)}:{line} {name}" for path in SOURCES for line, name in self_referring_closures(ast.parse(path.read_text()))}
    )
    assert found == []


def test_the_closure_guard_sees_a_recursive_closure():
    tree = ast.parse(
        "def total(values):\n"
        "    def run(lo, hi):\n"
        "        return values[lo] if hi - lo == 1 else run(lo, lo + 1) + run(lo + 1, hi)\n"
        "    return run(0, len(values))\n"
        "def walk(n):\n"
        "    return n if n < 2 else walk(n - 1)\n"
    )
    assert list(self_referring_closures(tree)) == [(2, "run")]
