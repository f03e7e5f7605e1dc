"""The package's public surface and the scripts that sit on it.

``src/kitespec`` keeps only what a caller outside ``tests/`` reaches: a
public top-level function or class that nothing in ``src/``, ``scripts/``
or ``perfbench/`` names is a test oracle and belongs in ``tests/conftest.py``.
The scripts are run as the user runs them, in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kitespec"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")
# the canonical-labelling entry point, kept for library users
ALLOWED_UNCALLED = {"canonical_graph"}


def _names_used(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` names outside the node ``skip``: loaded and
    stored names, attributes, imported names, and string constants that are
    identifiers (the benchmark's tracer binds names as strings)."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_has_a_caller_outside_tests():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for root in CALLER_DIRS
        for path in sorted(root.rglob("*.py"))
    }
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            called = any(
                node.name in _names_used(tree, node if other == path else None)
                for other, tree in trees.items()
            )
            if not called and node.name not in ALLOWED_UNCALLED:
                uncalled.append(f"{path.name}:{node.name}")
    assert not uncalled, f"public names with no caller outside tests/: {uncalled}"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestScripts:
    def test_bounds_table_reaches_the_cap(self):
        # Kite_{23,1} has 24 vertices, exactly the cap
        proc = run_script("bounds_table.py", "--max-p", "23", "--max-q", "1")
        assert proc.returncode == 0, proc.stderr
        tail = proc.stdout.split("p = 23:")[1]
        assert "q =  1: rho = " in tail

    def test_das_sweep_rejects_an_order_past_the_desk_range(self):
        proc = run_script("das_sweep.py", "--max-order", "10", "--workers", "1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_census_rejects_an_order_past_the_cap_at_once(self):
        start = time.monotonic()
        proc = run_script("enumeration_census.py", "--max-n", "10")
        assert time.monotonic() - start < 2
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "past the enumeration cap 9" in proc.stderr
