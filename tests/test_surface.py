"""The package's public surface and the scripts that sit on it.

``src/kitespec`` keeps only what a caller outside ``tests/`` reaches: a
public top-level function or class that nothing in ``src/``, ``scripts/``
or ``perfbench/`` names is a test oracle and belongs in ``tests/conftest.py``.
The scripts are run as the user runs them, in a fresh interpreter.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kitespec.bounds import spectral_radius
from kitespec.graph import HARD_CAP, make_kite

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kitespec"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


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
            if not called:
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
        # every kite up to the cap; Kite_{23,1} has 24 vertices, exactly the cap
        proc = run_script("bounds_table.py", "--max-p", "23", "--max-q", "21")
        assert proc.returncode == 0, proc.stderr
        tail = proc.stdout.split("p = 23:")[1]
        # the radius from R_{23,1} agrees with the power sums of the built kite
        assert f"q =  1: rho = {spectral_radius(make_kite(23, 1)):.10f} " in tail
        # every row, pinned: 21 header lines and 231 kites
        assert proc.stdout.count("\n") == 252
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "31761fd8f363a55e6c9dcd727ab113c1a31167e6c748e5a7738d7ba78827c1e1"

    def test_charpoly_timing_prints_one_line_per_cell(self):
        proc = run_script("charpoly_timing.py", "--min-n", "3", "--max-n", "4", "--p", "0.5,1", "--graphs", "2")
        assert proc.returncode == 0, proc.stderr
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [(r["n"], r["p"]) for r in rows] == [(3, 0.5), (3, 1.0), (4, 0.5), (4, 1.0)]
        assert all(r["q1"] <= r["us_per_call"] <= r["q3"] for r in rows)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--min-n", "3", "--max-n", "3", "--graphs", "0"], "--graphs must be at least 1, got 0"),
            # an order outside 0..HARD_CAP is refused before any row is timed
            (["--min-n", "24", "--max-n", "25"], f"--max-n must be in 0..{HARD_CAP}, got 25"),
            (["--min-n", "-1"], f"--min-n must be in 0..{HARD_CAP}, got -1"),
            # so is a probability list that is not numbers in [0, 1]
            (["--min-n", "3", "--max-n", "3", "--p", "abc", "--graphs", "1"],
             "--p must be comma-separated numbers, got 'abc'"),
            (["--min-n", "3", "--max-n", "3", "--p", "0.5,1.5"], "--p values must be in [0, 1], got 1.5"),
        ],
        ids=["no-graphs", "past-the-cap", "negative", "p-not-a-number", "p-past-one"],
    )
    def test_charpoly_timing_rejects_bad_arguments(self, argv, message):
        proc = run_script("charpoly_timing.py", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")

    @pytest.mark.parametrize(
        "args",
        [
            ["--max-order", "10", "--workers", "1"],
            ["--max-order", "abc"],
            ["--workers", "0"],
            ["--workers", "-3"],
        ],
        ids=["max-order-10", "max-order-abc", "workers-0", "workers-negative"],
    )
    def test_das_sweep_rejects_an_order_past_the_desk_range(self, args):
        # exit 2 is kept for "a mate was found", so a usage error exits 1
        proc = run_script("das_sweep.py", *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_census_counts_and_reads_its_cache_back(self, tmp_path):
        # OEIS A000088 and A001349; the second run loads each order's one file,
        # which a recomputation would have replaced by a new inode
        inodes = []
        for _ in range(2):
            proc = run_script("enumeration_census.py", "--max-n", "6", "--cache-dir", str(tmp_path))
            assert proc.returncode == 0, proc.stderr
            rows = [[int(x) for x in line.split()[:3]] for line in proc.stdout.splitlines()[1:]]
            assert rows == [[1, 1, 1], [2, 2, 1], [3, 4, 2], [4, 11, 6], [5, 34, 21], [6, 156, 112]]
            assert sorted(p.name for p in tmp_path.iterdir()) == [f"n{n}.g6" for n in range(1, 7)]
            inodes.append({p.name: p.stat().st_ino for p in tmp_path.iterdir()})
        assert inodes[0] == inodes[1]

    @pytest.mark.parametrize("cache_dir", ["/dev/null", "/dev/null/x"], ids=["a-file", "under-a-file"])
    def test_census_refuses_an_unusable_cache_dir(self, cache_dir):
        # refused before the header, like an order past the cap
        proc = run_script("enumeration_census.py", "--max-n", "2", "--cache-dir", cache_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"error: --cache-dir {cache_dir} is not a usable directory: " in errors[0]

    def test_census_rejects_an_order_past_the_cap_at_once(self):
        start = time.monotonic()
        proc = run_script("enumeration_census.py", "--max-n", "10")
        assert time.monotonic() - start < 2
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "--max-n 10: EnumConstraints(n=10, edges=None) holds 12005168 classes" in proc.stderr
