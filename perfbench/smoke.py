"""Smoke check of the benchmark itself, in tiny mode; takes well under a
minute.

    python3 perfbench/smoke.py

For every workload it checks that an untraced run reports every end-to-end
metric of BENCHMARK.json (non-zero, right unit) with no failed output, that a
traced run reports every per-layer metric, and that a planted wrong
expectation makes the run fail with a non-zero error rate.  Last, a copy of
the benchmark without the package must exit non-zero and print no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, *extra: str) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[key]]
        expect(len(names) == len(set(names)), f"{key} names are unique")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")

    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, result = run(ROOT, w, "--tiny", "--trace", trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(rc == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{w} trace {trace}: exit 0, every output correct")
            expect(got == want, f"{w} trace {trace}: metric names and units match BENCHMARK.json")
            if trace == "0" and result:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{w}: no end-to-end metric is 0")
        rc, result = run(ROOT, w, "--tiny", "--trace", "0", "--plant-wrong")
        expect(rc != 0 and result is not None and not result["correct"] and result["failed"] > 0,
               f"{w}: a planted wrong expectation raises the error rate and fails the run")

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, result = run(bare, spec["workloads"][0]["name"], "--trace", "0")
        expect(rc != 0 and result is None, "without the package: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
