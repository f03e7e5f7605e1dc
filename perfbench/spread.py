"""Run one workload over several seeds and report, per metric, the median
and the quartile spread (Q3 - Q1) / median, which is what the bounds in
BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload cli-mix --seeds 1-10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path, help="also write the raw results as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:40s} {median:14.6g} {spread:8.4f} {bound if bound is not None else '':>6}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
