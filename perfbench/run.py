"""kitespec benchmark.

    python3 perfbench/run.py --workload das-p7-w2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: das-p7-w2, census-n8, cli-mix (see perfbench/README.md).  With
``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of a
separate traced run.  ``--tiny`` shrinks every input so a run takes seconds.
Exit status 0 when every output checked out, 1 on any mismatch, 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("graph", "polynomial", "charpoly", "bounds", "enumeration", "das", "cli")
SETUP_REPEATS = 7

# name -> unit; the order is the order of BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import every kitespec module afresh and return them as attributes."""
    for name in [m for m in sys.modules if m == "kitespec" or m.startswith("kitespec.")]:
        del sys.modules[name]
    return argparse.Namespace(
        **{m: importlib.import_module(f"kitespec.{m}") for m in MODULES}
    )


def setup(workload, seed: int):
    """Import plus input generation, SETUP_REPEATS times; returns the modules
    and inputs of the last round and every round's seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ks = import_package()
        workload.make_inputs(ks, random.Random(seed))
        times.append(perf_counter() - t0)
    return ks, times


def tail(latencies: list[float], q: float | None) -> float:
    """The workload's fixed tail quantile ``q`` of the latencies (inclusive
    method), or their median when it has none."""
    if q is None or len(latencies) < 2:
        return statistics.median(latencies)
    return statistics.quantiles(latencies, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """This process's peak resident set plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload, ks, seconds: float) -> tuple[dict, list]:
    """Closed loop: whole iterations until the next one would pass
    ``seconds`` of measured time.  Returns the metrics and the outputs,
    which are checked later, once the peak memory has been read."""
    latencies: list[float] = []
    outputs: list = []
    measured = 0.0
    iterations = 0
    while True:
        t0 = perf_counter()
        lat, out = workload.iteration(ks, iterations)
        measured += perf_counter() - t0
        iterations += 1
        latencies += lat
        outputs += out
        if measured * (iterations + 1) / iterations > seconds and len(latencies) >= workload.min_requests:
            break
    print(f"{workload.name}: {len(latencies)} requests in {iterations} iterations, "
          f"{measured:.3f} s measured")
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail(latencies, workload.tail_q) * 1e3,
        "requests_per_s": len(latencies) / measured,
    }
    return values, outputs


def run_one(args) -> int:
    from workloads import WORKLOADS

    os.environ.pop("KITESPEC_CACHE_DIR", None)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        workload = WORKLOADS[args.workload](args.tiny, args.plant_wrong, workdir)
        ks, setup_times = setup(workload, args.seed)
        print("inputs:", json.dumps(workload.describe()))
        if args.trace:
            metrics, attempted, failed = workload.traced(ks, args.seed, ROOT / ".perfbench_out")
        else:
            timed, outputs = measure(workload, ks, args.seconds)
            # read before any reference check runs, so the checker's own
            # memory (numpy, reference caches) stays out of the figure
            rss = peak_rss_mb()
            attempted, failed = workload.verify(ks, outputs)
            # set up again at the end, so the median spans the whole run
            # rather than one spell of the shared cores
            setup_times += setup(workload, args.seed)[1]
            values = {"setup_s": statistics.median(setup_times), **timed, "peak_rss_mb": rss}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'error_rate':40s} {failed / attempted:>16.6f} ({failed} of {attempted} failed)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and memory are its own."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--plant-wrong"] * args.plant_wrong
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="das-p7-w2, census-n8, cli-mix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="plant one wrong expectation, to show the checks catch it")
    args = parser.parse_args(argv)
    if not (SRC / "kitespec" / "__init__.py").is_file():
        print(f"error: no kitespec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
