#!/usr/bin/env python3
"""Time charpoly per call on seeded G(n, p), one JSON object per line.

For each order n and edge probability p it builds --graphs seeded G(n, p),
times CALLS calls of charpoly on each, and prints the median per-call time
over the graphs with its quartiles, in microseconds.  The graphs depend only
on SEED, n and p, so another checkout is timed on the same inputs by
pointing PYTHONPATH at its src/.

Usage:
    PYTHONPATH=src python3 scripts/charpoly_timing.py [--min-n 6] [--max-n 24]
        [--p 0.2,0.5,0.9] [--graphs 30]
"""

import argparse
import json
import random
import statistics
import time

from kitespec.charpoly import charpoly
from kitespec.graph import HARD_CAP, from_edges

CALLS = 5
SEED = 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-n", type=int, default=6)
    ap.add_argument("--max-n", type=int, default=HARD_CAP)
    ap.add_argument("--p", default="0.2,0.5,0.9", help="comma-separated edge probabilities")
    ap.add_argument("--graphs", type=int, default=30)
    args = ap.parse_args()
    if args.graphs < 1:
        ap.error(f"--graphs must be at least 1, got {args.graphs}")
    for flag, n in (("--min-n", args.min_n), ("--max-n", args.max_n)):
        if not 0 <= n <= HARD_CAP:
            ap.error(f"{flag} must be in 0..{HARD_CAP}, got {n}")
    try:
        probabilities = [float(p) for p in args.p.split(",")]
    except ValueError:
        ap.error(f"--p must be comma-separated numbers, got {args.p!r}")
    for p in probabilities:
        if not 0 <= p <= 1:
            ap.error(f"--p values must be in [0, 1], got {p}")

    for n in range(args.min_n, args.max_n + 1):
        for p in probabilities:
            rng = random.Random(f"{SEED}:{n}:{p}")
            per_call = []
            for _ in range(args.graphs):
                g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
                start = time.perf_counter()
                for _ in range(CALLS):
                    charpoly(g)
                per_call.append((time.perf_counter() - start) / CALLS * 1e6)
            q1, median, q3 = statistics.quantiles(per_call, n=4) if len(per_call) > 1 else per_call * 3
            print(json.dumps({"n": n, "p": p, "us_per_call": round(median, 1),
                              "q1": round(q1, 1), "q3": round(q3, 1)}), flush=True)


if __name__ == "__main__":
    main()
