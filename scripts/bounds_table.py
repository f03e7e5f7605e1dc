#!/usr/bin/env python3
"""Tabulate the kite spectral radius against its closed-form sandwich.

For each p the bounds depend only on p; the table shows how the radius
approaches the clique limit p - 1 as the tail grows.  Each radius is the
largest root of the kite's degree-(q + 2) radius factor, from the pendant
recurrence with no matrix built.

Usage:
    python3 scripts/bounds_table.py [--max-p 12] [--max-q 8]
"""

import argparse

from kitespec.bounds import kite_radius_bounds, largest_root
from kitespec.charpoly import kite_radius_factor
from kitespec.graph import HARD_CAP


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-p", type=int, default=12)
    ap.add_argument("--max-q", type=int, default=8)
    args = ap.parse_args()

    for p in range(3, args.max_p + 1):
        lower, upper = kite_radius_bounds(p)
        print(f"p = {p}:  {lower:.10f} < rho < {upper:.10f}")
        # the kite must fit the graph cap: p + q <= HARD_CAP
        for q in range(1, min(args.max_q, HARD_CAP - p) + 1):
            rho = largest_root(kite_radius_factor(p, q))
            margin = min(rho - lower, upper - rho)
            print(f"    q = {q:>2}: rho = {rho:.10f}   (margin {margin:.3e})")


if __name__ == "__main__":
    main()
