#!/usr/bin/env python3
"""Tabulate the kite spectral radius against its closed-form sandwich.

For each p the bounds depend only on p; the table shows how the radius
approaches the clique limit p - 1 as the tail grows.

Usage:
    python3 scripts/bounds_table.py [--max-p 12] [--max-q 8]
"""

import argparse

from kitespec.bounds import kite_radius_bounds, spectral_radius
from kitespec.graph import HARD_CAP, make_kite


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-p", type=int, default=12)
    ap.add_argument("--max-q", type=int, default=8)
    args = ap.parse_args()

    for p in range(3, args.max_p + 1):
        lower, upper = kite_radius_bounds(p)
        print(f"p = {p}:  {lower:.10f} < rho < {upper:.10f}")
        for q in range(1, args.max_q + 1):
            if p + q > HARD_CAP:
                break
            rho = spectral_radius(make_kite(p=p, q=q))
            margin = min(rho - lower, upper - rho)
            print(f"    q = {q:>2}: rho = {rho:.10f}   (margin {margin:.3e})")


if __name__ == "__main__":
    main()
