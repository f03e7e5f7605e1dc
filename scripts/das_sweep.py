#!/usr/bin/env python3
"""Sweep the exhaustive cospectral-mate search over a range of kites.

Each kite goes through ``verify_kite``: for q = 2 the scan is a full
verification at that order; for q > 2 it is evidence only.  Prints one row
per (p, q) and exits 2 if any mate is found.

Usage:
    python3 scripts/das_sweep.py [--max-order 9] [--workers 4]

A usage error (a malformed argument, an order below 5, that of Kite_{3,2},
the smallest kite scanned, or above DESK_ORDER_MAX (9), fewer than one
worker) is one ``error:`` line and exit code 1, before any
search starts.
"""

import argparse
import sys
import time

from kitespec.das import DESK_ORDER_MAX, VERDICT_DAS, verify_kite


class _Parser(argparse.ArgumentParser):
    """Exit 1 with one ``error:`` line on a usage error: exit 2 means a mate."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def main() -> int:
    ap = _Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=9, help="largest p + q to scan")
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()
    if args.max_order < 5:
        ap.error(f"--max-order {args.max_order} is below 5, the order of "
                 f"Kite_{{3,2}}, the smallest kite scanned")
    if args.max_order > DESK_ORDER_MAX:
        ap.error(f"--max-order {args.max_order} is past the desk-scale range "
                 f"p + q <= {DESK_ORDER_MAX}")
    if args.workers < 1:
        ap.error(f"--workers must be at least 1, got {args.workers}")

    failures = 0
    print(f"{'p':>3} {'q':>3} {'n':>3} {'classes':>9} {'survivors':>9} "
          f"{'seconds':>8}  verdict")
    for p in range(3, args.max_order - 1):
        for q in range(2, args.max_order - p + 1):
            start = time.monotonic()
            rep = verify_kite(p, q, workers=args.workers)
            elapsed = time.monotonic() - start
            tag = rep.verdict if rep.claim == "exhaustive" else f"{rep.verdict} (evidence)"
            print(f"{p:>3} {q:>3} {rep.n:>3} {rep.classes_scanned:>9} "
                  f"{rep.prefilter_survivors:>9} {elapsed:>8.2f}  {tag}")
            if rep.verdict != VERDICT_DAS:
                failures += 1
                for mate in rep.mates:
                    print(f"        mate: {mate}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
