#!/usr/bin/env python3
"""Census of isomorphism classes by order, with optional disk caching.

Prints total and connected class counts per order, straight from the
canonical-augmentation enumerator.  With --cache-dir the graph6 streams are
persisted and reused on later runs.

Usage:
    python3 scripts/enumeration_census.py [--max-n 8] [--cache-dir DIR]

An order above FULL_ENUM_CAP (9) is rejected before any walk starts.
"""

import argparse
import time

from kitespec.enumeration import FULL_ENUM_CAP, EnumConstraints, enumerate_cached


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()
    if args.max_n > FULL_ENUM_CAP:
        ap.error(f"--max-n {args.max_n} is past the enumeration cap {FULL_ENUM_CAP}")

    print(f"{'n':>3} {'all':>8} {'connected':>10} {'seconds':>8}")
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        total = len(enumerate_cached(EnumConstraints(n), args.cache_dir))
        connected = len(
            enumerate_cached(EnumConstraints(n, connected_only=True), args.cache_dir)
        )
        elapsed = time.monotonic() - start
        print(f"{n:>3} {total:>8} {connected:>10} {elapsed:>8.2f}")


if __name__ == "__main__":
    main()
