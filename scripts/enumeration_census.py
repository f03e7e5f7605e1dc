#!/usr/bin/env python3
"""Census of isomorphism classes by order, with optional disk caching.

Prints total and connected class counts per order, straight from the
canonical-augmentation enumerator: one walk per order, whose connected
classes are counted from the same stream.  With --cache-dir each order's
graph6 stream is persisted as ``n{n}.g6`` and reused on later runs.

Usage:
    python3 scripts/enumeration_census.py [--max-n 8] [--cache-dir DIR]

An order past the enumeration cap (n = 10 and above) is refused before any
walk starts, with the message of ``EnumConstraints``; so is a cache
directory that cannot be made.
"""

import argparse
import time
from pathlib import Path

from kitespec.enumeration import EnumConstraints, EnumerationError, enumerate_cached
from kitespec.graph import is_connected


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--cache-dir", default=None)
    args = ap.parse_args()
    try:
        EnumConstraints(args.max_n)
    except EnumerationError as exc:
        ap.error(f"--max-n {args.max_n}: {exc}")
    if args.cache_dir is not None:
        # made before the header, as cache_store would make it
        try:
            Path(args.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            ap.error(f"--cache-dir {args.cache_dir} is not a usable directory: {exc.strerror}")

    print(f"{'n':>3} {'all':>8} {'connected':>10} {'seconds':>8}")
    for n in range(1, args.max_n + 1):
        start = time.monotonic()
        graphs = enumerate_cached(EnumConstraints(n), args.cache_dir)
        connected = sum(map(is_connected, graphs))
        elapsed = time.monotonic() - start
        print(f"{n:>3} {len(graphs):>8} {connected:>10} {elapsed:>8.2f}")


if __name__ == "__main__":
    main()
