"""Reference answers that do not go through kitespec.

Graphs here are plain ``(n, edges)`` pairs.  The benchmark builds its inputs
from them, encodes graph6 itself, and checks the program's answers against
Pólya counting, numpy eigenvalues, and small exact searches written here.
"""

from __future__ import annotations

from collections import Counter
from math import comb, factorial, gcd, prod


# -- graphs as edge lists ------------------------------------------------------


def gnp_edges(rng, n: int) -> list[tuple[int, int]]:
    """G(n, 1/2)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def kite_edges(p: int, q: int) -> list[tuple[int, int]]:
    """K_p on 0..p-1 with a path of q vertices hung on vertex p-1."""
    return complete_edges(p) + [(p - 1 + k, p + k) for k in range(q)]


def relabel(edges, perm) -> list[tuple[int, int]]:
    return [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]


def neighbor_masks(n: int, edges) -> list[int]:
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return rows


def graph6(n: int, edges) -> str:
    """Standard graph6 for n <= 62: upper triangle, column by column."""
    rows = neighbor_masks(n, edges)
    bits = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def triangles(n: int, edges) -> int:
    rows = neighbor_masks(n, edges)
    return sum((rows[i] & rows[j]).bit_count() for i, j in edges) // 3


def connected(n: int, edges) -> bool:
    rows = neighbor_masks(n, edges)
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for u in range(n):
            if rows[v] >> u & 1 and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == n


def clique_number(n: int, edges) -> int:
    """Largest clique by plain branch and bound over vertex order."""
    rows = neighbor_masks(n, edges)
    best = 1 if n else 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(size + 1, cand & rows[v])

    grow(0, (1 << n) - 1)
    return best


def eigenvalues(n: int, edges) -> list[float]:
    """Adjacency spectrum by numpy, descending."""
    import numpy

    a = numpy.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return sorted(numpy.linalg.eigvalsh(a).tolist(), reverse=True)


# -- counts ---------------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def graph_counts_by_edges(n: int) -> list[int]:
    """Isomorphism classes of graphs on n vertices, by edge count, from
    Pólya's theorem: average over S_n of prod over the cycles that a
    permutation induces on vertex pairs of (1 + x**length)."""
    total = [0] * (comb(n, 2) + 1)
    for cycle_type in _partitions(n):
        size = factorial(n) // prod(
            j**m * factorial(m) for j, m in Counter(cycle_type).items()
        )
        lengths = []
        for idx, a in enumerate(cycle_type):
            lengths += [a] * ((a - 1) // 2)
            if a % 2 == 0:
                lengths.append(a // 2)
            for b in cycle_type[idx + 1 :]:
                lengths += [a * b // gcd(a, b)] * gcd(a, b)
        poly = [1]
        for length in lengths:
            nxt = poly + [0] * length
            for k, c in enumerate(poly):
                nxt[k + length] += c
            poly = nxt
        for k, c in enumerate(poly):
            total[k] += size * c
    return [t // factorial(n) for t in total]


def lemma41_check_count(max_p: int) -> int:
    """Number of (p, q, r) with 3 <= p <= max_p, q >= 1, p - 2q >= 3 and
    2 <= r < p - 2q: the inequalities the Lemma 4.1 sweep must decide."""
    return sum(
        max(0, p - 2 * q - 2)
        for p in range(3, max_p + 1)
        for q in range(1, (p - 3) // 2 + 1)
    )


def kite_radius_bounds(p: int) -> tuple[float, float]:
    """The paper's sandwich p-1 + 1/p^2 + 1/p^3 < rho < p-1 + 1/(4p) + 1/(p^2-2p)."""
    return (
        p - 1 + 1.0 / p**2 + 1.0 / p**3,
        p - 1 + 1.0 / (4 * p) + 1.0 / (p * p - 2 * p),
    )
