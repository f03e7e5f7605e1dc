import os
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from kitespec.charpoly import charpoly, kite_charpoly
from kitespec.das import CensusRow
from kitespec.enumeration import CanonicalKey, canonical_form
from kitespec.graph import Graph, from_edges, is_connected
from kitespec.polynomial import IntPolynomial


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


@pytest.fixture
def rng():
    return random.Random(0x5EED)


# the extended checks (n = 8 and 9 walks, the p = 7 search) run only when
# KITESPEC_EXTENDED=1
extended = pytest.mark.skipif(
    os.environ.get("KITESPEC_EXTENDED") != "1", reason="set KITESPEC_EXTENDED=1"
)


# -- oracles that check the package from outside ----------------------------


def brute_force_classes(n: int, connected_only: bool = False) -> set[CanonicalKey]:
    """Oracle: canonicalize every labeled graph on n vertices directly."""
    keys = set()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        if connected_only and not is_connected(g):
            continue
        keys.add(canonical_form(g))
    return keys


def brute_force_search(g: Graph, cells: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Oracle for ``_canonical_search``: the least column encoding over every
    ordering that lists the cells in turn, each in any order, and the
    bitmask of vertices that end some ordering reaching it.  Column j holds
    the adjacencies of position j to positions 0..j-1, the earliest in the
    highest bit."""
    best, last = None, 0
    for parts in product(*map(permutations, cells)):
        order = [v for part in parts for v in part]
        cols = tuple(
            sum((g.rows[v] >> order[i] & 1) << (j - 1 - i) for i in range(j))
            for j, v in enumerate(order)
        )
        if best is None or cols < best:
            best, last = cols, 0
        if cols == best:
            last |= 1 << order[-1]
    return best, last


def spectrum_sane(values: list[float], edge_count: int, tol: float = 1e-12) -> bool:
    """Trace checks: the eigenvalues sum to 0 and their squares to 2m."""
    n = len(values)
    if abs(sum(values)) > n * max(tol, 1e-9):
        return False
    return abs(sum(v * v for v in values) - 2 * edge_count) <= n * n * max(tol, 1e-9)


def coefficient_edge_count(poly: IntPolynomial) -> int:
    """Edge count read off the lambda^{n-2} coefficient (which equals -m)."""
    return -poly[poly.degree - 2] if poly.degree >= 2 else 0


def coefficient_triangle_count(poly: IntPolynomial) -> int:
    """Triangle count read off the lambda^{n-3} coefficient (equals -2t)."""
    if poly.degree < 3:
        return 0
    c = poly[poly.degree - 3]
    assert c % 2 == 0
    return -c // 2


def kite_charpoly_product(p: int, q: int) -> IntPolynomial:
    """Oracle: a_q*P(K_p) - a_{q-1}*P(K_{p-1}), with P(K_p) multiplied out
    as (lambda - p + 1)*(lambda + 1)**(p-1) and a_k from its own recurrence,
    so it shares no code with ``kite_charpoly``."""
    def complete(k):
        return IntPolynomial((1 - k, 1)) * IntPolynomial((1, 1)).pow(k - 1)

    def a(k):  # a_k = lambda*a_{k-1} - a_{k-2}, a_0 = 1, a_1 = lambda
        prev, cur = IntPolynomial((1,)), IntPolynomial((0, 1))
        for _ in range(k):
            prev, cur = cur, cur.shift(1) - prev
        return prev

    if p == 1:
        return a(q + 1)
    if q == 0:
        return complete(p)
    return a(q) * complete(p) - a(q - 1) * complete(p - 1)


def closed_form_gc(p: int) -> IntPolynomial:
    """Oracle: the polynomial of K_p with two pendants on distinct clique
    vertices, (lambda + 1)**(p-3) times lambda^5 + (3-p)lambda^4
    + (1-2p)lambda^3 + (p-5)lambda^2 + (2p-3)lambda + (3-p), multiplied out
    with no pendant recurrence."""
    quintic = IntPolynomial((3 - p, 2 * p - 3, p - 5, 1 - 2 * p, 3 - p, 1))
    return IntPolynomial((1, 1)).pow(p - 3) * quintic


def census_oracle(n_max: int) -> list[CensusRow]:
    """Oracle for ``verify_theorem31``: one ``kite_charpoly(p, q)`` per kite,
    order by order, each compared with the kites of that order before it."""
    rows = []
    for n in range(4, n_max + 1):
        first, collisions = {}, []
        for p in range(3, n):
            coeffs = kite_charpoly(p, n - p).coeffs
            if coeffs in first:
                collisions.append((first[coeffs], (p, n - p)))
            else:
                first[coeffs] = (p, n - p)
        rows.append(CensusRow(n, len(first) + len(collisions), not collisions, collisions))
    return rows


def lemma41_oracle(p_max: int) -> tuple[int, set[tuple[int, int, int]]]:
    """Oracle for ``verify_lemma41_inequality``: each case (p, q, r) decided
    as a Fraction comparison 2m(r-1)/r < (p-1 + 1/p^2 + 1/p^3)^2; returns
    the number of cases and the set of violating (p, q, r)."""
    cases, violations = 0, set()
    for p in range(3, p_max + 1):
        rhs = (p - 1 + Fraction(1, p**2) + Fraction(1, p**3)) ** 2
        for q in range(1, p):
            for r in range(2, p - 2 * q):
                cases += 1
                if not Fraction((p * p - p + 2 * q) * (r - 1), r) < rhs:
                    violations.add((p, q, r))
    return cases, violations


# -- graph helpers and the pendant-deletion route, called only by tests ------


def edge_list(g: Graph) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, in row order."""
    return [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.rows[i] >> j & 1]


def relabel(g: Graph, perm) -> Graph:
    """New graph where new vertex ``k`` is old vertex ``perm[k]``."""
    new = {v: k for k, v in enumerate(perm)}
    return from_edges(g.n, ((new[i], new[j]) for i, j in edge_list(g)))


def subgraph_without(g: Graph, removed: set[int]) -> Graph:
    """Induced subgraph on the vertices outside ``removed``, in their order."""
    pos = {v: k for k, v in enumerate(v for v in range(g.n) if v not in removed)}
    return from_edges(len(pos), ((pos[i], pos[j]) for i, j in edge_list(g) if i in pos and j in pos))


def charpoly_pendant_recursive(g: Graph) -> IntPolynomial:
    """Oracle: strip pendant vertices (highest index first) with the deletion
    rule P(G) = lambda*P(G - x1) - P(G - x1 - x2), where x2 is the neighbour
    of the pendant x1; Berkowitz once no pendant remains."""
    x1 = next((v for v in range(g.n - 1, -1, -1) if g.rows[v].bit_count() == 1), None)
    if x1 is None:
        return charpoly(g)
    x2 = g.rows[x1].bit_length() - 1
    g1 = subgraph_without(g, {x1})
    g2 = subgraph_without(g, {x1, x2})
    return charpoly_pendant_recursive(g1).shift(1) - charpoly_pendant_recursive(g2)
