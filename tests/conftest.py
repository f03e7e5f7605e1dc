import math
import os
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from kitespec.bounds import GRID_BITS, spectral_radius
from kitespec.charpoly import charpoly, kite_charpoly
from kitespec.das import CensusRow
from kitespec.enumeration import CanonicalKey, canonical_form
from kitespec.graph import Graph, GraphError, from_edges, is_connected
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


def refinement_cells_by_rounds(g: Graph) -> list[list[int]]:
    """Oracle for ``_refinement_cells``: the same iterated refinement run
    over the whole vertex set each round.  A vertex's key is its label plus,
    for each label class in label order, its number of non-neighbours in
    that class; the keys are ranked into the next labels, until a round
    splits no class or the partition is discrete.  The cells are the label
    classes in label order, each with its vertices ascending."""
    n = g.n
    labels = [r.bit_count() for r in g.rows]
    non_adjacent = [~r for r in g.rows]
    count = int.bit_count
    classes = sorted(set(labels))
    while True:
        masks = dict.fromkeys(classes, 0)
        for v, lab in enumerate(labels):
            masks[lab] |= 1 << v
        cellmasks = list(masks.values())
        keys = [
            (lab, tuple(map(count, map(row.__and__, cellmasks))))
            for lab, row in zip(labels, non_adjacent)
        ]
        order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        labels = [order[key] for key in keys]
        if len(order) == len(classes) or len(order) == n:
            break
        classes = range(len(order))
    cells: list[list[int]] = [[] for _ in order]
    for v, lab in enumerate(labels):
        cells[lab].append(v)
    return cells


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
    as (lambda - p + 1)*(lambda + 1)**(p-1) and a_k from ``path_poly``, so
    it shares no code with ``kite_charpoly``."""
    def complete(k):
        return IntPolynomial((1 - k, 1)) * IntPolynomial((1, 1)).pow(k - 1)

    if p == 1:
        return path_poly(q + 1)
    if q == 0:
        return complete(p)
    return path_poly(q) * complete(p) - path_poly(q - 1) * complete(p - 1)


def closed_form_gc(p: int) -> IntPolynomial:
    """Oracle: the polynomial of K_p with two pendants on distinct clique
    vertices, (lambda + 1)**(p-3) times lambda^5 + (3-p)lambda^4
    + (1-2p)lambda^3 + (p-5)lambda^2 + (2p-3)lambda + (3-p), multiplied out
    with no pendant recurrence."""
    quintic = IntPolynomial((3 - p, 2 * p - 3, p - 5, 1 - 2 * p, 3 - p, 1))
    return IntPolynomial((1, 1)).pow(p - 3) * quintic


def closed_form_complete(p: int) -> IntPolynomial:
    """Oracle: (lambda - p + 1) * (lambda + 1)**(p-1), the K_p polynomial, with
    the binomial coefficients written out."""
    if p < 1:
        raise ValueError("p >= 1 required")
    # b[k] = C(p-1, k-1): (lambda + 1)**(p-1) shifted by one power
    b = [0] + [math.comb(p - 1, k) for k in range(p)] + [0]
    return IntPolynomial(tuple(b[k] + (1 - p) * b[k + 1] for k in range(p + 1)))


def census_oracle(n_max: int) -> list[CensusRow]:
    """Oracle for ``verify_theorem31``: one ``kite_charpoly_product(p, q)`` per
    kite, order by order, sharing no code with the packed pendant walk; an
    order is distinct when no two of its polynomials agree."""
    rows = []
    for n in range(4, n_max + 1):
        polys = [kite_charpoly_product(p, n - p) for p in range(3, n)]
        rows.append(CensusRow(n, len(polys), len(set(polys)) == len(polys)))
    return rows


def lemma41_oracle(p_max: int, rhs_squared=None) -> tuple[int, set[tuple[int, int, int]]]:
    """Oracle for ``verify_lemma41_inequality``: each case (p, q, r) decided
    as a Fraction comparison 2m(r-1)/r < (p-1 + 1/p^2 + 1/p^3)^2, or against
    ``rhs_squared(p)`` when given; returns the number of cases and the set of
    violating (p, q, r)."""
    cases, violations = 0, set()
    for p in range(3, p_max + 1):
        if rhs_squared is None:
            rhs = (p - 1 + Fraction(1, p**2) + Fraction(1, p**3)) ** 2
        else:
            rhs = rhs_squared(p)
        for q in range(1, p):
            for r in range(2, p - 2 * q):
                cases += 1
                if not Fraction((p * p - p + 2 * q) * (r - 1), r) < rhs:
                    violations.add((p, q, r))
    return cases, violations


def _primitive(coeffs: list[int]) -> IntPolynomial:
    """Divide an integer polynomial by the gcd of its coefficients, a
    positive constant, so the sign is preserved."""
    g = math.gcd(*coeffs) or 1
    return IntPolynomial(tuple(c // g for c in coeffs))


def sturm_chain(poly: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of ``poly`` by integer pseudo-remainders.  Each division
    step scales the dividend by |lead(g)| > 0, and each remainder is reduced
    to its primitive part, so every element is a positive multiple of the
    rational remainder and the sign-variation counts are intact.  The last
    element is gcd(poly, poly') up to a constant factor."""
    chain = [poly, poly.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        f, g = chain[-2], chain[-1]
        rem = list(f.coeffs)
        gc = g.coeffs
        scale, sign = abs(gc[-1]), 1 if gc[-1] > 0 else -1
        while len(rem) >= len(gc):
            lead = rem.pop() * sign
            if lead:
                shift = len(rem) - len(gc) + 1
                rem = [c * scale for c in rem]
                for k, c in enumerate(gc[:-1]):
                    rem[shift + k] -= lead * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
        chain.append(-_primitive(rem))
    return chain


def squarefree_part(poly: IntPolynomial) -> IntPolynomial:
    """poly / gcd(poly, poly'), which has the same roots, each simple: long
    division over Fraction by the last element of the Sturm chain, then
    cleared of denominators."""
    g = sturm_chain(poly)[-1].coeffs
    rem, quo = [Fraction(c) for c in poly.coeffs], []
    while len(rem) >= len(g):
        factor = rem[-1] / g[-1]
        quo.append(factor)
        for i, c in enumerate(g):
            rem[len(rem) - len(g) + i] -= factor * c
        rem.pop()
    if any(rem):
        raise ArithmeticError(f"{g} does not divide {poly.coeffs}")
    den = math.lcm(*(c.denominator for c in quo))
    return IntPolynomial(tuple(int(c * den) for c in reversed(quo)))


def sturm_count_above(chain: list[IntPolynomial], num: int, k: int) -> int:
    """Number of distinct real roots in (num / 2**k, +inf) of a squarefree
    polynomial, from the signs of its Sturm chain at num / 2**k, each the
    sign of 2**(k*d) * f(num / 2**k) by integer Horner."""
    def sign_at(f):
        total = 0
        for shift, c in enumerate(reversed(f.coeffs)):
            total = total * num + (c << k * shift)
        return (total > 0) - (total < 0)

    def variations(values):
        nz = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(nz, nz[1:]))

    return variations(map(sign_at, chain)) - variations(f.coeffs[-1] for f in chain)


def largest_root_plain(poly: IntPolynomial) -> float:
    """Oracle for ``bounds.largest_root``: the least multiple of
    2**-GRID_BITS with no root above it, by a plain bisection of the grid
    indices from Cauchy's root bound, every index decided by a Sturm count
    on the squarefree part.  Shares no code with the Descartes counts."""
    if poly.degree < 1:
        raise ValueError("a constant polynomial has no real root")
    chain = sturm_chain(squarefree_part(poly))
    lead = abs(poly.coeffs[-1])
    bound = 1 + max(-(-abs(c) // lead) for c in poly.coeffs[:-1])
    lo, hi = -bound << GRID_BITS, bound << GRID_BITS  # every root in (lo, hi)
    if sturm_count_above(chain, lo, GRID_BITS) == 0:
        raise ValueError("polynomial has no real root")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sturm_count_above(chain, mid, GRID_BITS):
            lo = mid
        else:
            hi = mid
    return hi / (1 << GRID_BITS)


# -- the paper's proof steps ------------------------------------------------

X = IntPolynomial((0, 1))


def path_poly(n: int) -> IntPolynomial:
    """a_n = lambda*a_{n-1} - a_{n-2} with a_0 = 1, a_1 = lambda, which is
    P(P_n) for n >= 1; its own loop on coefficient tuples, so it shares no
    code with the package's packed pendant walk."""
    prev, cur = IntPolynomial((1,)), X
    for _ in range(n):
        prev, cur = cur, cur.shift(1) - prev
    return prev


def _regular_u(u) -> Fraction:
    """u as a Fraction; u in {0, 1, -1} makes the 1 - u**2 denominators vanish."""
    u = Fraction(u)
    if u in (0, 1, -1):
        raise ValueError(f"singular u = {u}")
    return u


def path_poly_u_value(n: int, u) -> Fraction:
    """Closed form a_n(u + 1/u) = u**-n * (1 - u**(2n+2)) / (1 - u**2)."""
    u = _regular_u(u)
    return u ** -n * (1 - u ** (2 * n + 2)) / (1 - u**2)


def kite_u_closed_form(p: int, q: int, u) -> Fraction:
    """The paper's compact kite closed form at lambda = u + 1/u:

    u**-q * (1 + u + 1/u)**(p-2) / (1 - u**2)
      * [(2-p)*(1 + 1/u - u**(2q+2) - u**(2q+3)) + (1/u**2 - u**(2q+4))]
    """
    u = _regular_u(u)
    pre = u ** -q * (1 + u + 1 / u) ** (p - 2) / (1 - u**2)
    bracket = (2 - p) * (1 + 1 / u - u ** (2 * q + 2) - u ** (2 * q + 3)) + (
        u ** -2 - u ** (2 * q + 4)
    )
    return pre * bracket


def kite_u_identity_check(p: int, q: int, u) -> bool:
    """With lambda = u + 1/u, compare the compact closed form against the
    package's ``kite_charpoly`` evaluated at lambda; also re-check the a_n
    closed form at n = q and n = q + 1. All arithmetic is exact rational."""
    if p < 3 or q < 1:
        raise ValueError("p >= 3 and q >= 1 required")
    u = _regular_u(u)
    lam = u + 1 / u
    if any(path_poly(n)(lam) != path_poly_u_value(n, u) for n in (q, q + 1)):
        return False
    return kite_charpoly(p, q)(lam) == kite_u_closed_form(p, q, u)


# Nikiforov's bound, the step behind the kite clique bound w(G) >= p - 2q + 1:
# a K_{r+1}-free graph with m edges has rho <= sqrt(2m(r-1)/r).  rho is a
# float, so a bound is certified only when rho clears it by CERT_MARGIN.
CERT_MARGIN = 1e-9


def nikiforov_bound(m: int, r: int) -> float:
    """Spectral-radius ceiling sqrt(2m(r-1)/r) for K_{r+1}-free graphs."""
    if m < 0 or r < 1:
        raise ValueError("m >= 0 and r >= 1 required")
    return math.sqrt(2.0 * m * (r - 1) / r)


def clique_lower_bound_spectral(g: Graph) -> int:
    """Certified clique lower bound: 1 + the largest r with
    rho(G) > sqrt(2m(r-1)/r) + margin; ties are not certified."""
    if g.n == 0 or g.edge_count() == 0:
        return 1 if g.n else 0
    rho = spectral_radius(g)
    m = g.edge_count()
    best = 1
    for r in range(1, g.n):
        if rho > nikiforov_bound(m, r) + CERT_MARGIN:
            best = r + 1
    return best


# -- graph helpers and the pendant-deletion route, called only by tests ------


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def make_star(leaves: int) -> Graph:
    """K_{1,leaves}: hub is vertex 0."""
    if leaves < 0:
        raise GraphError("star needs leaves >= 0")
    return from_edges(leaves + 1, ((0, k) for k in range(1, leaves + 1)))


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
    of the pendant x1; ``charpoly`` once no pendant remains."""
    x1 = next((v for v in range(g.n - 1, -1, -1) if g.rows[v].bit_count() == 1), None)
    if x1 is None:
        return charpoly(g)
    x2 = g.rows[x1].bit_length() - 1
    g1 = subgraph_without(g, {x1})
    g2 = subgraph_without(g, {x1, x2})
    return charpoly_pendant_recursive(g1).shift(1) - charpoly_pendant_recursive(g2)
