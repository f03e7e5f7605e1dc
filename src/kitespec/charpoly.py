"""Exact characteristic polynomials and cospectrality decisions.

Two algorithmically independent routes are provided:

* :func:`charpoly` -- division-free Berkowitz method (the default), run over
  neighbour lists instead of the adjacency matrix,
* :func:`charpoly_interpolated` -- fraction-free (Bareiss) determinants of
  lambda*I - A at n+1 integer points, Lagrange-interpolated back.

Kites need no graph at all: :func:`kite_charpoly_series` applies the pendant
rule P(G) = lambda*P(G - x1) - P(G - x1 - x2), for a pendant x1 with neighbour
x2, along the path from the binomial closed form of P(K_p), one term per tail
length.  It is the one owner of that recurrence: :func:`kite_charpoly` is its
last term, and the path polynomial P(P_n) is Kite_{1,n-1}.  The paper's
lambda = u + 1/u closed form is a test oracle in ``tests/conftest.py``.

All results are monic integer polynomials; cospectrality is decided only on
these exact coefficient vectors, never on floating-point spectra.
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import Iterator

from .graph import Graph, triangle_count
from .polynomial import IntPolynomial, ONE, lagrange_integer


def charpoly(g: Graph) -> IntPolynomial:
    """det(lambda*I - A(G)) by the Berkowitz division-free algorithm.

    A is 0/1 with a zero diagonal, so every product with a row of A is a sum
    over that vertex's neighbours among the vertices added so far."""
    n = g.n
    if n == 0:
        return ONE
    # below[r]: neighbours of r among vertices 0..i-1 at step i
    below: list[list[int]] = [[] for _ in range(n)]
    # vec holds the coefficients of the leading principal charpoly,
    # highest power first
    vec = [1, 0]
    for i in range(1, n):
        nbrs = [j for j in range(i) if g.rows[i] >> j & 1]
        # Toeplitz column: 1, -a_ii, -row.col, -row.A.col, ...
        t = [1, 0, -len(nbrs)]
        v = [0] * i
        for j in nbrs:
            v[j] = 1
        active = below[:i]
        for _ in range(i - 1):
            v = [sum(map(v.__getitem__, nb)) for nb in active]
            t.append(-sum(map(v.__getitem__, nbrs)))
        vec = [sum(map(mul, vec[: r + 1], t[r::-1])) for r in range(i + 2)]
        for j in nbrs:
            below[j].append(i)
        below[i] = nbrs
    return IntPolynomial(tuple(reversed(vec)))


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly_interpolated(g: Graph) -> IntPolynomial:
    """Evaluate det(x*I - A) at x = 0..n by Bareiss elimination and
    interpolate the degree-n polynomial through those points."""
    n = g.n
    if n == 0:
        return ONE
    a = g.adjacency_matrix()
    points = []
    for x in range(n + 1):
        m = [[(x if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        points.append((x, bareiss_det(m)))
    return lagrange_integer(points)


# -- closed forms ----------------------------------------------------------


def closed_form_complete(p: int) -> IntPolynomial:
    """(lambda - p + 1) * (lambda + 1)**(p-1), the K_p polynomial."""
    if p < 1:
        raise ValueError("p >= 1 required")
    # b[k] = C(p-1, k-1): (lambda + 1)**(p-1) shifted by one power
    b = [0] + [comb(p - 1, k) for k in range(p)] + [0]
    return IntPolynomial(tuple(b[k] + (1 - p) * b[k + 1] for k in range(p + 1)))


def kite_charpoly_series(p: int, q_max: int) -> Iterator[tuple[int, ...]]:
    """Coefficients of P(Kite_{p,q}) for q = 0, ..., q_max by pendant deletion:
    P(Kite_{p,k}) = lambda*P(Kite_{p,k-1}) - P(Kite_{p,k-2}), starting from
    Kite_{p,0} = K_p and Kite_{p,-1} = K_{p-1}."""
    if p < 1 or q_max < 0:
        raise ValueError("p >= 1 and q >= 0 required")
    prev = closed_form_complete(p - 1).coeffs if p > 1 else (1,)
    cur = closed_form_complete(p).coeffs
    yield cur
    for _ in range(q_max):
        nxt = [0, *cur]
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, tuple(nxt)
        yield cur


def kite_charpoly(p: int, q: int) -> IntPolynomial:
    """The kite polynomial, the last term of :func:`kite_charpoly_series`."""
    *_, coeffs = kite_charpoly_series(p, q)
    return IntPolynomial(coeffs)


# -- cospectrality and walks -------------------------------------------------


def are_cospectral(g: Graph, h: Graph) -> bool:
    """Exact coefficient-by-coefficient equality of characteristic polynomials.
    The order, the edge count (tr A^2 / 2) and the triangle count (tr A^3 / 6)
    are spectral, so a pair that differs in one of them is decided first."""
    if g.n != h.n or g.edge_count() != h.edge_count() or triangle_count(g) != triangle_count(h):
        return False
    return charpoly(g) == charpoly(h)


def walk_count(g: Graph, i: int) -> int:
    """tr(A**i), the number of closed walks of length i, by exact integer
    matrix powering."""
    if i < 1:
        raise ValueError("walk length must be >= 1")
    a = g.adjacency_matrix()
    power = a
    for _ in range(i - 1):
        power = _matmul(power, a)
    return sum(power[k][k] for k in range(g.n))


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]

