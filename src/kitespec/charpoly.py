"""Exact characteristic polynomials and cospectrality decisions.

Two algorithmically independent routes are provided:

* :func:`charpoly` -- division-free Berkowitz method (the default), run over
  neighbour lists instead of the adjacency matrix,
* :func:`charpoly_interpolated` -- fraction-free (Bareiss) determinants of
  lambda*I - A at n+1 integer points, Lagrange-interpolated back.

Kites need no graph at all: :func:`kite_charpoly` applies the pendant rule
P(G) = lambda*P(G - x1) - P(G - x1 - x2), for a pendant x1 with neighbour x2,
along the path, starting from the binomial closed form of P(K_p).  It is
the one owner of that recurrence: the path polynomials (Kite_{1,n-1} = P_n)
and the two-pendant closed form :func:`closed_form_gc` are read off it.

All results are monic integer polynomials; cospectrality is decided only on
these exact coefficient vectors, never on floating-point spectra.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .graph import Graph
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


def kite_charpoly(p: int, q: int) -> IntPolynomial:
    """Kite polynomial by pendant deletion along the path:
    P(Kite_{p,k}) = lambda*P(Kite_{p,k-1}) - P(Kite_{p,k-2}), starting from
    Kite_{p,0} = K_p and Kite_{p,-1} = K_{p-1}."""
    if p < 1 or q < 0:
        raise ValueError("p >= 1 and q >= 0 required")
    prev = list(closed_form_complete(p - 1).coeffs) if p > 1 else [1]
    cur = list(closed_form_complete(p).coeffs)
    for _ in range(q):
        nxt = [0] + cur
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return IntPolynomial(tuple(cur))


def closed_form_gc(p: int) -> IntPolynomial:
    """Polynomial of K_p with two pendants on distinct clique vertices,
    by pendant deletion: lambda*P(Kite_{p,1}) - P(Kite_{p-1,1}).

    Expanding gives (lambda+1)**(p-3) times a degree-5 factor
    lambda^5 + (3-p)lambda^4 + (1-2p)lambda^3 + (p-5)lambda^2
    + (2p-3)lambda + (3-p).
    """
    if p < 3:
        raise ValueError("p >= 3 required")
    return kite_charpoly(p, 1).shift(1) - kite_charpoly(p - 1, 1)


def path_poly_a(n: int) -> IntPolynomial:
    """n-th solution of a_n = lambda*a_{n-1} - a_{n-2} with a_0 = 1,
    a_1 = lambda; equals the path polynomial P(P_n) for n >= 1, which is
    the kite Kite_{1,n-1}."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return kite_charpoly(1, n - 1) if n else ONE


# -- u-substitution identity ------------------------------------------------


class SingularU(ValueError):
    """u in {0, 1, -1} makes the 1 - u**2 denominators vanish."""


def path_poly_u_value(n: int, u: Fraction) -> Fraction:
    """Closed form a_n(u + 1/u) = u**-n * (1 - u**(2n+2)) / (1 - u**2)."""
    u = Fraction(u)
    if u in (0, 1, -1):
        raise SingularU(f"singular u = {u}")
    return u ** -n * (1 - u ** (2 * n + 2)) / (1 - u**2)


def kite_u_closed_form(p: int, q: int, u: Fraction) -> Fraction:
    """The compact kite closed form at lambda = u + 1/u:

    u**-q * (1 + u + 1/u)**(p-2) / (1 - u**2)
      * [(2-p)*(1 + 1/u - u**(2q+2) - u**(2q+3)) + (1/u**2 - u**(2q+4))]
    """
    u = Fraction(u)
    if u in (0, 1, -1):
        raise SingularU(f"singular u = {u}")
    pre = u ** -q * (1 + u + 1 / u) ** (p - 2) / (1 - u**2)
    bracket = (2 - p) * (1 + 1 / u - u ** (2 * q + 2) - u ** (2 * q + 3)) + (
        u ** -2 - u ** (2 * q + 4)
    )
    return pre * bracket


def kite_u_identity_check(p: int, q: int, u: Fraction) -> bool:
    """With lambda = u + 1/u, compare the compact closed form against the
    exact kite polynomial evaluated at lambda; also re-check the a_n closed
    form at n = q and n = q + 1. All arithmetic is exact rational."""
    if p < 3 or q < 1:
        raise ValueError("p >= 3 and q >= 1 required")
    u = Fraction(u)
    if u in (0, 1, -1):
        raise SingularU(f"singular u = {u}")
    lam = u + 1 / u
    for n in (q, q + 1):
        recur = path_poly_a(n)(lam)
        if recur != path_poly_u_value(n, u):
            return False
    direct = kite_charpoly(p, q)(lam)
    return direct == kite_u_closed_form(p, q, u)


# -- cospectrality and walks -------------------------------------------------


def are_cospectral(g: Graph, h: Graph) -> bool:
    """Exact coefficient-by-coefficient equality of characteristic polynomials."""
    if g.n != h.n:
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

