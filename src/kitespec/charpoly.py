"""Exact characteristic polynomials and cospectrality decisions.

Two algorithmically independent routes are provided:

* :func:`charpoly` -- Newton's identities, every division checked exact, on
  the closed-walk counts tr(A^k), k <= n, from rows of A^k packed in ints,
* :func:`charpoly_interpolated` -- fraction-free (Bareiss) determinants of
  lambda*I - A at n+1 integer points, Lagrange-interpolated back.

Kites need no graph at all: the pendant rule P(G) = lambda*P(G - x1) -
P(G - x1 - x2), for a pendant x1 with neighbour x2, runs from P(K_p) along the
path on Kronecker-packed ints, polynomials evaluated at X = 2^w, one shift and
one subtraction a step.  That walk owns the recurrence: :func:`kite_charpoly`
unpacks its last term, and P(P_n) is Kite_{1,n-1}.  The rule is linear and
P(K_p), P(K_{p-1}) share the factor (lambda + 1)^(p-2), so the walk from both
divided by it gives the radius factor :func:`kite_radius_factor`, of degree
q + 2, which every kite radius is read from.  The u + 1/u and expanded K_p
closed forms are test oracles.

All results are monic integer polynomials; cospectrality is decided only on
these exact coefficient vectors, never on floating-point spectra.
"""

from __future__ import annotations

from operator import mul
from typing import Iterator

from .graph import Graph, _bits, triangle_count
from .polynomial import IntPolynomial, ONE, lagrange_integer


def charpoly(g: Graph) -> IntPolynomial:
    """det(lambda*I - A(G)) from the closed walks p_k = tr(A^k) by Newton's
    identities, c_k = -(c_{k-1} p_1 + ... + c_0 p_k) / k for the coefficient of
    lambda^(n-k); a division that is not exact raises ArithmeticError."""
    sums = _power_sums(g)
    c = [1]
    for k in range(1, g.n + 1):
        q, r = divmod(-sum(map(mul, reversed(c), sums[1 : k + 1])), k)
        if r:
            raise ArithmeticError(f"Newton's identity at k = {k} leaves remainder {r}")
        c.append(q)
    return IntPolynomial(tuple(reversed(c)))


def _power_sums(g: Graph) -> list[int]:
    """[tr(A^0), ..., tr(A^n)], the closed-walk counts.  Row i of A^k is one
    int with one lane per column; an entry of A^k counts walks, at most
    Delta^k <= Delta^n, so a lane of that many bits never carries into the
    next, and row i of A^(k+1) is the sum of its neighbours' rows of A^k."""
    n = g.n
    width = (max(map(int.bit_count, g.rows), default=0) ** n).bit_length() or 1
    lane = (1 << width) - 1
    nbrs = [_bits(row) for row in g.rows]
    power = [1 << i * width for i in range(n)]
    sums = [n]
    for _ in range(n):
        power = [sum(map(power.__getitem__, nb)) for nb in nbrs]
        sums.append(sum(row >> i * width & lane for i, row in enumerate(power)))
    return sums


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


# -- kites by the pendant rule ------------------------------------------------


def _kite_width(n: int) -> int:
    """A packing width w for every kite of order <= n.  Kite_{p,q}'s absolute
    coefficients sum to at most B(q) = p*2^(p+q-1): K_p's and K_{p-1}'s to at
    most B(0), and a pendant step adds two earlier sums, at most 2*B(q-1).  So
    |c| <= p*2^(n-1) < 2^(w-1), and each c is one balanced base-2^w digit.
    R_{p,q}'s sums, from p - 1 and 2p - 2 at q = -1 and 0, are at most
    p*2^(q+1) <= B(q) for p >= 2 by the same step, so R fits w too."""
    return n + n.bit_length()


def _kite_packed(p: int, q_max: int, w: int, drop: int = 0) -> Iterator[int]:
    """P(Kite_{p,q}) / (X + 1)^drop at X = 2^w for q = 0, ..., q_max, where
    drop <= max(p - 2, 0): P_q = X*P_{q-1} - P_{q-2} from P_0, K_p =
    (X - p + 1)(X + 1)^(p-1), and P_{-1}, K_{p-1} (1 for p = 1), each divided."""
    if p < 1 or q_max < 0:
        raise ValueError("p >= 1 and q >= 0 required")
    x = 1 << w
    prev = (x - p + 2) * (x + 1) ** (p - 2 - drop) if p > 1 else 1
    cur = (x - p + 1) * (x + 1) ** (p - 1 - drop)
    yield cur
    for _ in range(q_max):
        prev, cur = cur, (cur << w) - prev
        yield cur


def _unpack(v: int, w: int) -> tuple[int, ...]:
    """The balanced base-2^w digits of v, lowest first: the packed coefficients."""
    half, mask, coeffs = 1 << w - 1, (1 << w) - 1, []
    while v:
        v += half
        coeffs.append((v & mask) - half)
        v >>= w
    return tuple(coeffs)


def _kite_last(p: int, q: int, drop: int) -> IntPolynomial:
    """The last term of the packed walk, unpacked."""
    w = _kite_width(p + q)
    *_, v = _kite_packed(p, q, w, drop)
    return IntPolynomial(_unpack(v, w))


def kite_charpoly(p: int, q: int) -> IntPolynomial:
    """The kite polynomial P(Kite_{p,q})."""
    return _kite_last(p, q, 0)


def kite_radius_factor(p: int, q: int) -> IntPolynomial:
    """R_{p,q} = P(Kite_{p,q}) / (lambda + 1)^max(p-2, 0), with P's roots above
    -1: the others are all -1, and the radius is at least 1 for p >= 2."""
    return _kite_last(p, q, max(p - 2, 0))


# -- cospectrality and walks -------------------------------------------------


def are_cospectral(g: Graph, h: Graph) -> bool:
    """Exact coefficient-by-coefficient equality of characteristic polynomials.
    The order, the edge count (tr A^2 / 2) and the triangle count (tr A^3 / 6)
    are spectral, so a pair that differs in one of them is decided first."""
    if g.n != h.n or g.edge_count() != h.edge_count() or triangle_count(g) != triangle_count(h):
        return False
    return charpoly(g) == charpoly(h)


def walk_count(g: Graph, i: int) -> int:
    """tr(A**i), the number of closed walks of length i, by dense integer
    matrix powering, which shares no code with :func:`charpoly`'s power sums."""
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

