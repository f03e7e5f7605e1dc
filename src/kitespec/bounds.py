"""Numerical spectra and the clique/spectral-radius bound machinery.

The eigensolver is a plain cyclic Jacobi rotation scheme (symmetric input,
unconditional convergence).  The spectral radius is additionally certified by
Sturm-sequence bisection on the exact characteristic polynomial, so the
headline quantity never depends on floating point alone.  The Sturm chain is
built from integer pseudo-remainders and signs are taken at dyadic points by
integer Horner, so root isolation never leaves the integers.  A float hint
only places a bracket that exact Sturm counts certify (``largest_root``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .charpoly import charpoly
from .graph import Graph
from .polynomial import IntPolynomial

JACOBI_SWEEP_CAP = 100
RADIUS_TOL = 1e-10
NEWTON_CAP = 200
LEMMA41_P_MAX = 100


class ConvergenceError(RuntimeError):
    pass


def jacobi_eigenvalues(matrix: list[list[float]], tol: float = 1e-12) -> list[float]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi sweeps, iterated
    until the off-diagonal Frobenius norm drops below ``tol``."""
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    for _ in range(JACOBI_SWEEP_CAP):
        off = math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < tol:
            return sorted((a[i][i] for i in range(n)), reverse=True)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    raise ConvergenceError(f"Jacobi did not converge in {JACOBI_SWEEP_CAP} sweeps")


def eigenvalues(g: Graph, tol: float = 1e-12) -> list[float]:
    """All adjacency eigenvalues, sorted descending."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return jacobi_eigenvalues(g.adjacency_matrix(), tol)


# -- Sturm sequences ---------------------------------------------------------


def _primitive(coeffs: list[int]) -> IntPolynomial:
    """Divide an integer polynomial by the gcd of its coefficients, a
    positive constant, so the sign is preserved."""
    g = math.gcd(*coeffs) or 1
    return IntPolynomial(tuple(c // g for c in coeffs))


def sturm_chain(poly: IntPolynomial) -> list[IntPolynomial]:
    """Sturm chain of ``poly`` by integer pseudo-remainders.  Each division
    step scales the dividend by |lead(g)| > 0, and each remainder is reduced
    to its primitive part, so every element is a positive multiple of the
    rational remainder and the sign-variation counts are intact."""
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


def _poly_div_exact(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Quotient f/g by integer long division, returned primitive.  For a
    primitive g that divides f the quotient is integral (Gauss's lemma).
    An inexact step leaves its non-zero residue in a coefficient that no
    later step touches, so one remainder check catches it: raises
    ArithmeticError unless g divides f over the integers."""
    rem = list(f.coeffs)
    quo = [0] * (f.degree - g.degree + 1)
    glead = g.coeffs[-1]
    for k in range(f.degree - g.degree, -1, -1):
        quo[k] = factor = rem[k + g.degree] // glead
        for i, c in enumerate(g.coeffs):
            rem[k + i] -= factor * c
    if any(rem):
        raise ArithmeticError(f"{g.coeffs} does not divide {f.coeffs}")
    return _primitive(quo)


def _sign_at_dyadic(poly: IntPolynomial, num: int, k: int) -> int:
    """Sign of poly(num / 2**k) via the integer-scaled value
    2**(k*d) * poly(num / 2**k), evaluated by Horner's rule."""
    total = 0
    for shift, c in enumerate(reversed(poly.coeffs)):
        total = total * num + (c << k * shift)
    return (total > 0) - (total < 0)


def sturm_count_above(chain: list[IntPolynomial], num: int, k: int) -> int:
    """Number of distinct real roots in (num/2**k, +inf)."""
    def variations(values):
        nz = [(v > 0) - (v < 0) for v in values if v != 0]
        return sum(1 for a, b in zip(nz, nz[1:]) if a != b)

    at_x = variations([_sign_at_dyadic(f, num, k) for f in chain])
    at_inf = variations([f.coeffs[-1] for f in chain])
    return at_x - at_inf


def _root_hint(poly: IntPolynomial) -> float:
    """Float estimate of the largest real root: Newton's method from above,
    started above every root at Fujiwara's 2 max |c_{n-k} / c_n|^(1/k).
    NaN when the coefficients leave the float range."""
    cs = poly.coeffs
    n = len(cs) - 1
    try:
        x = 2 * max(abs(cs[n - k] / cs[n]) ** (1 / k) for k in range(1, n + 1))
        fs = [float(c) for c in reversed(cs)]
    except OverflowError:
        return math.nan
    for _ in range(NEWTON_CAP):
        value = slope = 0.0
        for c in fs:
            slope = slope * x + value
            value = value * x + c
        if not slope:
            break
        step = x - value / slope
        if not step < x:  # from above the iterates fall until rounding stops them
            break
        x = step
    return x


def largest_root(poly: IntPolynomial) -> float:
    """Largest real root, to within RADIUS_TOL, by Sturm-count bisection over
    dyadic rationals.  Raises ValueError when there is no real root.

    The result is the upper end of the bisection cell that holds the root,
    so it depends on the root alone.  Sturm counts at the grid points
    2**-steps just outside hint -+ delta certify a lower end a (a root
    above) or an upper end b (none above), delta widening from one cell
    until both are certified.  The bisection then answers every midpoint
    outside (a, b) as the Sturm count would and evaluates only those inside,
    about 5 instead of about 60.  A wrong, infinite or NaN hint costs
    evaluations, never bits."""
    chain = sturm_chain(poly)
    gcd = chain[-1]
    if gcd.degree > 0:
        # repeated roots: bisect on the squarefree part poly / gcd(poly, poly').
        # The last element may be the derivative itself, which need not be
        # primitive, so divide by its primitive part.
        poly = _poly_div_exact(poly, _primitive(list(gcd.coeffs)))
        chain = sturm_chain(poly)
    n = poly.degree
    bound = n + max((abs(c) for c in poly.coeffs[:-1]), default=0)
    lo, hi = -(bound + 1), bound + 1  # all roots in (lo, hi]
    if sturm_count_above(chain, lo, 0) == 0:
        raise ValueError("polynomial has no real root")
    steps = max(1, math.ceil(math.log2(max(2 * (bound + 1) / RADIUS_TOL, 2))))
    # certified bracket (a, b] on the final grid: a root above a, none above b
    a, b = lo << steps, hi << steps
    hint = _root_hint(poly)
    if math.isfinite(hint):
        num, den = hint.as_integer_ratio()
        at = (num << steps) // den
        delta = hi - lo  # one cell of the final bisection, at most RADIUS_TOL
        while (a == lo << steps or b == hi << steps) and delta < b - a:
            for x in (at - delta, at + 1 + delta):
                if a < x < b:
                    if sturm_count_above(chain, x, steps):
                        a = x
                    else:
                        b = x
            delta *= 16
    # bisect: keep >= 1 root in (lo/2^k, hi/2^k]
    for k in range(1, steps + 1):
        lo <<= 1
        hi <<= 1
        mid = (lo + hi) // 2
        at = mid << steps - k
        if at <= a or at < b and sturm_count_above(chain, mid, k) >= 1:
            lo = mid
        else:
            hi = mid
    return hi / (1 << steps)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, refined to RADIUS_TOL by Sturm bisection
    on the exact characteristic polynomial."""
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    if g.edge_count() == 0:
        return 0.0
    return largest_root(charpoly(g))


# -- paper bounds -------------------------------------------------------------


def kite_radius_bounds(p: int) -> tuple[float, float]:
    """Sandwich (lower, upper) for the kite spectral radius, valid for p >= 3
    and any q >= 1: p-1 + 1/p^2 + 1/p^3 < rho < p-1 + 1/(4p) + 1/(p^2 - 2p).
    Raises ValueError once p is so large that the float bounds no longer
    separate (from p = 2**26) or overflow."""
    if p < 3:
        raise ValueError("bounds require p >= 3")
    try:
        lower = p - 1 + 1.0 / p**2 + 1.0 / p**3
        upper = p - 1 + 1.0 / (4 * p) + 1.0 / (p * p - 2 * p)
    except OverflowError:
        lower = upper = math.nan
    if not lower < upper:
        raise ValueError("p is too large for float bounds")
    return lower, upper


def kite_clique_bound(p: int, q: int) -> int:
    """Clique lower bound p - 2q + 1 for any graph cospectral with a kite
    (may be <= 1, in which case it is vacuous)."""
    if p < 3 or q < 1:
        raise ValueError("p >= 3 and q >= 1 required")
    return p - 2 * q + 1


class InequalityCheck(NamedTuple):
    p: int
    q: int
    r: int
    lhs_squared: Fraction
    rhs_squared: Fraction
    holds: bool

    def to_json(self) -> dict:
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in self._asdict().items()}


def _lemma41_rhs_squared(p: int) -> Fraction:
    """(p-1 + 1/p^2 + 1/p^3)^2, the squared radius lower bound."""
    return (Fraction(p - 1) + Fraction(1, p * p) + Fraction(1, p**3)) ** 2


def verify_lemma41_inequality(
    p_max: int, every_case: bool = False
) -> tuple[int, list[InequalityCheck]]:
    """Exact-rational replacement for the computer-algebra step behind the
    clique bound: for every p <= p_max, q >= 1 with p - 2q >= 3 and
    2 <= r < p - 2q, check 2m(r-1)/r < (p-1 + 1/p^2 + 1/p^3)^2 where
    m = (p^2 - p + 2q)/2. Squares are compared, so no radicals appear.
    The number of checks grows as p_max**3, so p_max is capped at
    LEMMA41_P_MAX.  Returns the number of cases and the records of the
    violations, or of every case with ``every_case``.  The left side grows
    with r, so the largest r of each (p, q) is decided first and the others
    only when it fails; each decision is made on integers, and only a
    returned record builds its Fractions."""
    if p_max < 3:
        raise ValueError("p_max >= 3 required")
    if p_max > LEMMA41_P_MAX:
        raise ValueError(f"sweep capped at p_max <= {LEMMA41_P_MAX}")
    cases, records = 0, []
    for p in range(3, p_max + 1):
        rhs = _lemma41_rhs_squared(p)
        num, den = rhs.numerator, rhs.denominator
        q = 1
        while p - 2 * q >= 3:
            two_m = p * p - p + 2 * q
            top = p - 2 * q - 1
            # lhs < rhs, cross-multiplied; when it holds at the top r, it holds for every r
            if every_case or two_m * (top - 1) * den >= num * top:
                for r in range(2, top + 1):
                    holds = two_m * (r - 1) * den < num * r
                    if every_case or not holds:
                        lhs = Fraction(two_m * (r - 1), r)
                        records.append(InequalityCheck(p, q, r, lhs, rhs, holds))
            cases += top - 1
            q += 1
    return cases, records
