"""Numerical spectra and the clique/spectral-radius bound machinery.

The eigensolver reduces the symmetric adjacency matrix to tridiagonal form
by Householder reflections and finds the eigenvalues by implicit-shift QL,
O(n^3) work done once, deflating at machine precision: it takes no
tolerance.  The spectral radius is additionally certified on the exact
characteristic polynomial, so the headline quantity never depends on
floating point alone.  Such a polynomial is real-rooted, so Descartes' rule
of signs, applied to an integer Taylor shift, counts its roots above a
rational point exactly.  One counter serves the radius, the least multiple
of 2**-GRID_BITS with no root above it, placed by counts at grid points a
float hint chooses (``largest_root``), and the paper's radius sandwich,
decided by counts at its exact bounds (``kite_sandwich_holds``), both also on
a kite's radius factor, which has its polynomial's roots above -1.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .charpoly import charpoly
from .graph import Graph
from .polynomial import IntPolynomial

EPS = math.ulp(1.0)  # machine epsilon
QL_STEP_CAP = 30  # per eigenvalue
GRID_BITS = 34  # radii are multiples of 2**-34, about 5.8e-11
NEWTON_CAP = 200
LEMMA41_P_MAX = 100


class ConvergenceError(RuntimeError):
    pass


def symmetric_eigenvalues(matrix: list[list[float]]) -> list[float]:
    """Eigenvalues of a symmetric matrix, sorted descending: Householder
    reduction to tridiagonal form, then implicit-shift QL on the tridiagonal
    (Martin, Reinsch & Wilkinson; Bowdler, Martin, Reinsch & Wilkinson,
    Numer. Math. 11, 1968).

    QL sets an off-diagonal entry to zero once it is below EPS times the sum
    of its two diagonal neighbours, so the values are the diagonal of a
    matrix orthogonally similar to A up to rounding; that rounding, the
    backward error of the reduction, is of order n * EPS * ||A||_F.  An
    eigenvalue that needs more than QL_STEP_CAP QL steps raises
    ConvergenceError."""
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    # Householder: reflect row k of the leading (k+1)-block onto its entry
    # (k, k-1), then drop row and column k.  e[k] couples k-1 and k.
    d, e = [0.0] * n, [0.0] * n
    for k in range(n - 1, 0, -1):
        x = a.pop()
        d[k] = x.pop()
        for row in a:
            row.pop()
        if not any(x[:-1]):  # already tridiagonal in this row
            e[k] = x[-1]
            continue
        f, s = x[-1], math.hypot(*x)
        e[k] = alpha = -math.copysign(s, f)
        h = s * s - f * alpha  # v.v / 2 for v = x - alpha e_(k-1)
        x[-1] = f - alpha
        p = [sum(map(operator.mul, row, x)) / h for row in a]
        half = sum(map(operator.mul, x, p)) / (2 * h)
        q = [pi - half * vi for pi, vi in zip(p, x)]
        # A - v q^T - q v^T, summed so that it stays exactly symmetric
        a = [[r - (vi * qj + qi * vj) for r, vj, qj in zip(row, x, q)]
             for row, vi, qi in zip(a, x, q)]
    if a:
        d[0] = a[0][0]
    # implicit-shift QL; from here e[i] couples i and i+1
    e = e[1:] + [0.0]
    for l in range(n):
        for step in range(QL_STEP_CAP + 1):
            m = l
            while m < n - 1 and abs(e[m]) > EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if step == QL_STEP_CAP:
                raise ConvergenceError(f"QL did not converge in {QL_STEP_CAP} steps")
            g = (d[l + 1] - d[l]) / (2 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:  # underflow: split the matrix here and start again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return sorted(d, reverse=True)


def eigenvalues(g: Graph) -> list[float]:
    """All adjacency eigenvalues, sorted descending."""
    return symmetric_eigenvalues(g.adjacency_matrix())


# -- roots by Descartes' rule of signs -----------------------------------------


def _roots_above(poly: IntPolynomial, num: int, den: int) -> int:
    """Number of roots of a real-rooted ``poly`` above num / den, den > 0,
    counted with multiplicity: the sign variations of the integer polynomial
    den**d * poly((y + num) / den), whose positive roots they are.
    Descartes' rule of signs counts them exactly when every root is real.
    The Taylor shift by num takes O(d**2) integer steps."""
    d = poly.degree
    a = [c * den ** (d - i) for i, c in enumerate(poly.coeffs)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += num * a[j + 1]
    signs = [c > 0 for c in a if c]
    return sum(map(operator.ne, signs, signs[1:]))


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
    """Largest root of an integer polynomial whose roots are all real, as
    those of the characteristic polynomial of a symmetric matrix are,
    rounded up to the grid: the least x_j = j / 2**GRID_BITS with no root
    above it, found by exact root counts, so it depends on the root alone.
    Raises ValueError for a constant.

    A gallop from the grid index of a float hint (0 if not finite, clamped
    to Cauchy's root bound) brackets j, in 2 counts for a good hint, and a
    bisection finishes.  A wrong hint costs counts, never bits."""
    if poly.degree < 1:
        raise ValueError("a constant polynomial has no real root")

    def above(j: int) -> bool:
        return _roots_above(poly, j, 1 << GRID_BITS) > 0

    hint = _root_hint(poly)
    at = 0
    if math.isfinite(hint):
        num, den = hint.as_integer_ratio()
        *cs, lead = poly.coeffs  # Cauchy: every root has |x| < 1 + max |c_i / c_d|
        cap = (1 + max(-(-abs(c) // abs(lead)) for c in cs)) << GRID_BITS
        at = max(-cap, min((num << GRID_BITS) // den, cap))
    # a root above x_lo, none above x_hi
    step = 1
    if above(at):
        lo, hi = at, at + 1
        while above(hi):
            lo, hi, step = hi, hi + step, 16 * step
    else:
        lo, hi = at - 1, at
        while not above(lo):
            lo, hi, step = lo - step, lo, 16 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi / (1 << GRID_BITS)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, rounded up to a multiple of
    2**-GRID_BITS by exact root counts on the characteristic polynomial, so
    it depends on the eigenvalue alone: G and G + K1 agree, K_n gives
    exactly n - 1 and an edgeless graph 0.0."""
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    return largest_root(charpoly(g))


# -- paper bounds -------------------------------------------------------------


def _radius_lower(p: int) -> Fraction:
    """The kite radius lower bound p-1 + 1/p^2 + 1/p^3, in lowest terms: gcd(p + 1, p) = 1."""
    return Fraction((p - 1) * p**3 + p + 1, p**3)


def _radius_upper(p: int) -> Fraction:
    """p-1 + 1/(4p) + 1/(p^2 - 2p), the kite radius upper bound, exactly."""
    return p - 1 + Fraction(p + 2, 4 * p * (p - 2))


def kite_radius_bounds(p: int) -> tuple[float, float]:
    """Sandwich (lower, upper) for the kite spectral radius, valid for p >= 3
    and any q >= 1: p-1 + 1/p^2 + 1/p^3 < rho < p-1 + 1/(4p) + 1/(p^2 - 2p),
    each bound correctly rounded.  Raises ValueError once p is so large that
    the float bounds no longer separate (from p = 2**26 + 1) or overflow."""
    if p < 3:
        raise ValueError("bounds require p >= 3")
    try:
        lower, upper = float(_radius_lower(p)), float(_radius_upper(p))
    except OverflowError:
        lower = upper = math.nan
    if not lower < upper:
        raise ValueError("p is too large for float bounds")
    return lower, upper


def kite_sandwich_holds(p: int, poly: IntPolynomial) -> bool:
    """Whether the largest root of ``poly``, the radius factor R_{p,q} of a
    kite with clique size p >= 3 or its characteristic polynomial (the two
    share every root above -1), is strictly inside the exact sandwich: a
    root above the lower bound, none above the upper.  None is on the upper
    bound, which is not an integer: by the rational root theorem a monic
    integer polynomial, as both are, has no other rational root."""
    if p < 3:
        raise ValueError("bounds require p >= 3")
    return (_roots_above(poly, *_radius_lower(p).as_integer_ratio()) > 0
            and _roots_above(poly, *_radius_upper(p).as_integer_ratio()) == 0)


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


def verify_lemma41_inequality(
    p_max: int, every_case: bool = False
) -> tuple[int, list[InequalityCheck]]:
    """Exact-rational replacement for the computer-algebra step behind the
    clique bound: for every p <= p_max, q >= 1 with p - 2q >= 3 and
    2 <= r < p - 2q, check 2m(r-1)/r < (p-1 + 1/p^2 + 1/p^3)^2 where
    m = (p^2 - p + 2q)/2. Squares are compared, so no radicals appear.
    The number of checks grows as p_max**3, so p_max is capped at
    LEMMA41_P_MAX.  Returns the number of cases and the records of the
    violations, or of every case with ``every_case``.  Each p has Q(p-2) -
    Q(Q+1) cases, Q = floor((p-3)/2), and is decided on integers at its
    largest left side, q = 1 and r = p - 3: 2m(r-1)/r grows with r, and at
    the top r, t = p - 2q - 1, it is f(q) = M(t-1)/t, M = 2m, where f(q) -
    f(q+1) = 2(M - t(t-3)) / (t(t-2)) > 0, as t - 2 >= 2 and t(t-3) <
    (p-3)^2 < M.  Only if that fails, or for ``every_case``, are all its
    (q, r) walked; only a returned record builds Fractions."""
    if p_max < 3:
        raise ValueError("p_max >= 3 required")
    if p_max > LEMMA41_P_MAX:
        raise ValueError(f"sweep capped at p_max <= {LEMMA41_P_MAX}")
    cases, records = 0, []
    for p in range(3, p_max + 1):
        lower = _radius_lower(p)  # in lowest terms, so its square is too
        num, den = lower.numerator ** 2, lower.denominator ** 2
        big_q = (p - 3) // 2
        cases += big_q * (p - 2) - big_q * (big_q + 1)
        if not every_case and (p * p - p + 2) * (p - 4) * den < num * (p - 3):
            continue
        rhs = Fraction(num, den)
        for q in range(1, big_q + 1):
            two_m = p * p - p + 2 * q
            for r in range(2, p - 2 * q):
                holds = two_m * (r - 1) * den < num * r
                if every_case or not holds:
                    lhs = Fraction(two_m * (r - 1), r)
                    records.append(InequalityCheck(p, q, r, lhs, rhs, holds))
    return cases, records
