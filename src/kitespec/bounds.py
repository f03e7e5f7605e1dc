"""Numerical spectra and the clique/spectral-radius bound machinery.

The eigensolver reduces the symmetric adjacency matrix to tridiagonal form
by Householder reflections and finds the eigenvalues by implicit-shift QL,
O(n^3) work done once, deflating at machine precision: it takes no
tolerance.  The spectral radius is additionally certified by Sturm counts
on the exact characteristic polynomial, so the headline quantity never
depends on floating point alone.  The Sturm chain is built from integer
pseudo-remainders and signs are taken at dyadic points by integer Horner, so
root isolation never leaves the integers.  A float hint only chooses the
grid points whose Sturm counts place the root (``largest_root``).
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
RADIUS_TOL = 1e-10
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


def _bisection_steps(bound: int) -> int:
    """Halvings that take (-(bound + 1), bound + 1] below RADIUS_TOL: the
    float formula while it can be formed, so the step count and every bit of
    the radius stay as they were; past the float range (bound from about
    1e298) the same ceiling, taken exactly on integers."""
    try:
        return max(1, math.ceil(math.log2(max(2 * (bound + 1) / RADIUS_TOL, 2))))
    except OverflowError:
        num, den = RADIUS_TOL.as_integer_ratio()
        return (-(-2 * (bound + 1) * den // num) - 1).bit_length()


def largest_root(poly: IntPolynomial) -> float:
    """Largest real root, to within RADIUS_TOL, by exact Sturm counts on the
    grid x_j = -(bound + 1) + j * 2 (bound + 1) / 2**steps, which holds every
    root.  Raises ValueError when there is no real root.

    The result is the x_j with a root above x_(j-1) and none above x_j, so it
    depends on the root alone.  A gallop out from the cell of a float hint
    certifies both ends, in about 2 Sturm counts instead of about 60, and a
    bisection on j finishes.  A wrong, infinite or NaN hint costs counts,
    never bits."""
    chain = sturm_chain(poly)
    gcd = chain[-1]
    if gcd.degree > 0:
        # repeated roots: search on the squarefree part poly / gcd(poly, poly').
        # The last element may be the derivative itself, which need not be
        # primitive, so divide by its primitive part.
        poly = _poly_div_exact(poly, _primitive(list(gcd.coeffs)))
        chain = sturm_chain(poly)
    bound = poly.degree + max((abs(c) for c in poly.coeffs[:-1]), default=0)
    if sturm_count_above(chain, -(bound + 1), 0) == 0:
        raise ValueError("polynomial has no real root")
    steps = _bisection_steps(bound)
    # x_j = (base + j * cell) / 2**steps; a root above x_lo, none above x_hi
    base, cell = -(bound + 1) << steps, 2 * (bound + 1)
    lo, hi = 0, 1 << steps
    hint = _root_hint(poly)
    if math.isfinite(hint):
        num, den = hint.as_integer_ratio()
        at = ((num << steps) // den - base) // cell
        d = 0
        # the guard stops a hint far off the grid, which never enters (lo, hi)
        while (lo == 0 or hi == 1 << steps) and d < hi - lo:
            for j in (at - d, at + 1 + d):
                if lo < j < hi:
                    if sturm_count_above(chain, base + j * cell, steps):
                        lo = j
                    else:
                        hi = j
            d = d * 16 or 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sturm_count_above(chain, base + mid * cell, steps):
            lo = mid
        else:
            hi = mid
    return (base + hi * cell) / (1 << steps)


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue, to RADIUS_TOL by exact Sturm counts on
    the characteristic polynomial; 0.0 for an edgeless graph."""
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    return largest_root(charpoly(g))


# -- paper bounds -------------------------------------------------------------


def _radius_lower(p: int) -> Fraction:
    """p-1 + 1/p^2 + 1/p^3, the kite radius lower bound, exactly."""
    return p - 1 + Fraction(p + 1, p**3)


def kite_radius_bounds(p: int) -> tuple[float, float]:
    """Sandwich (lower, upper) for the kite spectral radius, valid for p >= 3
    and any q >= 1: p-1 + 1/p^2 + 1/p^3 < rho < p-1 + 1/(4p) + 1/(p^2 - 2p).
    Raises ValueError once p is so large that the float bounds no longer
    separate (from p = 2**26) or overflow."""
    if p < 3:
        raise ValueError("bounds require p >= 3")
    try:
        lower = float(_radius_lower(p))
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
        rhs = _radius_lower(p) ** 2
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
