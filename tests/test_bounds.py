import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kitespec import bounds
from kitespec.bounds import (
    _poly_div_exact,
    LEMMA41_P_MAX,
    RADIUS_TOL,
    ConvergenceError,
    InequalityCheck,
    eigenvalues,
    kite_clique_bound,
    kite_radius_bounds,
    largest_root,
    spectral_radius,
    sturm_chain,
    sturm_count_above,
    symmetric_eigenvalues,
    verify_lemma41_inequality,
)
from kitespec.charpoly import charpoly, kite_charpoly
from kitespec.graph import (
    clique_number,
    triangle_count,
    from_edges,
    make_complete,
    make_kite,
    make_path,
)
from kitespec.polynomial import IntPolynomial

from conftest import (
    X,
    clique_lower_bound_spectral,
    edge_list,
    extended,
    largest_root_plain,
    lemma41_oracle,
    make_cycle,
    make_star,
    nikiforov_bound,
    random_graph,
    spectrum_sane,
)


class TestJacobi:
    """The symmetric eigensolver on matrices with known eigenvalues (the
    class keeps its name so that the test ids stay stable)."""

    def test_known_2x2(self):
        vals = symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert sorted(vals) == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_path3(self):
        vals = sorted(symmetric_eigenvalues([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        r2 = math.sqrt(2)
        assert vals == pytest.approx([-r2, 0.0, r2], abs=1e-12)

    def test_matches_charpoly_roots(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8))
            poly = charpoly(g)
            for v in eigenvalues(g):
                assert abs(poly(v)) < 1e-6 * max(1.0, abs(v)) ** g.n

    def test_spectrum_sane(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9))
            assert spectrum_sane(eigenvalues(g), g.edge_count())


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(i + offset, j + offset) for i, j in edge_list(g)]
        offset += g.n
    return from_edges(offset, edges)


def hard_spectra():
    """Graphs at the n = 24 cap with repeated, zero or symmetric eigenvalues,
    every kite on 24 vertices, and the smallest orders."""
    yield from (make_complete(24), make_star(23), make_path(24), from_edges(24, []))
    yield from_edges(24, [(i, j) for i in range(12) for j in range(12, 24)])  # K_{12,12}
    yield disjoint_union(make_complete(12), make_complete(12))
    yield from (make_kite(p, 24 - p) for p in range(1, 25))
    yield from (make_complete(n) for n in (0, 1, 2))
    yield from_edges(2, [])


def eigen_cases(rng):
    yield from hard_spectra()
    for n in range(1, 25):
        for p in (0.2, 0.5, 0.8):
            yield random_graph(rng, n, p)


class TestEigensolverOracles:
    """Householder-QL against oracles that share no code with it."""

    def test_matches_numpy(self, rng):
        numpy = pytest.importorskip("numpy")
        for g in eigen_cases(rng):
            a = numpy.array(g.adjacency_matrix(), dtype=float).reshape(g.n, g.n)
            want = sorted(numpy.linalg.eigvalsh(a).tolist(), reverse=True)
            assert eigenvalues(g) == pytest.approx(want, abs=1e-10), edge_list(g)

    def test_trace_identities(self, rng):
        # tr A = 0, tr A^2 = 2m and tr A^3 = 6t, exactly
        for g in eigen_cases(rng):
            vals = eigenvalues(g)
            assert len(vals) == g.n
            assert vals == sorted(vals, reverse=True)
            for power, want in enumerate([0, 2 * g.edge_count(), 6 * triangle_count(g)], 1):
                assert sum(v**power for v in vals) == pytest.approx(want, abs=1e-9), edge_list(g)


class TestTolerance:
    """The solver's one failure mode (the class keeps its name so that the
    test id stays stable)."""

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "QL_STEP_CAP", 0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigenvalues(make_path(3))
        # a diagonal matrix, an edgeless graph's too, needs no QL step
        assert symmetric_eigenvalues([[1.0, 0.0], [0.0, 2.0]]) == [2.0, 1.0]
        assert eigenvalues(from_edges(3, [])) == [0.0, 0.0, 0.0]


class TestSturm:
    def test_largest_root_quadratic(self):
        # x^2 - 2 -> sqrt(2)
        assert largest_root(X**2 - 2) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_largest_root_with_repeated_factors(self):
        # complete graph K5: (x - 4)(x + 1)^4
        assert largest_root(charpoly(make_complete(5))) == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("poly,chains", [
        (X**2 - 2, 1),
        (charpoly(make_path(6)), 1),
        # K5: (x - 4)(x + 1)^4, so the chain is rebuilt for (x - 4)(x + 1)
        (charpoly(make_complete(5)), 2),
    ])
    def test_chains_built(self, monkeypatch, poly, chains):
        built = []
        original = bounds.sturm_chain

        def counting(f):
            built.append(f)
            return original(f)

        monkeypatch.setattr(bounds, "sturm_chain", counting)
        largest_root(poly)
        assert len(built) == chains

    @pytest.mark.parametrize("poly,root", [
        ((X - 1) ** 2, 1.0),
        # gcd(x^4, 4x^3) is the derivative itself, not primitive
        (X**4, 0.0),
        ((X**2 - 2) ** 2 * (X + 3), math.sqrt(2)),
        ((X - 1) ** 3 * (X + 2), 1.0),
    ])
    def test_largest_root_non_primitive_gcd(self, poly, root):
        assert largest_root(poly) == pytest.approx(root, abs=1e-10)

    def test_chain_matches_sympy(self, rng):
        # sympy.sturm works on the squarefree part over QQ, so compare it with
        # the chain of the primitive squarefree part; for repeated roots the
        # last element of the full chain must be gcd(P, P') up to a constant.
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(f):
            return sympy.Poly(list(reversed(f.coeffs)), x, domain="QQ")

        def from_sympy(f):
            coeffs = f.clear_denoms(convert=True)[1].primitive()[1].all_coeffs()
            return IntPolynomial(tuple(int(c) for c in reversed(coeffs)))

        def positive_multiple(f, ref):
            if f.degree != ref.degree() or f.coeffs[-1] * ref.LC() <= 0:
                return False
            return to_sympy(f) * ref.LC() == ref * f.coeffs[-1]

        polys = [charpoly(random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8])))
                 for _ in range(100)]
        polys += [charpoly(make_kite(p=p, q=q)) for p in range(3, 9) for q in range(0, 4)]
        polys += [charpoly(make_complete(n)) for n in range(1, 10)]
        # chains that skip a degree, where a division takes 1 or 3 steps
        polys += [X**4 + X + 2, X**4 + X**2 + 1, X**5 + 2 * X**2 + 3, X**6 - 3 * X**2 + 3]
        for poly in polys:
            ref = sympy.sturm(to_sympy(poly))
            sqf = from_sympy(sympy.sqf_part(to_sympy(poly)))
            chain = sturm_chain(sqf)
            assert len(chain) == len(ref), poly
            assert all(positive_multiple(f, g) for f, g in zip(chain, ref)), poly
            gcd = sympy.gcd(to_sympy(poly), to_sympy(poly.derivative()))
            last = sturm_chain(poly)[-1]
            assert to_sympy(last) * gcd.LC() == gcd * last.coeffs[-1], poly

    def test_inexact_division_raises(self):
        # an explicit check, so it holds under python -O as well
        assert _poly_div_exact((X - 1) * (X + 2), X - 1) == X + 2
        with pytest.raises(ArithmeticError):
            _poly_div_exact(X**2 + 1, X - 1)
        with pytest.raises(ArithmeticError):  # inexact first step: 1 = 0*2 + 1
            _poly_div_exact(X**2 - 1, 2 * X + 2)

    def test_count_above(self):
        chain = sturm_chain(X**2 - 2)
        # roots at +-sqrt(2); above 0 there is one
        assert sturm_count_above(chain, 0, 0) == 1
        assert sturm_count_above(chain, -2, 0) == 2
        assert sturm_count_above(chain, 2, 0) == 0

    def test_path_radius(self):
        # rho(P_n) = 2 cos(pi / (n+1))
        for n in range(2, 10):
            expect = 2 * math.cos(math.pi / (n + 1))
            assert spectral_radius(make_path(n)) == pytest.approx(expect, abs=1e-9)

    def test_star_radius(self):
        assert spectral_radius(make_star(4)) == pytest.approx(2.0, abs=1e-10)

    def test_complete_radius(self):
        for p in range(2, 9):
            assert spectral_radius(make_complete(p)) == pytest.approx(p - 1, abs=1e-10)

    def test_edgeless(self):
        # lambda^n goes through the search like any other polynomial
        for n in range(1, 25):
            rho = spectral_radius(from_edges(n, []))
            assert rho == 0.0 and math.copysign(1.0, rho) == 1.0, n

    def test_jacobi_agrees_with_sturm(self, rng):
        for g in eigen_cases(rng):
            if g.n:
                assert eigenvalues(g)[0] == pytest.approx(spectral_radius(g), abs=1e-10)


def seeded_gnp_polys(rng, count=40, n_max=22):
    return [charpoly(random_graph(rng, rng.randint(2, n_max), rng.choice([0.2, 0.5, 0.8])))
            for _ in range(count)]


def counting_sturm(monkeypatch) -> list[int]:
    """Count the ``sturm_count_above`` calls that ``largest_root`` makes."""
    calls = [0]
    original = bounds.sturm_count_above

    def counting(chain, num, k):
        calls[0] += 1
        return original(chain, num, k)

    monkeypatch.setattr(bounds, "sturm_count_above", counting)
    return calls


class TestCertifiedBracket:
    """``largest_root`` returns the plain bisection's float, bit for bit: the
    float hint only chooses which exact Sturm counts bracket the root."""

    def test_gnp_bit_identical(self, rng):
        for poly in seeded_gnp_polys(rng):
            assert largest_root(poly) == largest_root_plain(poly), poly

    def test_kites_bit_identical(self):
        for n in range(2, 25):
            for p in range(1, n + 1):
                poly = kite_charpoly(p, n - p)
                assert largest_root(poly) == largest_root_plain(poly), (p, n - p)

    def test_repeated_roots_bit_identical(self):
        graphs = [make_path(n) for n in range(2, 25)] + [make_complete(n) for n in range(2, 25)]
        graphs += [
            disjoint_union(make_complete(4), make_complete(4)),
            disjoint_union(make_path(5), make_path(5), make_path(5)),
            disjoint_union(make_complete(6), make_path(7), make_cycle(6)),
            disjoint_union(make_kite(5, 3), make_kite(5, 3), make_star(3)),
            disjoint_union(make_cycle(8), make_cycle(8), make_cycle(8)),
        ]
        for g in graphs:
            poly = charpoly(g)
            assert largest_root(poly) == largest_root_plain(poly), edge_list(g)

    @pytest.mark.parametrize("poly", [
        X**2 - 2,
        (X - 1) ** 3 * (X + 2),
        X,
        X**4,
        (X**2 - 2) ** 2 * (X + 3),
        7 * X**2 - 3,
        X**5 + 2 * X**2 + 3,  # one real root, four complex ones
        3 * X**3 - 7 * X + 10**30,
        # roots on a grid point: bound + 1 = r + 2 is a power of two
        X - 2,
        X - 6,
        X - 14,
    ])
    def test_non_adjacency_bit_identical(self, poly):
        assert largest_root(poly) == largest_root_plain(poly)

    @pytest.mark.parametrize("poly", [X**4 + 1, X**2 + 1, IntPolynomial((5,))])
    def test_no_real_root_raises_alike(self, poly):
        with pytest.raises(ValueError, match="no real root"):
            largest_root_plain(poly)
        with pytest.raises(ValueError, match="no real root"):
            largest_root(poly)

    @pytest.mark.parametrize("wrong", [
        lambda rho: rho + 1, lambda rho: rho - 1, lambda rho: math.nan,
        lambda rho: math.inf, lambda rho: 0.0, lambda rho: 1e300, lambda rho: -1e300,
    ], ids=["above", "below", "nan", "inf", "zero", "far-above", "far-below"])
    def test_wrong_hint_keeps_the_bits(self, monkeypatch, rng, wrong):
        polys = seeded_gnp_polys(rng, count=6) + [
            kite_charpoly(7, 2), charpoly(make_complete(5)), X**2 - 2, (X - 1) ** 3 * (X + 2),
        ]
        for poly in polys:
            rho = largest_root_plain(poly)
            monkeypatch.setattr(bounds, "_root_hint", lambda poly: wrong(rho))
            assert largest_root(poly) == rho, poly

    def test_sturm_evaluations_capped(self, monkeypatch, rng):
        # one count for "a real root at all", then the two ends of the hint's
        # cell when the hint is good; the plain bisection takes about 60
        polys = seeded_gnp_polys(rng, count=60, n_max=24)
        polys += [kite_charpoly(p, n - p) for n in range(2, 25) for p in range(1, n + 1)]
        calls = counting_sturm(monkeypatch)
        for poly in polys:
            calls[0] = 0
            largest_root(poly)
            assert calls[0] <= 4, poly

    def test_coefficients_past_the_float_range_give_no_hint(self):
        assert math.isnan(bounds._root_hint(X**2 - 10**400))

    def test_no_hint_is_the_plain_bisection(self, monkeypatch, rng):
        poly = charpoly(random_graph(rng, 22, 0.5))
        calls = counting_sturm(monkeypatch)
        monkeypatch.setattr(bounds, "_root_hint", lambda poly: math.nan)
        largest_root(poly)
        bound = poly.degree + max(abs(c) for c in poly.coeffs[:-1])
        assert calls[0] == 1 + math.ceil(math.log2(2 * (bound + 1) / RADIUS_TOL))

    def test_bound_past_the_float_range(self):
        # the step count is taken on integers once 2 (bound + 1) / RADIUS_TOL
        # leaves the floats; the bits of every smaller bound stay put
        assert largest_root(X**2 - 10**400) == 1e200
        assert largest_root(X**2 - 10**300) == 1e150
        with pytest.raises(ValueError, match="no real root"):
            largest_root(X**2 + 10**400)

    def test_step_count(self):
        # below the float limit the float formula, whose rounding can miss the
        # ceiling by one (bound = num below), so that no radius moves; past it
        # the fewest halvings s >= 1 with 2**s >= 2 (bound + 1) / RADIUS_TOL
        def exact(bound):
            ratio, s = Fraction(2 * (bound + 1)) / Fraction(RADIUS_TOL), 1
            while 2**s < ratio:
                s += 1
            return s

        def formula(bound):
            return max(1, math.ceil(math.log2(max(2 * (bound + 1) / RADIUS_TOL, 2))))

        num, _ = RADIUS_TOL.as_integer_ratio()
        assert bounds._bisection_steps(num) == formula(num) == exact(num) - 1
        # num * 2**j - 1 puts the ratio on a power of two and num * 2**j just
        # above one, where a ceiling is off by one
        edges = [num * 2**j + d for j in (0, 10, 100, 990, 1000, 1100) for d in (-1, 0)]
        for bound in [10**e for e in range(0, 420, 7)] + [3 * 10**e + 7 for e in (5, 297, 305, 400)] + edges:
            want = formula(bound) if bound < 10**297 else exact(bound)
            assert bounds._bisection_steps(bound) == want, bound


class TestRadiusSandwich:
    @pytest.mark.parametrize("p", range(3, 13))
    def test_bounds_bracket_true_radius(self, p):
        lower, upper = kite_radius_bounds(p)
        for q in range(1, 8):
            rho = spectral_radius(make_kite(p=p, q=q))
            assert lower < rho < upper

    def test_requires_p_at_least_3(self):
        with pytest.raises(ValueError):
            kite_radius_bounds(2)

    def test_known_values(self):
        lower, upper = kite_radius_bounds(3)
        assert lower == pytest.approx(2 + 1 / 9 + 1 / 27)
        assert upper == pytest.approx(2 + 1 / 12 + 1 / 3)

    def test_lower_is_the_rounded_exact_bound(self):
        # the float lower bound is the correctly rounded Fraction the Lemma 4.1
        # sweep squares, not a float sum (which is 1 ulp off at p = 9, 14, ...)
        for p in range(3, 201):
            exact = p - 1 + Fraction(1, p**2) + Fraction(1, p**3)
            assert kite_radius_bounds(p)[0] == float(exact), p


class TestSpectralCliqueBound:
    def test_nikiforov_monotone_in_r(self):
        vals = [nikiforov_bound(10, r) for r in range(1, 8)]
        assert vals == sorted(vals)

    def test_bound_is_sound(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8))
            assert clique_lower_bound_spectral(g) <= clique_number(g)

    def test_tight_on_complete(self):
        for p in range(2, 8):
            assert clique_lower_bound_spectral(make_complete(p)) == p

    def test_cycle5(self):
        assert clique_lower_bound_spectral(make_cycle(5)) == 2

    def test_kite_case(self):
        assert clique_lower_bound_spectral(make_kite(p=7, q=2)) == 5

    def test_kite_formula(self):
        assert kite_clique_bound(7, 2) == 4
        assert kite_clique_bound(9, 1) == 8
        with pytest.raises(ValueError):
            kite_clique_bound(2, 1)

    @pytest.mark.parametrize("p", range(5, 12))
    def test_formula_never_exceeds_certified_bound_domain(self, p):
        # Inside the regime p - 2q >= 3 the spectral certificate must reach
        # at least the closed-form bound.
        q = 1
        while p - 2 * q >= 3:
            g = make_kite(p=p, q=q)
            assert clique_lower_bound_spectral(g) >= kite_clique_bound(p, q)
            q += 1


class TestInequalityVerification:
    def test_exhaustive_small(self):
        cases, violations = verify_lemma41_inequality(20)
        assert cases and violations == []
        every, checks = verify_lemma41_inequality(20, every_case=True)
        assert every == cases == len(checks) and all(c.holds for c in checks)

    def test_check_fields_exact(self):
        _, checks = verify_lemma41_inequality(7, every_case=True)
        for c in checks:
            assert isinstance(c.lhs_squared, Fraction)
            assert isinstance(c.rhs_squared, Fraction)
            two_m = c.p * c.p - c.p + 2 * c.q
            assert c.lhs_squared == Fraction(two_m * (c.r - 1), c.r)

    def test_json_round_trip(self):
        c = verify_lemma41_inequality(5, every_case=True)[1][0]
        d = c.to_json()
        assert Fraction(d["lhs_squared"]) == c.lhs_squared
        assert d["holds"] is True
        # field order, and plain JSON types only (fractions as strings)
        assert json.loads(json.dumps(d)) == d == {
            "p": 5, "q": 1, "r": 2, "lhs_squared": "11", "rhs_squared": "256036/15625", "holds": True,
        }
        assert list(d) == ["p", "q", "r", "lhs_squared", "rhs_squared", "holds"]

    def test_holds_is_the_fraction_comparison(self):
        cases, checks = verify_lemma41_inequality(50, every_case=True)
        assert cases == len(checks) == 8924
        assert verify_lemma41_inequality(50) == (8924, [])
        for c in checks:
            two_m = c.p * c.p - c.p + 2 * c.q
            assert c.lhs_squared == Fraction(two_m * (c.r - 1), c.r)
            assert c.holds == (c.lhs_squared < c.rhs_squared)

    def test_matches_fraction_oracle(self):
        for p_max in range(3, 51):
            cases, violations = verify_lemma41_inequality(p_max)
            assert (cases, {(c.p, c.q, c.r) for c in violations}) == lemma41_oracle(p_max)

    @extended
    def test_matches_fraction_oracle_at_cap(self):
        cases, violations = verify_lemma41_inequality(LEMMA41_P_MAX)
        assert (cases, {(c.p, c.q, c.r) for c in violations}) == lemma41_oracle(LEMMA41_P_MAX)

    @pytest.mark.parametrize("top", [1, 2, 3, 4, 10])
    def test_planted_rhs_breaks_the_top_cases(self, monkeypatch, top):
        # a right side at p = 9 between the top-th and the next largest left
        # side breaks exactly the top cases; the two largest are (1, 6), (1, 5)
        lhs = sorted(Fraction((72 + 2 * q) * (r - 1), r) for q in (1, 2, 3) for r in range(2, 9 - 2 * q))
        planted = (lhs[-top] + lhs[-top - 1]) / 2 if top < len(lhs) else Fraction(0)
        # a lower bound whose square is within 1e-4 of the planted right side,
        # far inside the gap between two left sides
        root = Fraction(math.isqrt(math.floor(planted * 10**12)), 10**6)
        real = bounds._radius_lower

        def radius_lower(p):
            return root if p == 9 else real(p)

        monkeypatch.setattr(bounds, "_radius_lower", radius_lower)
        cases, violations = verify_lemma41_inequality(12)
        found = {(c.p, c.q, c.r) for c in violations}
        assert (cases, found) == lemma41_oracle(12, lambda p: radius_lower(p) ** 2)
        assert len(found) == min(top, len(lhs))
        if top <= 2:
            assert found <= {(9, 1, 6), (9, 1, 5)}

    def test_pmax_capped(self):
        assert LEMMA41_P_MAX == 100
        with pytest.raises(ValueError, match="capped"):
            verify_lemma41_inequality(LEMMA41_P_MAX + 1)

    def test_rejects_tiny_pmax(self):
        with pytest.raises(ValueError):
            verify_lemma41_inequality(2)
