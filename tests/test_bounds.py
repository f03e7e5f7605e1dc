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
    InequalityCheck,
    eigenvalues,
    jacobi_eigenvalues,
    kite_clique_bound,
    kite_radius_bounds,
    largest_root,
    spectral_radius,
    sturm_chain,
    sturm_count_above,
    verify_lemma41_inequality,
)
from kitespec.charpoly import charpoly
from kitespec.graph import (
    clique_number,
    from_edges,
    make_complete,
    make_kite,
    make_path,
)
from kitespec.polynomial import IntPolynomial

from conftest import (
    X,
    clique_lower_bound_spectral,
    extended,
    lemma41_oracle,
    make_cycle,
    make_star,
    nikiforov_bound,
    random_graph,
    spectrum_sane,
)


class TestJacobi:
    def test_known_2x2(self):
        vals = jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert sorted(vals) == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_path3(self):
        vals = sorted(jacobi_eigenvalues([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
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
        assert spectral_radius(from_edges(3, [])) == 0.0

    def test_jacobi_agrees_with_sturm(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9))
            if g.edge_count() == 0:
                continue
            assert max(eigenvalues(g)) == pytest.approx(
                spectral_radius(g), abs=1e-8
            )


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

    def test_pmax_capped(self):
        assert LEMMA41_P_MAX == 100
        with pytest.raises(ValueError, match="capped"):
            verify_lemma41_inequality(LEMMA41_P_MAX + 1)

    def test_rejects_tiny_pmax(self):
        with pytest.raises(ValueError):
            verify_lemma41_inequality(2)
