import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kitespec import charpoly as charpoly_mod
from kitespec.charpoly import (
    are_cospectral,
    bareiss_det,
    charpoly,
    charpoly_interpolated,
    closed_form_complete,
    kite_charpoly,
    walk_count,
)
from kitespec.graph import (
    from_edges,
    make_complete,
    make_gc,
    make_kite,
    make_path,
    triangle_count,
)
from kitespec.polynomial import IntPolynomial, lagrange_integer

from conftest import (
    X,
    charpoly_pendant_recursive,
    closed_form_gc,
    coefficient_edge_count,
    coefficient_triangle_count,
    kite_charpoly_product,
    kite_u_closed_form,
    kite_u_identity_check,
    make_star,
    path_poly,
    path_poly_u_value,
    random_graph,
    relabel,
)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def charpoly_by_leibniz(g):
    """Independent oracle: interpolate det(xI - A) from Leibniz determinants."""
    pts = []
    for x in range(g.n + 1):
        m = [
            [(x if i == j else 0) - (g.rows[i] >> j & 1) for j in range(g.n)]
            for i in range(g.n)
        ]
        pts.append((x, leibniz_det(m)))
    return lagrange_integer(pts)


class TestPolynomialType:
    def test_normalization_and_arith(self):
        p = IntPolynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        q = X * X - 1
        assert q(3) == 8
        assert (p + q).coeffs == (0, 2, 1)
        assert (p * q).coeffs == (-1, -2, 1, 2)
        assert p.derivative().coeffs == (2,)

    def test_horner_exact_on_fractions(self):
        p = X**3 - IntPolynomial((4,)) * X
        assert p(Fraction(1, 2)) == Fraction(-15, 8)

    def test_pretty(self):
        p = X**4 - IntPolynomial((0, 2, 4)) - IntPolynomial((-1,))
        assert p.pretty() == "λ⁴ − 4λ² − 2λ + 1"

    def test_lagrange_integer(self):
        pts = [(x, x**3 - 7 * x + 2) for x in range(5)]
        assert lagrange_integer(pts).coeffs == (2, -7, 0, 1)

    @pytest.mark.parametrize("bad", [1.9, Fraction(1, 2), "7"], ids=["float", "Fraction", "str"])
    def test_rejects_non_int_coefficients(self, bad):
        with pytest.raises(TypeError):
            IntPolynomial((bad, 1))


class TestKnownPolynomials:
    def test_triangle(self):
        assert charpoly(make_complete(3)).coeffs == (-2, -3, 0, 1)

    def test_paw(self):
        assert charpoly(make_kite(p=3, q=1)).coeffs == (1, -2, -4, 0, 1)

    def test_k4(self):
        assert charpoly(make_complete(4)).coeffs == (-3, -8, -6, 0, 1)

    def test_p4(self):
        assert charpoly(make_path(4)).coeffs == (1, 0, -3, 0, 1)

    def test_empty_and_single(self):
        assert charpoly(from_edges(0, [])).coeffs == (1,)
        assert charpoly(from_edges(1, [])).coeffs == (0, 1)


class TestRouteEquivalence:
    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 7) for q in range(0, 4)])
    def test_kites_three_routes(self, p, q):
        g = make_kite(p=p, q=q)
        a = charpoly(g)
        assert charpoly_pendant_recursive(g) == a
        assert charpoly_interpolated(g) == a
        assert kite_charpoly(p, q) == a

    def test_random_graphs_vs_leibniz(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6))
            assert charpoly(g) == charpoly_by_leibniz(g)

    def test_random_graphs_three_routes(self, rng):
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9))
            a = charpoly(g)
            assert charpoly_pendant_recursive(g) == a
            assert charpoly_interpolated(g) == a

    def test_bareiss_matches_leibniz(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(m) == leibniz_det(m)


class TestKiteRecurrence:
    def test_matches_berkowitz(self):
        for p in range(1, 25):
            for q in range(0, 25 - p):
                assert kite_charpoly(p, q) == charpoly(make_kite(p=p, q=q)), (p, q)

    def test_matches_product_formula(self):
        # the whole census range p + q <= 30
        for p in range(1, 31):
            for q in range(0, 31 - p):
                assert kite_charpoly(p, q) == kite_charpoly_product(p, q), (p, q)


class TestBerkowitzVsSympy:
    @staticmethod
    def sympy_charpoly(g):
        sympy = pytest.importorskip("sympy")
        poly = sympy.Matrix(g.adjacency_matrix()).charpoly(sympy.Symbol("x"))
        return IntPolynomial(tuple(int(c) for c in reversed(poly.all_coeffs())))

    def test_random_graphs(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]))
            assert charpoly(g) == self.sympy_charpoly(g)

    @pytest.mark.parametrize("n", [1, 2, 7, 14])
    def test_families(self, n):
        for g in (make_complete(n), from_edges(n, []), make_star(n - 1)):
            assert charpoly(g) == self.sympy_charpoly(g)


class TestClosedForms:
    @pytest.mark.parametrize("p", range(1, 13))
    def test_complete(self, p):
        assert closed_form_complete(p) == charpoly(make_complete(p))

    @pytest.mark.parametrize("p", range(3, 13))
    def test_gc(self, p):
        assert closed_form_gc(p) == charpoly(make_gc(p))


class TestPathPolynomials:
    """The oracle's own path recurrence, which the u-substitution check and
    ``kite_charpoly_product`` rest on."""

    def test_base_cases(self):
        assert path_poly(0).coeffs == (1,)
        assert path_poly(1).coeffs == (0, 1)
        assert path_poly(2).coeffs == (-1, 0, 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_path_graph(self, n):
        assert path_poly(n) == charpoly(make_path(n)) == kite_charpoly(1, n - 1)

    @given(
        st.integers(min_value=0, max_value=12),
        st.fractions(max_denominator=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_u_substitution(self, n, u):
        if u in (0, 1, -1):
            with pytest.raises(ValueError):
                path_poly_u_value(n, u)
        else:
            lam = u + Fraction(1, 1) / u
            assert path_poly_u_value(n, u) == path_poly(n)(lam)


class TestUClosedForm:
    def test_known_value(self):
        assert kite_u_closed_form(3, 1, Fraction(2)) == Fraction(161, 16)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(3, 8) for q in range(1, 5)])
    def test_matches_charpoly_at_points(self, p, q):
        poly = kite_charpoly(p, q)
        for u in [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(5, 3)]:
            lam = u + 1 / u
            assert kite_u_closed_form(p, q, u) == poly(lam)

    def test_identity_check_helper(self):
        for k in range(2, 12):
            assert kite_u_identity_check(4, 2, Fraction(k))

    def test_singular_points_rejected(self):
        for u in (Fraction(0), Fraction(1), Fraction(-1)):
            with pytest.raises(ValueError):
                kite_u_closed_form(3, 1, u)


class TestCoefficientFacts:
    def test_edge_and_triangle_extraction(self, rng):
        for _ in range(200):
            g = random_graph(rng, rng.randint(3, 10))
            c = charpoly(g)
            assert coefficient_edge_count(c) == g.edge_count()
            assert coefficient_triangle_count(c) == triangle_count(g)
            # trace of A is zero: coefficient of λ^{n-1} vanishes
            assert c.coeffs[g.n - 1] == 0

    def test_walk_counts(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 8))
            assert walk_count(g, 2) == 2 * g.edge_count()
            assert walk_count(g, 3) == 6 * triangle_count(g)


class TestCospectrality:
    def test_star_and_c4_plus_isolated(self):
        star = make_star(4)
        mate = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert are_cospectral(star, mate)

    def test_different_orders_not_cospectral(self):
        assert not are_cospectral(make_path(3), make_path(4))

    @pytest.mark.parametrize("g,h", [
        # same order and triangle count, edge counts 3 and 2
        (make_path(4), from_edges(4, [(0, 1), (1, 2)])),
        # same order and edge count, triangle counts 1 and 0
        (from_edges(4, [(0, 1), (1, 2), (0, 2)]), make_path(4)),
        (make_kite(4, 2), from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])),
    ])
    def test_edge_or_triangle_count_decides_before_charpoly(self, monkeypatch, g, h):
        def no_charpoly(_):
            raise AssertionError("charpoly computed")

        monkeypatch.setattr(charpoly_mod, "charpoly", no_charpoly)
        assert g.n == h.n and (g.edge_count(), triangle_count(g)) != (h.edge_count(), triangle_count(h))
        assert not are_cospectral(g, h)
        assert not are_cospectral(h, g)

    def test_agrees_with_charpoly_equality(self, rng):
        star, mate = make_star(4), from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pairs = [(star, mate), (mate, star)]
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            # a relabelled copy, a graph of about the same density, and any graph
            perm = list(range(n))
            rng.shuffle(perm)
            pairs += [(g, relabel(g, perm)), (g, random_graph(rng, n, g.edge_count() / max(1, comb(n, 2)))),
                      (g, random_graph(rng, rng.randint(1, 9)))]
        verdicts = {are_cospectral(g, h) for g, h in pairs}
        assert verdicts == {True, False}
        for g, h in pairs:
            assert are_cospectral(g, h) == (charpoly(g) == charpoly(h))

    def test_cospectral_iff_equal_walk_counts(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            g, h = random_graph(rng, n), random_graph(rng, n)
            same_walks = all(walk_count(g, k) == walk_count(h, k) for k in range(1, n + 1))
            assert are_cospectral(g, h) == same_walks
