"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line so the whole gate can be read
at a glance from ``pytest -v -s tests/test_acceptance.py``.

The exhaustive p = 7 mate search (order 9, ~10k classes) is an extended run;
set KITESPEC_EXTENDED=1 to include it.
"""

import os
import random
import time
from fractions import Fraction
from math import comb

import pytest

from kitespec.bounds import (
    kite_radius_bounds,
    spectral_radius,
    verify_lemma41_inequality,
)
from kitespec.charpoly import (
    are_cospectral,
    charpoly,
    charpoly_interpolated,
    closed_form_complete,
    kite_charpoly,
    walk_count,
)
from kitespec.das import (
    VERDICT_DAS,
    VERDICT_MATES,
    find_cospectral_mates,
    verify_theorem31,
    verify_theorem42,
)
from kitespec.enumeration import (
    EnumConstraints,
    canonical_form,
    enumerate_graphs,
)
from kitespec.graph import (
    KiteParams,
    from_edges,
    is_connected,
    make_complete,
    make_gb,
    make_gc,
    make_kite,
    triangle_count,
)

from conftest import (
    brute_force_classes,
    charpoly_pendant_recursive,
    closed_form_gc,
    kite_u_identity_check,
    make_star,
)

RADIUS_MARGIN = 1e-9
RADIUS_TOL = 1e-10


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _random_connected(rng: random.Random, n: int):
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = from_edges(n, edges)
        if is_connected(g):
            return g


def test_criterion_01_route_equivalence():
    start = time.monotonic()
    rng = random.Random(20260826)
    checked = 0
    ok = True
    for p in range(1, 12):
        for q in range(0, 12 - p + 1):
            g = make_kite(p=p, q=q)
            a = charpoly(g)
            ok = ok and charpoly_pendant_recursive(g) == a == charpoly_interpolated(g)
            checked += 1
    for _ in range(500):
        g = _random_connected(rng, rng.randint(2, 9))
        a = charpoly(g)
        ok = ok and charpoly_pendant_recursive(g) == a == charpoly_interpolated(g)
        checked += 1
    elapsed = time.monotonic() - start
    report(
        "route equivalence: three independent charpoly algorithms, exact",
        ok and elapsed < 60,
        f"{checked} graphs, {elapsed:.1f}s",
    )


def test_criterion_02_closed_forms():
    start = time.monotonic()
    ok = all(
        closed_form_complete(p) == charpoly(make_complete(p))
        and kite_charpoly(p, 1) == charpoly(make_kite(p=p, q=1))
        and kite_charpoly(p, 2) == charpoly(make_kite(p=p, q=2))
        for p in range(2, 13)
    )
    ok = ok and all(closed_form_gc(p) == charpoly(make_gc(p)) for p in range(4, 13))
    # below the contracted range the corrected form still agrees
    p3_agrees = closed_form_gc(3) == charpoly(make_gc(3))
    elapsed = time.monotonic() - start
    report(
        "closed forms for complete graphs, short-tail kites, and the two-pendant graph",
        ok and elapsed < 5,
        f"p up to 12; p=3 agrees too: {p3_agrees}; {elapsed:.1f}s",
    )


def test_criterion_03_u_substitution_identity():
    start = time.monotonic()
    ok = True
    points = 0
    for p in range(3, 9):
        for q in range(1, 6):
            # 2(p+q)+10 distinct rational points exceeds the degree of both
            # sides, so agreement certifies the polynomial identity
            needed = 2 * (p + q) + 10
            for k in range(needed):
                u = Fraction(k + 2, 1) if k % 2 == 0 else Fraction(1, k + 2)
                ok = ok and kite_u_identity_check(p, q, u)
                points += 1
    elapsed = time.monotonic() - start
    report(
        "u-substitution closed form matches the kite polynomial (exact rational)",
        ok and elapsed < 30,
        f"{points} evaluation points, {elapsed:.1f}s",
    )


def test_criterion_04_kites_pairwise_distinct():
    start = time.monotonic()
    rows = verify_theorem31(14)
    ok = bool(rows) and all(r.all_distinct for r in rows)
    elapsed = time.monotonic() - start
    report(
        "same-order kite polynomials pairwise distinct through n = 14",
        ok and elapsed < 10,
        f"{sum(r.kite_count for r in rows)} kites, {elapsed:.1f}s",
    )


def test_criterion_05_exhaustive_mate_search():
    start = time.monotonic()
    extended = os.environ.get("KITESPEC_EXTENDED") == "1"
    ps = [3, 4, 5, 6] + ([7] if extended else [])
    scanned = 0
    ok = True
    for p in ps:
        rep = verify_theorem42(p, workers=8 if p == 7 else 1)
        scanned += rep.classes_scanned
        ok = ok and rep.verdict == VERDICT_DAS and rep.mates == []
    elapsed = time.monotonic() - start
    report(
        "exhaustive cospectral-mate search clean for short-tail kites",
        ok and elapsed < (7200 if extended else 300),
        f"p in {ps}, {scanned} classes scanned, {elapsed:.1f}s",
    )


def test_criterion_06_radius_sandwich():
    start = time.monotonic()
    ok = True
    checked = 0
    for p in range(3, 13):
        lower, upper = kite_radius_bounds(p)
        for q in range(1, 11):
            rho = spectral_radius(make_kite(p=p, q=q))
            ok = ok and (rho - lower > RADIUS_MARGIN) and (upper - rho > RADIUS_MARGIN)
            checked += 1
    elapsed = time.monotonic() - start
    report(
        "spectral-radius sandwich brackets every kite radius with margin > 1e-9",
        ok and elapsed < 30,
        f"{checked} (p,q) pairs, rho to {RADIUS_TOL}, {elapsed:.1f}s",
    )


def test_criterion_07_clique_bound_inequality():
    start = time.monotonic()
    cases, violations = verify_lemma41_inequality(50)
    elapsed = time.monotonic() - start
    report(
        "clique-bound inequality sweep to p = 50, exact rational",
        cases > 0 and not violations and elapsed < 5,
        f"{cases} checks, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_08_cospectrality_trace_characterization():
    start = time.monotonic()
    rng = random.Random(0xACCE55)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        h = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        same_traces = all(walk_count(g, i) == walk_count(h, i) for i in range(1, n + 1))
        ok = ok and are_cospectral(g, h) == same_traces
    for _ in range(500):
        n = rng.randint(1, 9)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
        ok = ok and walk_count(g, 2) == 2 * g.edge_count()
        ok = ok and walk_count(g, 3) == 6 * triangle_count(g)
    elapsed = time.monotonic() - start
    report(
        "cospectrality equals equal power traces; trace/edge/triangle identities",
        ok and elapsed < 30,
        f"200 pairs + 500 graphs, {elapsed:.1f}s",
    )


def test_criterion_09_known_mate_regression():
    start = time.monotonic()
    rep = find_cospectral_mates(make_star(4))
    c4_plus_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ok = rep.verdict == VERDICT_MATES and len(rep.mates) == 1
    if ok:
        from kitespec.graph import decode_graph6

        ok = canonical_form(decode_graph6(rep.mates[0])) == canonical_form(c4_plus_k1)
    elapsed = time.monotonic() - start
    report(
        "mate search rediscovers the star / cycle-plus-isolated-vertex pair",
        ok and elapsed < 1,
        f"{rep.classes_scanned} classes, {elapsed:.2f}s",
    )


def test_criterion_10_enumeration_oracle():
    start = time.monotonic()
    expect = {4: (11, 6), 5: (34, 21), 6: (156, 112)}
    ok = True
    for n, (total, connected) in expect.items():
        stream_all = {canonical_form(g) for g in enumerate_graphs(EnumConstraints(n))}
        # the connected classes, filtered from the whole stream
        stream_conn = {
            canonical_form(g) for g in enumerate_graphs(EnumConstraints(n)) if is_connected(g)
        }
        oracle_all = brute_force_classes(n)
        oracle_conn = brute_force_classes(n, connected_only=True)
        ok = ok and stream_all == oracle_all and stream_conn == oracle_conn
        ok = ok and (len(stream_all), len(stream_conn)) == (total, connected)
    elapsed = time.monotonic() - start
    report(
        "canonical-augmentation enumeration matches the brute-force dedup oracle",
        ok and elapsed < 60,
        f"n = 4..6, {elapsed:.1f}s",
    )


def test_criterion_11_candidate_triples():
    start = time.monotonic()
    ok = True
    for p in range(4, 11):
        pa, pb, pc = (charpoly(g) for g in (make_kite(p=p, q=2), make_gb(p), make_gc(p)))
        ok = ok and pa != pb and pa != pc and pb != pc
    elapsed = time.monotonic() - start
    report(
        "the three endgame candidate graphs have pairwise distinct polynomials",
        ok and elapsed < 5,
        f"p = 4..10, {elapsed:.1f}s",
    )
