"""Spectral-determination searches: cospectral-mate hunting over exhaustive
isomorph-free spaces, and the kite pairwise-distinctness census.

A mate search fixes everything the spectrum fixes at the chosen order
(vertex count and edge count), enumerates one representative per isomorphism
class of that space, prefilters by triangle count (a closed-walk invariant),
and compares exact characteristic polynomials.  A verdict of
``DAS-confirmed-at-scale`` therefore means: no graph in the full constrained
space is cospectral with the target without being isomorphic to it.

Complementing maps the classes with m edges one to one onto those with
C(n, 2) - m edges, so a target with more than half of the C(n, 2) pairs is
searched through the sparser space: its classes are enumerated, where the
edge window prunes far harder.  Goodman's identity,
t(complement of G) = C(n, 3) - (n - 1) m + sum(d_i^2) / 2 - t(G), gives
the triangle count of each one's complement from the sparse graph itself,
so the prefilter runs before anything is complemented, and only its
survivors are complemented for the comparison, which sees only graphs of
the target's own space.  A mate of such a target is reported as the
complement of a sparse representative.  The walked space is built once,
and the merged class count must equal its own Polya count
(``EnumConstraints.classes``), so a walk that loses or repeats a class
fails loudly instead of passing as exhaustive.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from itertools import chain, islice
from math import comb

# kite_charpoly is unused here, but the benchmark's tracer wraps ``das.kite_charpoly``
from .charpoly import _kite_packed, _kite_width, charpoly, kite_charpoly, walk_count  # noqa: F401
from .graph import (
    Graph, KiteParams, _trusted_graph, decode_graph6, encode_graph6, make_kite, triangle_count,
)
from .enumeration import EnumConstraints, canonical_form, enumerate_graphs

VERDICT_DAS = "DAS-confirmed-at-scale"
VERDICT_MATES = "mates-found"
# the largest order p + q a kite search takes; its largest search is Kite_{6,3},
# the 34040 classes with 9 vertices and 18 edges
DESK_ORDER_MAX = 9


class SearchInvariantError(RuntimeError):
    """A search result broke a fact that holds whenever the search is sound."""


@dataclass
class SearchReport:
    target: str
    target_params: KiteParams | None
    n: int
    m: int
    t: int
    space_description: str
    classes_scanned: int
    prefilter_survivors: int
    mates: list[str]
    verdict: str
    claim: str

    def to_json(self) -> dict:
        return asdict(self)


def _scan_partition(args) -> tuple[int, int, list[str]]:
    """Worker: scan one enumeration subtree for cospectral mates.

    Returns (classes_scanned, prefilter_survivors, mate graph6 strings).
    Top-level so it pickles for process pools.
    """
    target_g6, space, part, total = args
    target = decode_graph6(target_g6)
    n = target.n
    target_poly = charpoly(target)
    target_key = canonical_form(target)
    target_t = triangle_count(target)
    # a dense target's space is walked as the complements of the sparse one;
    # Goodman's identity prefilters each sparse graph (module docstring), and
    # only a survivor is complemented
    flip = space.edges != target.edge_count()
    goodman = comb(n, 3) - (n - 1) * space.edges
    partition = (part, total) if total > 1 else None
    full = (1 << n) - 1
    scanned = survivors = 0
    mates = []
    for g in enumerate_graphs(space, partition):
        scanned += 1
        if flip:
            squares = sum(row.bit_count() ** 2 for row in g.rows)
            if goodman + squares // 2 - triangle_count(g) != target_t:
                continue
            g = _trusted_graph(n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.rows)))
        elif triangle_count(g) != target_t:
            continue
        survivors += 1
        if charpoly(g) != target_poly:
            continue
        if canonical_form(g) == target_key:
            continue
        mates.append(encode_graph6(g))
    return scanned, survivors, mates


def find_cospectral_mates(target: Graph, workers: int = 1) -> SearchReport:
    """Exhaustive cospectral-mate search over all isomorphism classes with
    the target's vertex and edge counts, disconnected graphs included, walked
    through the sparser of the space and its complement (module docstring).
    The space is split into one partition per worker, at most one per CPU;
    the merged report does not depend on the split.  It takes no kite
    options (``target_params`` None, claim "exhaustive").  Raises
    EnumerationError before any worker starts for a space past the caps, and
    SearchInvariantError when the classes scanned differ from the space's
    Polya count or a reported mate fails a mate invariant."""
    n, m = target.n, target.edge_count()
    target_g6 = encode_graph6(target)
    space = EnumConstraints(n, min(m, comb(n, 2) - m))
    total = max(1, min(workers, os.cpu_count() or 1))
    jobs = [(target_g6, space, k, total) for k in range(total)]
    if total == 1:
        results = [_scan_partition(jobs[0])]
    else:
        import concurrent.futures  # only a pool loads it: ~10 ms and ~0.5 MB at import
        with concurrent.futures.ProcessPoolExecutor(max_workers=total) as pool:
            results = list(pool.map(_scan_partition, jobs))
    scanned, survivors, part_mates = zip(*results)
    classes_scanned = sum(scanned)
    if classes_scanned != space.classes:
        raise SearchInvariantError(
            f"the search scanned {classes_scanned} classes; Polya's count for "
            f"{n} vertices and {m} edges is {space.classes}"
        )
    mates = sorted(set(chain.from_iterable(part_mates)))
    for mate_g6 in mates:
        _assert_mate_invariants(target, mate_g6)
    return SearchReport(
        target=target_g6,
        target_params=None,
        n=n,
        m=m,
        t=triangle_count(target),
        space_description=f"all graphs on {n} vertices with {m} edges, one per isomorphism class",
        classes_scanned=classes_scanned,
        prefilter_survivors=sum(survivors),
        mates=mates,
        verdict=VERDICT_MATES if mates else VERDICT_DAS,
        claim="exhaustive",
    )


def _isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test that shares no code with
    ``canonical_form``: vertex i of g goes to an unused vertex of h of the
    same degree whose adjacency to the images of 0..i-1 matches g's."""
    if g.n != h.n or g.degree_sequence() != h.degree_sequence():
        return False
    image: list[int] = []

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        row = g.rows[i]
        for v in range(h.n):
            if v not in image and h.rows[v].bit_count() == row.bit_count() and all(
                (h.rows[v] >> w & 1) == (row >> j & 1) for j, w in enumerate(image)
            ):
                image.append(v)
                if extend(i + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def _assert_mate_invariants(target: Graph, mate_g6: str) -> None:
    mate = decode_graph6(mate_g6)
    checks = [
        ("vertex count", mate.n == target.n),
        # closed walks of lengths 2 and 3 count 2m and 6t: edges and triangles
        ("closed-walk counts", all(
            walk_count(mate, i) == walk_count(target, i) for i in range(1, target.n + 1)
        )),
        ("non-isomorphism", not _isomorphic(mate, target)),
    ]
    for what, ok in checks:
        if not ok:
            raise SearchInvariantError(f"reported mate {mate_g6} fails the {what} check")


# -- theorem-level drivers -----------------------------------------------------


@dataclass
class CensusRow:
    n: int
    kite_count: int
    all_distinct: bool


def verify_theorem31(n_max: int) -> list[CensusRow]:
    """For each total order n <= n_max, check that all kite polynomials with
    p >= 3, q >= 1, p + q = n are pairwise distinct.

    Theorem 3.1 holds exactly at every order: cospectral graphs share n and
    m (minus the lambda^{n-2} coefficient), and at a fixed order m - n =
    p(p-3)/2 is strictly increasing in p >= 3.  The census cross-checks the
    whole polynomials, one packed pendant walk per clique size p, every kite
    packed at the one width of order n_max, so two agree iff their ints do."""
    if n_max > 30:
        raise ValueError("census capped at n_max <= 30")
    w, by_order = _kite_width(n_max), [[] for _ in range(n_max + 1)]
    for p in range(3, n_max):
        for q, packed in enumerate(islice(_kite_packed(p, n_max - p, w), 1, None), 1):
            by_order[p + q].append(packed)
    return [CensusRow(n, len(kites), len(set(kites)) == len(kites))
            for n, kites in enumerate(by_order[4:], 4)]


def verify_kite(p: int, q: int, workers: int = 1) -> SearchReport:
    """Exhaustive cospectral-mate search for Kite_{p,q}: scan every graph
    (connected or not) on p + q vertices with C(p, 2) + q edges.  For q = 2
    a clean verdict verifies Theorem 4.2 at that order (claim "exhaustive");
    for q > 2 it is evidence for Conjecture 4.3, never a proof (claim
    "evidence").  Raises SearchInvariantError when the target's edge or
    triangle count is not the kite's."""
    if p < 3 or q < 2 or p + q > DESK_ORDER_MAX:
        raise ValueError(f"desk-scale range is p >= 3, q >= 2 and p + q <= {DESK_ORDER_MAX}")
    report = find_cospectral_mates(make_kite(p=p, q=q), workers)
    m, t = comb(p, 2) + q, comb(p, 3)
    if (report.m, report.t) != (m, t):
        raise SearchInvariantError(
            f"Kite_{{{p},{q}}} has m={report.m}, t={report.t}; expected m={m}, t={t}"
        )
    return replace(report, target_params=KiteParams(p, q),
                   claim="exhaustive" if q == 2 else "evidence")


def verify_theorem42(p: int, workers: int = 1) -> SearchReport:
    """Theorem 4.2 at order p + 2: ``verify_kite(p, 2)``.  For p >= 4 the
    kite has more than half of the vertex pairs, so the search walks the
    complements of the graphs with 2p - 1 edges; for p = 7 these are the
    10120 classes with 9 vertices and 13 edges, dealt to the workers as the
    children their nodes on 7 vertices try, and prefiltered by Goodman's
    identity before any is complemented."""
    return verify_kite(p, 2, workers)
