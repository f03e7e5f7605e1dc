"""Spectral-determination searches: cospectral-mate hunting over exhaustive
isomorph-free spaces, the kite pairwise-distinctness census, and the
endgame candidate-triple comparison.

A mate search fixes everything the spectrum fixes at the chosen order
(vertex count and edge count), enumerates one representative per isomorphism
class of that space, prefilters by triangle count (a closed-walk invariant),
and compares exact characteristic polynomials.  A verdict of
``DAS-confirmed-at-scale`` therefore means: no graph in the full constrained
space is cospectral with the target without being isomorphic to it.

Complementing maps the classes with m edges one to one onto those with
C(n, 2) - m edges, so a target with more than half of the C(n, 2) pairs is
searched through the sparser space: its classes are enumerated, where the
edge window prunes far harder, and each is complemented before the
prefilter and the comparison, which see only graphs of the target's own
space.  A mate of such a target is reported as the complement of a sparse
representative.  The merged class count must equal Polya's count for the
space (``enumeration.class_count``), so a walk that loses or repeats a class
fails loudly instead of passing as exhaustive.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import asdict, dataclass, field
from itertools import islice
from math import comb

# kite_charpoly is unused here, but the benchmark's tracer wraps ``das.kite_charpoly``
from .charpoly import charpoly, kite_charpoly, kite_charpoly_series, walk_count  # noqa: F401
from .graph import (
    Graph, KiteParams, _trusted_graph, decode_graph6, encode_graph6, make_gb, make_gc, make_kite,
    triangle_count,
)
from .enumeration import EnumConstraints, canonical_form, class_count, enumerate_graphs

VERDICT_DAS = "DAS-confirmed-at-scale"
VERDICT_MATES = "mates-found"
VERDICT_NOT_RUN = "not-run"


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
    classes_scanned: int = 0
    prefilter_survivors: int = 0
    mates: list[str] = field(default_factory=list)
    verdict: str = VERDICT_NOT_RUN
    claim: str = "exhaustive"

    def to_json(self) -> dict:
        return asdict(self)


def _scan_partition(args) -> tuple[int, int, list[str]]:
    """Worker: scan one enumeration subtree for cospectral mates.

    Returns (classes_scanned, prefilter_survivors, mate graph6 strings).
    Top-level so it pickles for process pools.
    """
    target_g6, part, total = args
    target = decode_graph6(target_g6)
    n, m = target.n, target.edge_count()
    target_poly = charpoly(target)
    target_key = canonical_form(target)
    target_t = triangle_count(target)
    # a dense space is walked as the complements of the sparse one
    flip = 2 * m > comb(n, 2)
    constraints = EnumConstraints(n=n, edges=comb(n, 2) - m if flip else m)
    partition = (part, total) if total > 1 else None
    full = (1 << n) - 1
    scanned = survivors = 0
    mates = []
    for g in enumerate_graphs(constraints, partition):
        if flip:
            g = _trusted_graph(n, tuple(full & ~row & ~(1 << i) for i, row in enumerate(g.rows)))
        scanned += 1
        if triangle_count(g) != target_t:
            continue
        survivors += 1
        if charpoly(g) != target_poly:
            continue
        if canonical_form(g) == target_key:
            continue
        mates.append(encode_graph6(g))
    return scanned, survivors, mates


def find_cospectral_mates(
    target: Graph,
    *,
    target_params: KiteParams | None = None,
    workers: int = 1,
    claim: str = "exhaustive",
) -> SearchReport:
    """Exhaustive cospectral-mate search over all isomorphism classes with
    the target's vertex and edge counts, disconnected graphs included, walked
    through the sparser of the space and its complement (module docstring).
    The space is split into one partition per worker, at most one per CPU;
    the merged report does not depend on the split.  Raises
    SearchInvariantError when the classes scanned differ from Polya's count
    or a reported mate fails a mate invariant."""
    n, m = target.n, target.edge_count()
    report = SearchReport(
        target=encode_graph6(target),
        target_params=target_params,
        n=n,
        m=m,
        t=triangle_count(target),
        space_description=f"all graphs on {n} vertices with {m} edges, one per isomorphism class",
        claim=claim,
    )
    total = max(1, min(workers, os.cpu_count() or 1))
    jobs = [(report.target, k, total) for k in range(total)]
    if total == 1:
        results = [_scan_partition(jobs[0])]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=total) as pool:
            results = list(pool.map(_scan_partition, jobs))
    mates: list[str] = []
    for scanned, survivors, part_mates in results:
        report.classes_scanned += scanned
        report.prefilter_survivors += survivors
        mates.extend(part_mates)
    expected = class_count(n, m)
    if report.classes_scanned != expected:
        raise SearchInvariantError(
            f"the search scanned {report.classes_scanned} classes; Polya's count for "
            f"{n} vertices and {m} edges is {expected}"
        )
    report.mates = sorted(set(mates))
    report.verdict = VERDICT_MATES if report.mates else VERDICT_DAS
    for mate_g6 in report.mates:
        _assert_mate_invariants(target, mate_g6)
    return report


def _assert_mate_invariants(target: Graph, mate_g6: str) -> None:
    mate = decode_graph6(mate_g6)
    checks = [
        ("vertex count", mate.n == target.n),
        ("edge count", mate.edge_count() == target.edge_count()),
        ("triangle count", triangle_count(mate) == triangle_count(target)),
        ("closed-walk counts", all(
            walk_count(mate, i) == walk_count(target, i) for i in range(1, target.n + 1)
        )),
        ("non-isomorphism", canonical_form(mate) != canonical_form(target)),
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
    collisions: list[tuple[tuple[int, int], tuple[int, int]]]


def verify_theorem31(n_max: int) -> list[CensusRow]:
    """For each total order n <= n_max, check that all kite polynomials with
    p >= 3, q >= 1, p + q = n are pairwise distinct.

    Theorem 3.1 holds exactly at every order: cospectral graphs share n and
    m (minus the lambda^{n-2} coefficient), and at a fixed order m - n =
    p(p-3)/2 is strictly increasing in p >= 3.  The census cross-checks the
    whole polynomials, one pendant walk per clique size p."""
    if n_max > 30:
        raise ValueError("census capped at n_max <= 30")
    rows = [CensusRow(n, 0, True, []) for n in range(4, n_max + 1)]
    first: list[dict] = [{} for _ in rows]  # per order: coefficients -> first (p, q)
    for p in range(3, n_max):
        for q, coeffs in enumerate(islice(kite_charpoly_series(p, n_max - p), 1, None), 1):
            row, seen = rows[p + q - 4], first[p + q - 4].setdefault(coeffs, (p, q))
            row.kite_count += 1
            if seen != (p, q):
                row.collisions.append((seen, (p, q)))
                row.all_distinct = False
    return rows


def verify_theorem42(p: int, workers: int = 1) -> SearchReport:
    """Exhaustive DAS check for Kite_{p,2}: scan every graph (connected or
    not) on p+2 vertices with (p^2 - p + 4)/2 edges.  For p >= 4 that is more
    than half of the vertex pairs, so the search walks the complements of
    the graphs with 2p - 1 edges; for p = 7 these are the 10120
    classes with 9 vertices and 13 edges, dealt to the workers by their
    parents on 8 vertices."""
    if not 3 <= p <= 7:
        raise ValueError("desk-scale range is 3 <= p <= 7")
    target = make_kite(p=p, q=2)
    report = find_cospectral_mates(target, target_params=KiteParams(p, 2), workers=workers)
    if report.m != (p * p - p + 4) // 2 or report.t != comb(p, 3):
        raise SearchInvariantError(
            f"Kite_{{{p},2}} has m={report.m}, t={report.t}; expected "
            f"m={(p * p - p + 4) // 2}, t={comb(p, 3)}"
        )
    return report


def conjecture43_evidence(p: int, q: int, workers: int = 1) -> SearchReport:
    """Same search for q > 2; the verdict is evidence only, never a proof."""
    if q <= 2 or p < 3:
        raise ValueError("evidence mode needs p >= 3 and q > 2")
    if p + q > 9:
        raise ValueError("desk-scale range is p + q <= 9")
    target = make_kite(p=p, q=q)
    return find_cospectral_mates(
        target,
        target_params=KiteParams(p, q),
        workers=workers,
        claim="evidence",
    )


@dataclass
class TripleCheck:
    p: int
    poly_kite: list[str]
    poly_two_pendants_one_vertex: list[str]
    poly_two_pendants_two_vertices: list[str]
    all_distinct: bool


def candidate_triple_check(p: int) -> TripleCheck:
    """Compare the three candidate graphs left at the end of the DAS
    argument: the kite itself, K_p with a cherry on one clique vertex, and
    K_p with pendants on two distinct clique vertices."""
    if p < 3:
        raise ValueError("p >= 3 required")
    pa = charpoly(make_kite(p=p, q=2))
    pb = charpoly(make_gb(p))
    pc = charpoly(make_gc(p))
    return TripleCheck(
        p,
        pa.to_json(),
        pb.to_json(),
        pc.to_json(),
        pa != pb and pa != pc and pb != pc,
    )
