from math import comb

import pytest

from kitespec import das
from kitespec.charpoly import are_cospectral, charpoly, kite_charpoly
from kitespec.das import (
    VERDICT_DAS,
    VERDICT_MATES,
    SearchInvariantError,
    _assert_mate_invariants,
    candidate_triple_check,
    conjecture43_evidence,
    find_cospectral_mates,
    verify_theorem31,
    verify_theorem42,
)
from kitespec.enumeration import EnumConstraints, canonical_form, enumerate_graphs
from kitespec.graph import (
    Graph,
    KiteParams,
    decode_graph6,
    encode_graph6,
    from_edges,
    make_gb,
    make_gc,
    make_kite,
    make_path,
    make_star,
    triangle_count,
)

from conftest import census_oracle, extended

# graphs on n vertices with a cospectral mate (Haemers and Spence,
# "Enumeration of cospectral graphs", 2004)
TARGETS_WITH_MATES = {1: 0, 2: 0, 3: 0, 4: 0, 5: 2, 6: 10, 7: 110}


def complement(g: Graph) -> Graph:
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    return from_edges(g.n, [(i, j) for i, j in pairs if not g.rows[i] >> j & 1])


@pytest.fixture
def serial_pool(monkeypatch):
    """A serial stand-in for the process pool, so a search with several
    partitions starts no process; returns the list of max_workers and job
    counts it saw."""
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            seen.append(len(jobs))
            return map(fn, jobs)

    monkeypatch.setattr(das.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


class TestMateSearch:
    def test_star_has_classic_mate(self):
        # K_{1,4} and C_4 + isolated vertex share a spectrum
        report = find_cospectral_mates(make_star(4))
        assert report.verdict == VERDICT_MATES
        assert len(report.mates) == 1
        mate = decode_graph6(report.mates[0])
        c4_plus_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert canonical_form(mate) == canonical_form(c4_plus_k1)
        assert are_cospectral(mate, make_star(4))

    def test_mate_invariants_reject_a_non_mate(self):
        # explicit checks, so they hold under python -O as well
        with pytest.raises(SearchInvariantError):
            _assert_mate_invariants(make_kite(p=4, q=2), encode_graph6(make_path(6)))
        c4_plus_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        _assert_mate_invariants(make_star(4), encode_graph6(c4_plus_k1))

    def test_small_kites_have_no_mates(self):
        for p, q in [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)]:
            report = find_cospectral_mates(
                make_kite(p=p, q=q), target_params=KiteParams(p, q)
            )
            assert report.verdict == VERDICT_DAS, (p, q)

    def test_prefilter_is_lossless(self):
        for n in range(1, 7):
            self.assert_matches_oracle(n)

    @extended
    def test_prefilter_is_lossless_n7(self):
        self.assert_matches_oracle(7)

    @staticmethod
    def assert_matches_oracle(n):
        # oracle: every target on n vertices against its own (n, m) stream,
        # exact charpoly with no prefilter; a mate is reported as its
        # representative in the sparser of the space and its complement
        pairs = comb(n, 2)
        streams = [list(enumerate_graphs(EnumConstraints(n=n, edges=m))) for m in range(pairs + 1)]
        with_mates = 0
        for m, space in enumerate(streams):
            keys = [canonical_form(g) for g in space]
            polys = [charpoly(g) for g in space]
            triangles = [triangle_count(g) for g in space]
            shown = space if 2 * m <= pairs else [complement(g) for g in streams[pairs - m]]
            graph6 = {canonical_form(g): encode_graph6(g) for g in shown}
            for target, key, poly, t in zip(space, keys, polys, triangles):
                report = find_cospectral_mates(target)
                mates = {k for k, p in zip(keys, polys) if p == poly and k != key}
                assert report.classes_scanned == len(space)
                assert report.prefilter_survivors == triangles.count(t)
                assert report.mates == sorted(graph6[k] for k in mates)
                with_mates += bool(mates)
        assert with_mates == TARGETS_WITH_MATES[n]

    def test_dense_targets_compare_the_dense_spectra(self):
        # complementing keeps no spectrum unless the graph is regular: the
        # complement of K_{1,4}, K_4 + K_1, has no mate although K_{1,4} has
        report = find_cospectral_mates(complement(make_star(4)))
        assert report.classes_scanned == 6
        assert report.verdict == VERDICT_DAS
        # the complement of C_6 + K_1 (the cone over the prism, 15 of 21
        # edges) has one mate, the complement of the spider with three legs
        # of length 2, reported as the complement of the 6-edge
        # representative of that spider
        target = complement(from_edges(7, [(i, (i + 1) % 6) for i in range(6)]))
        spider = from_edges(7, [(6, 0), (0, 3), (6, 1), (1, 4), (6, 2), (2, 5)])
        (sparse,) = [
            g for g in enumerate_graphs(EnumConstraints(n=7, edges=6))
            if canonical_form(g) == canonical_form(spider)
        ]
        report = find_cospectral_mates(target)
        assert report.mates == [encode_graph6(complement(sparse))]
        assert are_cospectral(decode_graph6(report.mates[0]), target)

    def test_scan_short_of_polya_count_fails(self, monkeypatch):
        # a walk that loses one class must not pass as exhaustive
        walk = das.enumerate_graphs

        def lossy(constraints, partition=None):
            stream = walk(constraints, partition)
            next(stream)
            return stream

        monkeypatch.setattr(das, "enumerate_graphs", lossy)
        with pytest.raises(SearchInvariantError, match="Polya"):
            find_cospectral_mates(make_kite(p=4, q=2))

    def test_parallel_matches_serial(self):
        target = make_kite(p=4, q=2)
        serial = find_cospectral_mates(target, workers=1)
        parallel = find_cospectral_mates(target, workers=4)
        assert serial.mates == parallel.mates
        assert serial.classes_scanned == parallel.classes_scanned
        assert serial.verdict == parallel.verdict

    def test_partitions_capped_at_cpu_count(self, monkeypatch, serial_pool):
        # the serial pool, so a missing cap cannot start processes
        seen = serial_pool
        monkeypatch.setattr(das.os, "cpu_count", lambda: 3)
        target = make_kite(p=4, q=2)
        serial = find_cospectral_mates(target)
        capped = find_cospectral_mates(target, workers=5000)
        assert seen == [3, 3]
        assert (capped.mates, capped.classes_scanned, capped.prefilter_survivors) == (
            serial.mates, serial.classes_scanned, serial.prefilter_survivors
        )
        monkeypatch.setattr(das.os, "cpu_count", lambda: None)
        find_cospectral_mates(target, workers=5000)
        assert seen == [3, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_null_graph_is_one_class(self, monkeypatch, serial_pool, workers):
        monkeypatch.setattr(das.os, "cpu_count", lambda: 2)
        report = find_cospectral_mates(Graph(0, ()), workers=workers)
        assert serial_pool == ([2, 2] if workers == 2 else [])
        assert (report.classes_scanned, report.prefilter_survivors) == (1, 1)
        assert report.mates == [] and report.verdict == VERDICT_DAS

    def test_report_fields(self):
        target = make_kite(p=4, q=1)
        report = find_cospectral_mates(target, target_params=KiteParams(4, 1))
        assert report.target == encode_graph6(target)
        assert (report.n, report.m, report.t) == (5, 7, 4)
        assert report.classes_scanned > 0
        assert report.claim == "exhaustive"
        d = report.to_json()
        assert d["target_params"] == {"p": 4, "q": 1}
        assert d["verdict"] == VERDICT_DAS


class TestKiteCensus:
    def test_distinct_through_n14(self):
        rows = verify_theorem31(14)
        assert rows and all(row.all_distinct for row in rows)
        assert all(row.collisions == [] for row in rows)

    def test_kite_count_per_order(self):
        rows = {row.n: row for row in verify_theorem31(10)}
        # orders p + q = n with p >= 3, q >= 1 give n - 3 kites
        for n in range(4, 11):
            assert rows[n].kite_count == n - 3

    def test_cap(self):
        with pytest.raises(ValueError):
            verify_theorem31(31)

    def test_rows_match_per_kite_oracle(self):
        for n_max in range(-1, 31):
            assert verify_theorem31(n_max) == census_oracle(n_max)

    def test_edge_counts_separate_every_order(self):
        # the lambda^{n-2} coefficient is -m, and m - n = p(p-3)/2 grows with p
        for n in range(4, 31):
            coeffs = [kite_charpoly(p, n - p)[n - 2] for p in range(3, n)]
            assert coeffs == [-(n + p * (p - 3) // 2) for p in range(3, n)]
            assert len(set(coeffs)) == len(coeffs)


class TestExhaustiveChecks:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_pendant_path_two(self, p):
        report = verify_theorem42(p)
        assert report.verdict == VERDICT_DAS
        assert report.m == (p * p - p + 4) // 2

    def test_range_guard(self):
        with pytest.raises(ValueError):
            verify_theorem42(8)

    def test_evidence_mode(self):
        report = conjecture43_evidence(3, 3)
        assert report.claim == "evidence"
        assert report.verdict == VERDICT_DAS

    def test_evidence_mode_guards(self):
        with pytest.raises(ValueError):
            conjecture43_evidence(3, 2)
        with pytest.raises(ValueError):
            conjecture43_evidence(6, 4)


class TestCandidateTriples:
    @pytest.mark.parametrize("p", range(4, 11))
    def test_pairwise_distinct(self, p):
        check = candidate_triple_check(p)
        assert check.all_distinct

    def test_polynomials_reported_match_graphs(self):
        check = candidate_triple_check(5)
        assert check.poly_kite == charpoly(make_kite(p=5, q=2)).to_json()
        assert check.poly_two_pendants_one_vertex == charpoly(make_gb(5)).to_json()
        assert check.poly_two_pendants_two_vertices == charpoly(make_gc(5)).to_json()

    def test_guard(self):
        with pytest.raises(ValueError):
            candidate_triple_check(2)
