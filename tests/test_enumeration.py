import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from math import comb

import pytest

from kitespec.enumeration import (
    ENUM_CLASS_CAP,
    ENUM_ORDER_CAP,
    CanonicalKey,
    CorruptCacheError,
    EnumConstraints,
    EnumerationError,
    cache_load,
    cache_store,
    canonical_form,
    class_count,
    enumerate_cached,
    enumerate_graphs,
)
from kitespec import enumeration
from kitespec.graph import (
    Graph,
    decode_graph6,
    encode_graph6,
    from_edges,
    is_connected,
    make_complete,
    make_kite,
    make_path,
)

from conftest import (
    brute_force_classes, brute_force_search, extended, make_cycle, random_graph, relabel,
)

# isomorphism-class counts for simple graphs on n vertices (all / connected)
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# sha256 of the newline-joined graph6 stream of enumerate_graphs(n): pins the
# canonical form, the representatives and the stream order
STREAM_SHA256 = {
    7: "e10a6089bcb5eb6266861dc6375b91d29d262336a5062e6d80005adcf98b04cf",
    8: "db386fcab814d4b9dfe3af666ac40c9da7cd9560523cb2c23d09762189a5d7c1",
}
# (space, filter of its stream or None, digest); the connected classes are the
# whole stream filtered, as ``enumerate --connected`` prints them
CONSTRAINED_STREAM_SHA256 = [
    (EnumConstraints(8, edges=14), None, "a33b30c1f6a59638fc503fc7ea2c0d3f3a7e851e9b039633d568c28b1c09cbb5"),
    (EnumConstraints(7), is_connected, "29e88adc3b56368b3005a9de608ee5e14a79700b9b0704191cc1b3da60820eb3"),
]
# the two halves of the n = 9, m = 13 stream the p = 7 mate search scans,
# as the complements of the n = 9, m = 23 classes
N9_M13_PARTITION_SHA256 = [
    "e4ececabb9987ad9c4dd305bcf122b5b51afa6c2e30878dd695b7c9dfdce49b9",
    "70c33406b14f18838d4604c2ed12bd40c60d650e40d7102a39914a607a45e6c0",
]

# sha256 over (bits, last) of _canonical_search for every class on the given
# orders, each under a seeded relabelling: pins the key function itself and
# the canonical-deletion orbit, not only the stream built from them
CANONICAL_KEYS_SHA256 = {
    7: "4b28d3b8d9e8bf5b7b82a0b71ed0baa6743f47502f192fc00fe5b56a2c351592",
    8: "b09507c60713f0c60b951acbce882641536d943561f71cf07c019196414d2a81",
}

# children built at each child order 2..n by a constrained walk, counted at
# _extend: the degree-monotone edge window sets these, the stream does not;
# on every level a candidate is built only when kept or tied by its
# parent-side rounds 0 and 1 (_deletion_rank)
BUILT_CHILDREN_PER_LEVEL = [
    pytest.param(EnumConstraints(8, edges=14), [2, 4, 7, 18, 69, 398, 1772], id="n8-m14"),
    pytest.param(
        EnumConstraints(9, edges=13), [2, 2, 6, 11, 23, 105, 843, 10845],
        id="n9-m13", marks=extended,
    ),
    pytest.param(
        EnumConstraints(9, edges=23), [2, 4, 11, 30, 129, 748, 4070, 11035],
        id="n9-m23", marks=extended,
    ),
]


def stream_sha256(constraints, partition=None, keep=None):
    graphs = enumerate_graphs(constraints, partition)
    stream = "\n".join(encode_graph6(g) for g in graphs if keep is None or keep(g))
    return hashlib.sha256(stream.encode()).hexdigest()


def canonical_keys_sha256(orders):
    rng = random.Random(0x5EED)
    h = hashlib.sha256()
    for n in orders:
        for g in enumerate_graphs(EnumConstraints(n)):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = relabel(g, perm)
            cells = enumeration._refinement_cells(relabelled)
            cols, last, _ = enumeration._canonical_search(relabelled, cells)
            h.update(f"{n} {enumeration._cols_to_bits(cols)} {last}\n".encode())
    return h.hexdigest()


def group_order(gens, n):
    """Order of the permutation group on range(n) that ``gens`` generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        perm = frontier.pop()
        for img in gens:
            product = tuple(img[v] for v in perm)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return len(group)


def complete_bipartite(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


class TestCanonicalForm:
    def test_invariant_under_relabeling(self, rng):
        for _ in range(150):
            n = rng.randint(1, 7)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(make_path(4)) != canonical_form(make_cycle(4))
        # same degree sequence, not isomorphic: C6 vs two triangles
        c6 = make_cycle(6)
        two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(two_triangles)

    def test_search_generates_automorphism_group(self):
        # children() keeps one mask per orbit of these generators, so they
        # must generate all of Aut(G), not a subgroup
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        checked = 0
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if not 1 <= n <= 6:
                continue
            g = from_edges(n, h.edges())
            gens = enumeration._canonical_search(g, enumeration._refinement_cells(g))[2]
            for img in gens:
                assert relabel(g, img) == g
            expected = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
            assert group_order(gens, n) == expected, encode_graph6(g)
            checked += 1
        assert checked == sum(ALL_COUNTS[n] for n in range(1, 7))

    def test_search_matches_brute_force(self):
        # the definition, checked without the backtracking: the least
        # encoding over cell-respecting orderings, every vertex that ends a
        # least ordering, and automorphisms only
        rng = random.Random(0x5EED)
        checked = 0
        for n in range(1, 7):
            for g in enumerate_graphs(EnumConstraints(n)):
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    cells = enumeration._refinement_cells(h)
                    cols, last, gens = enumeration._canonical_search(h, cells)
                    expected = brute_force_search(h, cells)
                    assert (cols, last) == expected, encode_graph6(h)
                    for img in gens:
                        assert relabel(h, img) == h, encode_graph6(h)
                    checked += 1
        assert checked == 2 * sum(ALL_COUNTS[n] for n in range(1, 7))

    def test_golden_canonical_keys(self):
        assert canonical_keys_sha256(range(1, 8)) == CANONICAL_KEYS_SHA256[7]

    @extended
    def test_golden_canonical_keys_n8(self):
        assert canonical_keys_sha256([8]) == CANONICAL_KEYS_SHA256[8]

    @pytest.mark.parametrize(
        "g, bits",
        [
            (make_complete(8), 268435455),
            (make_cycle(8), 873568),
            (complete_bipartite(4, 4), 4185720),
        ],
        ids=["K8", "C8", "K44"],
    )
    def test_pinned_keys(self, g, bits):
        assert canonical_form(g) == CanonicalKey(8, bits)

    @pytest.mark.parametrize(
        "g, seconds",
        [
            (make_complete(12), 2),
            (complete_bipartite(6, 6), 2),
            (Graph(12, (0,) * 12), 2),
            (make_complete(24), 10),
            (complete_bipartite(12, 12), 10),
        ],
        ids=["K12", "K66", "empty12", "K24", "K1212"],
    )
    def test_symmetric_inputs_finish(self, g, seconds):
        # Automorphism pruning makes large groups cheap.  Cycles are left
        # out: their groups are small, so pruning does not help them, and
        # without re-refinement after individualisation C_20 does not finish.
        start = time.perf_counter()
        key = canonical_form(g)
        assert time.perf_counter() - start < seconds
        assert key.n == g.n
        assert key.bits.bit_count() == g.edge_count()


def first_rounds(child, v):
    """The deletion test of ``v`` after refinement rounds 0 and 1, read from
    the built ``child`` in the form the ``_refinement_cells`` docstring
    states: a vertex's round-1 key within its degree class is the sorted
    tuple of its neighbours' degrees.  -1 rejects ``v``, 1 keeps it alone,
    0 leaves it to later rounds."""
    degrees = [row.bit_count() for row in child.rows]
    if degrees[v] < max(degrees):
        return -1
    rivals = [u for u in range(child.n) if u != v and degrees[u] == degrees[v]]

    def key(u):
        return sorted(degrees[x] for x in range(child.n) if child.rows[u] >> x & 1)

    if any(key(u) > key(v) for u in rivals):
        return -1
    return 1 if all(key(u) < key(v) for u in rivals) else 0


def deletion_rank_calls(spaces):
    """The arguments of every ``_deletion_rank`` call the walks of ``spaces``
    make: each candidate mask, on every level, that passes the weight
    window, the maximum-degree test and the orbit test."""
    calls = []
    rank = enumeration._deletion_rank

    def recording(rows, by_degree, mask):
        calls.append((rows, by_degree, mask))
        return rank(rows, by_degree, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_deletion_rank", recording)
        for constraints in spaces:
            for _ in enumerate_graphs(constraints):
                pass
    return calls


def deletion_rank_mismatches(calls, rank):
    """The calls on which ``rank`` differs from rounds 0 and 1 on the built
    child, or contradicts the last cell of the child's full refinement: a
    reject must leave the new vertex k out of it, a keep must make it
    ``[k]``; a tie may go either way in later rounds."""
    bad = []
    for rows, by_degree, mask in calls:
        k = len(rows)
        child = enumeration._extend(Graph(k, rows), mask)
        last = enumeration._refinement_cells(child)[-1]
        got = rank(rows, by_degree, mask)
        if got != first_rounds(child, k) or got < 0 and k in last or got > 0 and last != [k]:
            bad.append((encode_graph6(child), got))
    return bad


class TestDeletionRank:
    """Every level decides refinement rounds 0 and 1 from the parent's
    bitmasks (``_deletion_rank``); the one full refinement of a built child
    decides the later rounds."""

    SMALL_SPACES = [EnumConstraints(n, m) for n in range(8) for m in range(comb(n, 2) + 1)]
    SMALL_SPACES += [EnumConstraints(n) for n in range(8)]

    def test_matches_the_built_child(self):
        calls = deletion_rank_calls(self.SMALL_SPACES)
        assert deletion_rank_mismatches(calls, enumeration._deletion_rank) == []
        ranks = Counter(enumeration._deletion_rank(*call) for call in calls)
        assert ranks.keys() == {-1, 0, 1}, ranks

        def keeps_ties(rows, by_degree, mask):
            return enumeration._deletion_rank(rows, by_degree, mask) or 1

        def rejects_ties(rows, by_degree, mask):
            return enumeration._deletion_rank(rows, by_degree, mask) or -1

        # the check catches a rank that decides a tie either way
        assert deletion_rank_mismatches(calls, keeps_ties)
        assert deletion_rank_mismatches(calls, rejects_ties)

    @extended
    def test_matches_the_built_child_n9_m13(self):
        calls = deletion_rank_calls([EnumConstraints(9, edges=13)])
        assert len(calls) == 17192
        assert deletion_rank_mismatches(calls, enumeration._deletion_rank) == []


class TestTrustedBuilds:
    """Children, decodes and canonical copies skip Graph validation; each
    must still be a graph that validation accepts."""

    def test_enumerated_graphs_are_valid(self):
        streams = chain(
            *(enumerate_graphs(EnumConstraints(n)) for n in range(1, 8)),
            enumerate_graphs(EnumConstraints(8, edges=14)),
        )
        for g in streams:
            assert Graph(g.n, g.rows) == g

    def test_decoded_graphs_are_valid(self, rng):
        for _ in range(200):
            n = rng.randint(0, 24)
            nbits = n * (n - 1) // 2
            length = (nbits + 5) // 6
            value = rng.getrandbits(nbits) << (6 * length - nbits)
            body = "".join(chr(63 + (value >> 6 * (length - 1 - i) & 63)) for i in range(length))
            text = chr(63 + n) + body
            g = decode_graph6(text)
            assert Graph(g.n, g.rows) == g
            assert encode_graph6(g) == text


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_all(self, n):
        graphs = list(enumerate_graphs(EnumConstraints(n)))
        assert len(graphs) == ALL_COUNTS[n]
        keys = {canonical_form(g) for g in graphs}
        assert len(keys) == len(graphs)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_connected(self, n):
        graphs = [g for g in enumerate_graphs(EnumConstraints(n)) if is_connected(g)]
        assert len(graphs) == CONNECTED_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n):
        mine = {canonical_form(g) for g in enumerate_graphs(EnumConstraints(n))}
        assert mine == brute_force_classes(n)

    def test_brute_force_connected(self):
        mine = {canonical_form(g) for g in enumerate_graphs(EnumConstraints(5)) if is_connected(g)}
        assert mine == brute_force_classes(5, connected_only=True)

    def test_edge_constraint(self):
        for m in range(comb(6, 2) + 1):
            graphs = list(enumerate_graphs(EnumConstraints(6, edges=m)))
            assert all(g.edge_count() == m for g in graphs)
        total = sum(
            len(list(enumerate_graphs(EnumConstraints(6, edges=m))))
            for m in range(comb(6, 2) + 1)
        )
        assert total == ALL_COUNTS[6]

    @pytest.mark.parametrize("total", [2, 3, 4], ids=lambda total: f"K{total}")
    @pytest.mark.parametrize(
        "constraints",
        [EnumConstraints(n, m) for n in range(8) for m in range(comb(n, 2) + 1)]
        + [EnumConstraints(n) for n in range(8)],
        ids=lambda c: f"n{c.n}" + ("" if c.edges is None else f"-m{c.edges}"),
    )
    def test_partitions_merge_to_full_stream(self, constraints, total):
        full = sorted(encode_graph6(g) for g in enumerate_graphs(constraints))
        parts = [
            [encode_graph6(g) for g in enumerate_graphs(constraints, partition=(k, total))]
            for k in range(total)
        ]
        # the full stream repeats no class, so neither do the parts together
        assert sorted(chain.from_iterable(parts)) == full

    def test_null_graph_is_one_class(self):
        for cons in (EnumConstraints(0), EnumConstraints(0, edges=0)):
            assert [encode_graph6(g) for g in enumerate_graphs(cons)] == ["?"]
        # the root is dealt to exactly one partition
        for total in range(1, 4):
            streams = [
                [encode_graph6(g) for g in enumerate_graphs(EnumConstraints(0), partition=(k, total))]
                for k in range(total)
            ]
            assert sorted(chain.from_iterable(streams)) == ["?"], total

    def test_mask_windows(self):
        # each parent visits one cached window: the k-bit masks with a
        # popcount in low..high, strictly ascending, and () when low > high;
        # any faster generator must return exactly this tuple
        for k in range(ENUM_ORDER_CAP):
            for low in range(k + 1):
                for high in range(k + 1):
                    expected = tuple(m for m in range(1 << k) if low <= m.bit_count() <= high)
                    assert enumeration._masks(k, low, high) == expected, (k, low, high)

    def test_constraint_validation(self):
        with pytest.raises(EnumerationError):
            EnumConstraints(10)  # 12005168 classes
        with pytest.raises(EnumerationError):
            EnumConstraints(ENUM_ORDER_CAP + 1, edges=5)
        with pytest.raises(EnumerationError):
            EnumConstraints(4, edges=7)
        with pytest.raises(EnumerationError):
            list(enumerate_graphs(EnumConstraints(4), partition=(4, 4)))

    def test_space_size_cap(self):
        # the largest space on 10 vertices is the cap; (11, 27), inside the
        # order cap, holds 106321628 classes and is refused before any walk
        assert ENUM_CLASS_CAP == max(class_count(10, m) for m in range(46)) == class_count(10, 22)
        for n, edges in ((11, 27), (10, None), (11, 17), (11, None)):
            start = time.monotonic()
            with pytest.raises(EnumerationError, match="past the enumeration cap"):
                EnumConstraints(n, edges)
            assert time.monotonic() - start < 1
        for n, edges in ((10, 22), (10, 23), (11, 13), (11, 16), (9, None)):
            assert EnumConstraints(n, edges) == EnumConstraints(n=n, edges=edges)

    def test_golden_stream_n7(self):
        assert stream_sha256(EnumConstraints(7)) == STREAM_SHA256[7]

    @extended
    def test_golden_stream_n8(self):
        assert sum(1 for _ in enumerate_graphs(EnumConstraints(8))) == 12346
        assert stream_sha256(EnumConstraints(8)) == STREAM_SHA256[8]

    @pytest.mark.parametrize(
        "constraints, keep, digest",
        CONSTRAINED_STREAM_SHA256,
        ids=["n8-m14", "n7-connected"],
    )
    def test_golden_stream_constrained(self, constraints, keep, digest):
        assert stream_sha256(constraints, keep=keep) == digest

    @extended
    @pytest.mark.parametrize("k", [0, 1])
    def test_golden_stream_n9_m13_partition(self, k):
        digest = stream_sha256(EnumConstraints(9, edges=13), partition=(k, 2))
        assert digest == N9_M13_PARTITION_SHA256[k]

    @pytest.mark.parametrize(
        "constraints",
        [EnumConstraints(8, edges=10), pytest.param(EnumConstraints(9, edges=13), marks=extended)],
        ids=["n8-m10", "n9-m13"],
    )
    def test_partitions_balanced(self, constraints):
        # the candidates of the nodes on n - 2 vertices are dealt out, so
        # neither half is a small remainder (5212 and 4908 on n9-m13)
        halves = [
            [encode_graph6(g) for g in enumerate_graphs(constraints, partition=(k, 2))]
            for k in range(2)
        ]
        full = [encode_graph6(g) for g in enumerate_graphs(constraints)]
        assert sorted(halves[0] + halves[1]) == sorted(full)
        assert len(full) == class_count(constraints.n, constraints.edges)
        assert all(len(half) >= 0.4 * len(full) for half in halves), list(map(len, halves))

    @pytest.mark.parametrize("n", range(8))
    def test_class_count_matches_enumeration(self, n):
        for m in range(comb(n, 2) + 1):
            assert class_count(n, m) == sum(1 for _ in enumerate_graphs(EnumConstraints(n, edges=m)))
        assert sum(class_count(n, m) for m in range(comb(n, 2) + 1)) == ALL_COUNTS[n]

    def test_class_count_matches_one_walk_n8(self):
        by_edges = Counter(g.edge_count() for g in enumerate_graphs(EnumConstraints(8)))
        assert by_edges == {m: class_count(8, m) for m in range(comb(8, 2) + 1)}
        assert sum(by_edges.values()) == class_count(8) == 12346

    @extended
    def test_class_count_matches_enumeration_n10_m15(self):
        assert class_count(10, 15) == 136433
        assert sum(1 for _ in enumerate_graphs(EnumConstraints(10, edges=15))) == 136433

    @extended
    def test_class_count_matches_enumeration_n8_n9(self):
        for m in range(comb(8, 2) + 1):
            assert class_count(8, m) == sum(1 for _ in enumerate_graphs(EnumConstraints(8, edges=m)))
        assert class_count(9, 23) == 10120
        assert sum(1 for _ in enumerate_graphs(EnumConstraints(9, edges=23))) == 10120

    def test_class_count_edge_cases(self):
        # complementing pairs the m-edge classes with the C(n, 2) - m ones
        assert all(class_count(9, m) == class_count(9, 36 - m) for m in range(37))
        assert class_count(11, 0) == class_count(11, 55) == 1
        assert class_count(5, 11) == class_count(5, -1) == 0
        assert class_count(0, 0) == 1  # the null graph

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set[CanonicalKey]] = {}
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n:
                atlas.setdefault(n, set()).add(canonical_form(from_edges(n, h.edges())))
        for n in range(1, 8):
            assert len(atlas[n]) == ALL_COUNTS[n]
            assert {canonical_form(g) for g in enumerate_graphs(EnumConstraints(n))} == atlas[n]

    def test_kite_appears_in_its_stratum(self):
        g = make_kite(p=4, q=2)
        cons = EnumConstraints(6, edges=8)
        keys = {canonical_form(h) for h in enumerate_graphs(cons) if is_connected(h)}
        assert canonical_form(g) in keys


class TestConstrainedWalk:
    """A constraint prunes subtrees of the walk but never reorders it: the
    constrained stream is the unconstrained one filtered, graph for graph."""

    @staticmethod
    def assert_filtered_in_order(n, invariant, field, values):
        expected = {value: [] for value in values}
        for g in enumerate_graphs(EnumConstraints(n)):
            expected.setdefault(invariant(g), []).append(encode_graph6(g))
        for value in values:
            cons = EnumConstraints(n, **{field: value})
            assert [encode_graph6(g) for g in enumerate_graphs(cons)] == expected[value], value

    @pytest.mark.parametrize("n", range(1, 8))
    def test_edge_constraint_keeps_order(self, n):
        self.assert_filtered_in_order(n, Graph.edge_count, "edges", range(comb(n, 2) + 1))

    @extended
    def test_edge_constraint_keeps_order_n8(self):
        self.assert_filtered_in_order(8, Graph.edge_count, "edges", range(comb(8, 2) + 1))

    @pytest.mark.parametrize("constraints, per_level", BUILT_CHILDREN_PER_LEVEL)
    def test_built_children_per_level(self, constraints, per_level, monkeypatch):
        built = Counter()
        extend = enumeration._extend

        def counting(parent, mask):
            built[parent.n + 1] += 1
            return extend(parent, mask)

        monkeypatch.setattr(enumeration, "_extend", counting)
        for _ in enumerate_graphs(constraints):
            pass
        assert [built[k] for k in range(2, constraints.n + 1)] == per_level


class TestCache:
    def test_round_trip(self, tmp_path):
        cons = EnumConstraints(5)
        graphs = list(enumerate_graphs(cons))
        cache_store(tmp_path, cons, graphs)
        loaded = cache_load(tmp_path, cons)
        assert {canonical_form(g) for g in loaded} == {
            canonical_form(g) for g in graphs
        }

    def test_missing_entry(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            cache_load(tmp_path, EnumConstraints(4))

    def test_corrupt_payload_detected(self, tmp_path):
        cons = EnumConstraints(4)
        path = cache_store(tmp_path, cons, enumerate_graphs(cons))
        lines = path.read_text().splitlines()
        lines[1] = encode_graph6(make_complete(4))  # the first graph, below the checksum
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CorruptCacheError):
            cache_load(tmp_path, cons)

    def test_first_line_is_the_sha256_of_the_rest(self, tmp_path):
        cons = EnumConstraints(4)
        path = cache_store(tmp_path, cons, enumerate_graphs(cons))
        assert path == tmp_path / "n4.g6"
        header, body = path.read_text().split("\n", 1)
        assert header == hashlib.sha256(body.encode()).hexdigest()
        assert body.splitlines() == [encode_graph6(g) for g in enumerate_graphs(cons)]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:32] + data[64:],  # the 64 hex digits cut to 32
            lambda data: data.split(b"\n", 1)[1],
            lambda data: b"",
            lambda data: data.rsplit(b"\n", 2)[0] + b"\n",
            lambda data: data[:-2] + b"\xff\n",
        ],
        ids=["truncated-checksum", "no-header", "empty", "dropped-line", "non-utf8"],
    )
    def test_damaged_file_is_corrupt(self, tmp_path, damage):
        cons = EnumConstraints(4)
        path = cache_store(tmp_path, cons, enumerate_graphs(cons))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CorruptCacheError):
            cache_load(tmp_path, cons)
        assert len(enumerate_cached(cons, tmp_path)) == ALL_COUNTS[4]
        assert len(cache_load(tmp_path, cons)) == ALL_COUNTS[4]

    @pytest.mark.parametrize("kept", [slice(1, None), slice(0)], ids=["one-class-short", "empty"])
    def test_checksummed_file_short_of_polya_is_corrupt(self, tmp_path, kept):
        # the checksum matches the body, but the body is not the whole space
        cons = EnumConstraints(4)
        cache_store(tmp_path, cons, list(enumerate_graphs(cons))[kept])
        with pytest.raises(CorruptCacheError, match="Polya's count"):
            cache_load(tmp_path, cons)
        assert len(enumerate_cached(cons, tmp_path)) == ALL_COUNTS[4]
        assert len(cache_load(tmp_path, cons)) == ALL_COUNTS[4]

    @pytest.mark.parametrize("cached", ["miss", "hit", "short"])
    def test_polya_is_counted_once_per_call(self, tmp_path, monkeypatch, cached):
        # the space owns its count; neither the load nor the walk recounts
        if cached != "miss":
            full = list(enumerate_graphs(EnumConstraints(5)))
            cache_store(tmp_path, EnumConstraints(5), full if cached == "hit" else full[1:])
        calls = []
        count = enumeration.class_count
        monkeypatch.setattr(enumeration, "class_count", lambda *a: calls.append(a) or count(*a))
        assert len(enumerate_cached(EnumConstraints(5), tmp_path)) == ALL_COUNTS[5]
        assert calls == [(5, None)]

    def test_each_space_has_its_own_file(self, tmp_path):
        spaces = [EnumConstraints(5), EnumConstraints(5, edges=4)]
        paths = [cache_store(tmp_path, c, enumerate_graphs(c)) for c in spaces]
        names = ["n5.g6", "n5-e4.g6"]
        assert [p.name for p in paths] == names
        assert sorted(tmp_path.iterdir()) == sorted(paths)
        for c in spaces:
            stream = [encode_graph6(g) for g in enumerate_graphs(c)]
            assert [encode_graph6(g) for g in cache_load(tmp_path, c)] == stream

    def test_entry_under_the_old_hashed_name_is_ignored(self, tmp_path):
        # an entry as an earlier layout wrote it: n4/<16 hex digits of the
        # constraints' hash>.g6 beside a JSON manifest, here holding one graph
        cons = EnumConstraints(4)
        key = hashlib.sha256(
            json.dumps({"connected_only": False, "edges": None, "n": 4}).encode()
        ).hexdigest()[:16]
        old = tmp_path / "n4" / f"{key}.g6"
        old.parent.mkdir()
        old.write_text("C?\n")
        checksum = hashlib.sha256(b"C?\n").hexdigest()
        old.with_suffix(".json").write_text(json.dumps({"count": 1, "checksum": checksum}))
        with pytest.raises(FileNotFoundError):
            cache_load(tmp_path, cons)
        assert len(enumerate_cached(cons, tmp_path)) == ALL_COUNTS[4]
        assert old.read_text() == "C?\n"

    def test_store_replaces_atomically(self, tmp_path, monkeypatch):
        cons = EnumConstraints(4)
        path = cache_store(tmp_path, cons, enumerate_graphs(cons))
        before = sorted(p.read_bytes() for p in path.parent.iterdir())

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(enumeration.os, "replace", fail)
        with pytest.raises(OSError):
            cache_store(tmp_path, cons, [])
        # the old entry is intact and no temporary file is left behind
        assert sorted(p.read_bytes() for p in path.parent.iterdir()) == before
        assert len(cache_load(tmp_path, cons)) == ALL_COUNTS[4]

    def test_read_through(self, tmp_path):
        cons = EnumConstraints(5)
        first = enumerate_cached(cons, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["n5.g6"]
        second = enumerate_cached(cons, tmp_path)
        assert [encode_graph6(g) for g in first] == [encode_graph6(g) for g in second]

    def test_hashlib_is_loaded_only_by_the_cache(self, tmp_path):
        # the CLI and the mate search never hash; the cache imports hashlib itself
        script = (
            "import sys, kitespec.cli, kitespec.das\n"
            "loaded = 'hashlib' in sys.modules\n"
            "from kitespec.enumeration import EnumConstraints, cache_load, cache_store\n"
            "from kitespec.enumeration import enumerate_graphs\n"
            "cons = EnumConstraints(5, edges=4)\n"
            "graphs = list(enumerate_graphs(cons))\n"
            "cache_store(sys.argv[1], cons, graphs)\n"
            "print(loaded, cache_load(sys.argv[1], cons) == graphs, len(graphs))\n"
        )
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout.split()) == (0, ["False", "True", "6"]), proc.stderr

    def test_read_through_recovers_from_corruption(self, tmp_path):
        cons = EnumConstraints(4)
        enumerate_cached(cons, tmp_path)
        payload = tmp_path / "n4.g6"
        payload.write_text("garbage\n")
        graphs = enumerate_cached(cons, tmp_path)
        assert len(graphs) == ALL_COUNTS[4]
        assert payload.read_text() != "garbage\n"  # the entry was rewritten
