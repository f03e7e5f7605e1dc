import importlib
import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import kitespec
from kitespec.graph import (
    Graph,
    Graph6Error,
    GraphError,
    KiteParams,
    SpecParseError,
    clique_number,
    decode_graph6,
    encode_graph6,
    from_edges,
    is_connected,
    make_complete,
    make_gb,
    make_gc,
    make_kite,
    make_knm,
    make_path,
    parse_graph_spec,
    triangle_count,
)

from conftest import make_cycle, make_star, random_graph


def brute_force_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), size):
            if all(g.rows[i] >> j & 1 for i, j in itertools.combinations(sub, 2)):
                return size
    return best


class TestKiteConstruction:
    def test_kite_3_0_is_triangle(self):
        g = make_kite(3, 0)
        assert (g.n, g.edge_count()) == (3, 3)
        assert g == make_complete(3)

    def test_kite_4_2_counts(self):
        g = make_kite(p=4, q=2)
        assert (g.n, g.edge_count()) == (6, 8)

    def test_paw(self):
        g = make_kite(p=3, q=1)
        assert g.edge_count() == 4
        assert triangle_count(g) == 1
        assert sorted(r.bit_count() for r in g.rows) == [1, 2, 2, 3]

    def test_degenerate_conventions(self):
        assert make_kite(p=1, q=3) == make_path(4)
        assert make_kite(p=2, q=2) == make_path(4)
        assert make_kite(p=5, q=0) == make_complete(5)

    def test_cap_exceeded(self):
        with pytest.raises(GraphError):
            make_kite(p=20, q=10)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 9) for q in range(0, 5)])
    def test_edge_and_triangle_formulas(self, p, q):
        g = make_kite(p=p, q=q)
        assert g.edge_count() == comb(p, 2) + q
        assert triangle_count(g) == comb(p, 3)

    @pytest.mark.parametrize("p", range(2, 9))
    def test_clique_number_of_kites(self, p):
        assert clique_number(make_kite(p=p, q=0)) == p
        for q in (1, 2, 3):
            assert clique_number(make_kite(p=p, q=q)) == max(p, 2)


class TestFamilies:
    def test_knm(self):
        g = make_knm(6, 2)
        assert (g.n, g.edge_count()) == (6, 8)
        assert clique_number(g) == 4
        assert sorted(r.bit_count() for r in g.rows) == [1, 1, 3, 3, 3, 5]
        with pytest.raises(GraphError):
            make_knm(4, 4)

    def test_gb_equals_knm(self):
        assert make_gb(4) == make_knm(6, 2)

    def test_gc(self):
        g = make_gc(4)
        assert (g.n, g.edge_count()) == (6, 8)
        assert clique_number(g) == 4
        # pendants on two distinct clique vertices
        assert sorted(r.bit_count() for r in g.rows) == [1, 1, 3, 3, 4, 4]

    def test_star(self):
        assert make_star(0) == make_path(1)
        assert make_star(3).degree_sequence() == [3, 1, 1, 1]
        with pytest.raises(GraphError):
            make_star(-1)

    def test_path_identity_case(self):
        g = make_path(1)
        assert (g.n, g.edge_count()) == (1, 0)


class TestStructuralInvariants:
    def test_triangle_counts(self):
        assert triangle_count(make_kite(p=4, q=2)) == 4
        assert triangle_count(make_complete(5)) == comb(5, 3)
        assert triangle_count(make_path(7)) == 0

    def test_triangle_count_equals_walk_formula(self, rng):
        from kitespec.charpoly import walk_count

        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10))
            assert 6 * triangle_count(g) == walk_count(g, 3)

    def test_triangle_count_matches_networkx(self):
        # every graph on at most 7 vertices, as labelled in the atlas and
        # with its labels reversed, so each triangle's lowest vertex moves
        nx = pytest.importorskip("networkx")
        checked = 0
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            expected = sum(nx.triangles(h).values()) // 3
            for edges in (h.edges(), [(n - 1 - u, n - 1 - v) for u, v in h.edges()]):
                assert triangle_count(from_edges(n, edges)) == expected, sorted(h.edges())
            checked += 1
        assert checked == 1253

    def test_clique_number_known(self):
        assert clique_number(make_kite(p=7, q=2)) == 7
        assert clique_number(make_cycle(5)) == 2
        assert clique_number(make_gc(4)) == 4

    def test_clique_number_against_brute_force(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 7))
            assert clique_number(g) == brute_force_clique(g)

    def test_connectivity(self):
        assert is_connected(make_kite(p=5, q=3))
        assert not is_connected(from_edges(4, [(0, 1), (1, 2), (0, 2)]))
        assert is_connected(Graph(1, (0,)))
        assert is_connected(Graph(0, ()))


class TestGraph6:
    def test_known_encodings(self):
        assert encode_graph6(make_complete(3)) == "Bw"
        assert encode_graph6(make_path(3)) == "Bg"
        assert encode_graph6(make_complete(1)) == "@"

    def test_decode_known(self):
        assert decode_graph6("Bw") == make_complete(3)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        g = from_edges(n, edges)
        assert decode_graph6(encode_graph6(g)) == g

    def test_round_trip_bulk(self, rng):
        for n in range(1, 13):
            for _ in range(100):
                g = random_graph(rng, n)
                assert decode_graph6(encode_graph6(g)) == g

    @pytest.mark.parametrize(
        "bad", ["", "\x1fw", "B", "Bww", "B\x07", chr(126) + "abc"]
    )
    def test_malformed_inputs(self, bad):
        with pytest.raises(Graph6Error):
            decode_graph6(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("", "empty graph6 string"),
            ("~abc", "multi-byte graph6 headers (n > 62) not supported"),
            ("\x1fw", "bad graph6 header byte 31"),
            ("Z" + "?" * 59, "graph6 order 27 exceeds hard cap 24"),
            ("B\x07\x07", "graph6 body length 2 wrong for n=3"),
            ("D\x07A", "non-printable graph6 byte 7"),
            ("Bx", "nonzero padding bits"),
            ("D?@", "nonzero padding bits"),
        ],
    )
    def test_malformed_input_messages(self, bad, message):
        # the checks run in a fixed order: header, order, length, bytes, padding
        with pytest.raises(Graph6Error) as ei:
            decode_graph6(bad)
        assert str(ei.value) == message


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "raw,n,m",
        [
            ("kite:4,2", 6, 8),
            ("path:5", 5, 4),
            ("complete:4", 4, 6),
            ("knm:6,2", 6, 8),
            ("gb:4", 6, 8),
            ("gc:4", 6, 8),
            ("g6:Bw", 3, 3),
        ],
    )
    def test_valid_specs(self, raw, n, m):
        g, params = parse_graph_spec(raw)
        assert (g.n, g.edge_count()) == (n, m)
        assert params == (KiteParams(4, 2) if raw.startswith("kite:") else None)

    @pytest.mark.parametrize(
        "raw", ["kite", "kite:1", "kite:a,b", "blob:3", "knm:3,5", "g6:", "path:x",
                # int() takes these; the grammar's integers are -?[0-9]+
                "path: 5", "path:1_0", "path:+5", "path:\u0665", "kite:3, 1", "path:5\n"]
    )
    def test_invalid_specs(self, raw):
        with pytest.raises(SpecParseError) as ei:
            parse_graph_spec(raw)
        assert ei.value.pos >= 0

    @pytest.mark.parametrize("raw,pos", [
        ("path: 5", 5), ("path:1_0", 5), ("path:+5", 5), ("path:\u0665", 5),
        ("kite:3, 1", 7), ("path:5\n", 5), ("path:-", 5), ("path:" + "9" * 5000, 5),
    ])
    def test_integer_refused_at_its_part(self, raw, pos):
        with pytest.raises(SpecParseError, match="not an integer") as ei:
            parse_graph_spec(raw)
        assert ei.value.pos == pos

    def test_negative_order_keeps_the_constructors_message(self):
        with pytest.raises(SpecParseError, match="complete graph needs n >= 0") as ei:
            parse_graph_spec("complete:-1")
        assert ei.value.pos == 9


OVER_CAP_FAMILIES = [
    (make_kite, (1000, 3)), (make_path, (1000,)), (make_complete, (1000,)),
    (make_knm, (1000, 2)), (make_gb, (1000,)), (make_gc, (1000,)),
]


class TestGraphValidation:
    def test_rejects_asymmetry(self):
        with pytest.raises(GraphError):
            Graph(2, (2, 0))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            from_edges(2, [(0, 0)])

    def test_rejects_self_loop_row(self):
        with pytest.raises(GraphError, match="self-loop at vertex 1"):
            Graph(2, (0, 2))

    def test_rejects_bit_outside_order(self):
        with pytest.raises(GraphError, match="row 0 has bits outside 0..1"):
            Graph(2, (4, 0))

    def test_rejects_over_cap(self):
        with pytest.raises(GraphError):
            make_path(25)

    def test_over_cap_reads_no_edge(self):
        # the order is checked before a single edge is read
        edges = iter([(0, 1)])
        with pytest.raises(GraphError, match="vertex count 25 exceeds hard cap 24"):
            from_edges(25, edges)
        assert next(edges) == (0, 1)

    @pytest.mark.parametrize(
        "make, args", OVER_CAP_FAMILIES, ids=[make.__name__ for make, _ in OVER_CAP_FAMILIES]
    )
    def test_over_cap_family_allocates_nothing(self, make, args):
        # families hand their edges over lazily, so an order past the cap is
        # rejected before any edge list or row bitmask exists
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="exceeds hard cap"):
                make(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000


def test_package_attributes_are_the_submodules():
    # a name re-exported by the package would shadow the submodule of that name
    for name in ["graph", "polynomial", "charpoly", "bounds", "enumeration", "das", "cli"]:
        module = importlib.import_module(f"kitespec.{name}")
        assert getattr(kitespec, name) is module, name
