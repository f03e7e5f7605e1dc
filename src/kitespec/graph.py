"""Immutable simple-graph type, named-family constructors, structural
invariants, the graph6 codec and the spec grammar.

Graphs live on at most HARD_CAP vertices so every kernel can work on plain
integer bitsets (one bitmask per vertex row).  The spec grammar is one
table, ``_FAMILIES``, which also names the kite of each kite-shaped family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

HARD_CAP = 24


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``rows[i]`` is the neighbor bitmask of vertex i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_order(self.n)
        if len(self.rows) != self.n:
            raise GraphError("row count does not match n")
        mask = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~mask:
                raise GraphError(f"row {i} has bits outside 0..{self.n - 1}")
            if row >> i & 1:
                raise GraphError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise GraphError(f"asymmetric adjacency at ({i}, {j})")

    # -- basic queries -------------------------------------------------

    def degree_sequence(self) -> list[int]:
        return sorted((r.bit_count() for r in self.rows), reverse=True)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def adjacency_matrix(self) -> list[list[int]]:
        return [[self.rows[i] >> j & 1 for j in range(self.n)] for i in range(self.n)]


def _trusted_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph built without ``__post_init__``, for callers whose rows are
    symmetric, loop-free and within 0..n-1 by construction."""
    g = object.__new__(Graph)
    # object.__setattr__ as the frozen __init__ does; touching g.__dict__
    # would give every instance its own dict, 2.5 times the memory
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_order(n: int) -> None:
    if n < 0:
        raise GraphError(f"negative vertex count {n}")
    if n > HARD_CAP:
        raise GraphError(f"vertex count {n} exceeds hard cap {HARD_CAP}")


def from_edges(n: int, edges) -> Graph:
    """Graph on n vertices from (i, j) pairs, which are read only once n is
    known to be within HARD_CAP."""
    _check_order(n)
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise GraphError(f"self-loop at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, tuple(rows))


# -- named families ------------------------------------------------------


def _clique_edges(k: int):
    """Edges of K_k on 0..k-1, generated lazily: ``itertools.combinations``
    would first copy all k vertices, even for a k far past the cap."""
    return ((i, j) for j in range(k) for i in range(j))


@dataclass(frozen=True)
class KiteParams:
    """Clique size p and appended-path length q of a kite graph."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1:
            raise GraphError(f"kite needs p >= 1, got {self.p}")
        if self.q < 0:
            raise GraphError(f"kite needs q >= 0, got {self.q}")


def make_kite(p: int, q: int) -> Graph:
    """Kite graph: K_p on vertices 0..p-1, path appended at vertex p-1, the
    path occupying vertices p..p+q-1.

    Degenerate conventions: a zero-length path gives K_p, and p in {1, 2}
    gives the path graphs P_{q+1} and P_{q+2}.
    """
    KiteParams(p, q)  # validates p >= 1, q >= 0
    path = ((p - 1 + k, p + k) for k in range(q))
    return from_edges(p + q, itertools.chain(_clique_edges(p), path))


def make_path(n: int) -> Graph:
    if n < 0:
        raise GraphError("path needs n >= 0")
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def make_complete(n: int) -> Graph:
    if n < 0:
        raise GraphError("complete graph needs n >= 0")
    return from_edges(n, _clique_edges(n))


def make_knm(n: int, m: int) -> Graph:
    """K_{n-m} with m pendant edges attached to one clique vertex.

    Clique vertices come first (the pendants hang off vertex 0), pendants
    occupy n-m..n-1.
    """
    if not 0 <= m < n:
        raise GraphError(f"knm needs 0 <= m < n, got n={n}, m={m}")
    pendants = ((0, n - m + k) for k in range(m))
    return from_edges(n, itertools.chain(_clique_edges(n - m), pendants))


def make_gb(p: int) -> Graph:
    """K_p with two pendant edges on one clique vertex: knm(p+2, 2)."""
    if p < 1:
        raise GraphError("gb needs p >= 1")
    return make_knm(p + 2, 2)


def make_gc(p: int) -> Graph:
    """K_p with two pendant vertices attached to two distinct clique vertices.

    Clique is 0..p-1; pendant p hangs off vertex 0, pendant p+1 off vertex 1.
    """
    if p < 3:
        raise GraphError("gc needs p >= 3")
    pendants = [(0, p), (1, p + 1)]
    return from_edges(p + 2, itertools.chain(_clique_edges(p), pendants))


# -- structural invariants ------------------------------------------------


def triangle_count(g: Graph) -> int:
    """Number of K_3 subgraphs (each triangle counted once, at its lowest
    vertex, as an edge among that vertex's higher neighbours)."""
    rows = g.rows
    total = 0
    for i, row in enumerate(rows):
        higher = row >> i + 1 << i + 1
        while higher:
            low = higher & -higher
            higher ^= low  # now the higher neighbours above this one
            total += (rows[low.bit_length() - 1] & higher).bit_count()
    return total


def clique_number(g: Graph) -> int:
    """Exact clique number via Bron-Kerbosch with pivoting on bitsets."""
    if g.n == 0:
        return 0
    best = 1

    def expand(r_size: int, cand: int, excl: int):
        nonlocal best
        if cand == 0 and excl == 0:
            best = max(best, r_size)
            return
        if r_size + cand.bit_count() <= best:
            return
        # pivot: vertex of P|X with most neighbors in P
        pivot, pivot_deg = -1, -1
        both = cand | excl
        for u in _bits(both):
            d = (g.rows[u] & cand).bit_count()
            if d > pivot_deg:
                pivot, pivot_deg = u, d
        ext = cand & ~g.rows[pivot]
        for v in _bits(ext):
            bit = 1 << v
            expand(r_size + 1, cand & g.rows[v], excl & g.rows[v])
            cand &= ~bit
            excl |= bit

    expand(0, (1 << g.n) - 1, 0)
    return best


def is_connected(g: Graph) -> bool:
    """Single connected component; the empty graph counts as connected."""
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


# -- graph6 codec ----------------------------------------------------------


def encode_graph6(g: Graph) -> str:
    """Standard graph6: header byte n+63, then the upper-triangle bits in
    column-major order packed 6 per byte (offset 63, zero padded)."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(g.rows[i] >> j & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def decode_graph6(s: str) -> Graph:
    if not s:
        raise Graph6Error("empty graph6 string")
    header = ord(s[0])
    if header == 126:
        raise Graph6Error("multi-byte graph6 headers (n > 62) not supported")
    if not 63 <= header <= 125:
        raise Graph6Error(f"bad graph6 header byte {header!r}")
    n = header - 63
    if n > HARD_CAP:
        raise Graph6Error(f"graph6 order {n} exceeds hard cap {HARD_CAP}")
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(f"graph6 body length {len(body)} wrong for n={n}")
    value = 0
    for ch in body:
        v = ord(ch)
        if not 63 <= v <= 126:
            raise Graph6Error(f"non-printable graph6 byte {v!r}")
        value = value << 6 | v - 63
    # columns 1..n-1 of the upper triangle, most significant first, then
    # the padding; column j holds rows 0..j-1, row 0 in its highest bit
    shift = 6 * len(body) - nbits
    if value & ((1 << shift) - 1):
        raise Graph6Error("nonzero padding bits")
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        col = value >> shift & ((1 << j) - 1)
        shift += j
        for b in _bits(col):
            i = j - 1 - b
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return _trusted_graph(n, tuple(rows))


# -- descriptor grammar ----------------------------------------------------


class SpecParseError(GraphError):
    """Graph-descriptor parse failure, annotated with the offending position."""

    def __init__(self, raw: str, pos: int, message: str):
        self.raw, self.pos = raw, pos
        super().__init__(f"{message} (at position {pos} in {raw!r})")


# family name -> (constructor, number of integer arguments, kite parameters or None)
_FAMILIES = {
    "kite": (make_kite, 2, lambda p, q: (p, q)), "path": (make_path, 1, lambda n: (1, n - 1)),
    "complete": (make_complete, 1, lambda n: (n, 0)), "knm": (make_knm, 2, None),
    "gb": (make_gb, 1, None), "gc": (make_gc, 1, None),
}


def parse_graph_spec(raw: str) -> tuple[Graph, KiteParams | None]:
    """Parse the shared descriptor grammar:

    ``kite:p,q | path:n | complete:n | knm:n,m | gb:p | gc:p | g6:<string>``

    where an integer is an optional minus and ASCII digits.  Returns the
    graph and the kite parameters of a kite-shaped spec with n >= 1.
    """
    if ":" not in raw:
        raise SpecParseError(raw, 0, "expected 'family:args'")
    head, _, tail = raw.partition(":")
    argpos = len(head) + 1

    def ints(count: int) -> list[int]:
        parts = tail.split(",")
        if len(parts) != count:
            raise SpecParseError(raw, argpos, f"{head} takes {count} integer argument(s)")
        vals, pos = [], argpos
        for part in parts:
            try:  # int() alone takes ' 5', '1_0', '+5' and '٥', and raises past its digit limit
                if not (part.isascii() and part.removeprefix("-").isdigit()):
                    raise ValueError
                vals.append(int(part))
            except ValueError:
                raise SpecParseError(raw, pos, f"not an integer: {part!r}") from None
            pos += len(part) + 1
        return vals

    if head == "g6":
        make, args, kite = decode_graph6, [tail], None
    elif head in _FAMILIES:
        make, arity, kite = _FAMILIES[head]
        args = ints(arity)
    else:
        raise SpecParseError(raw, 0, f"unknown family {head!r}")
    try:
        g = make(*args)
    except GraphError as exc:
        raise SpecParseError(raw, argpos, str(exc)) from None
    return g, KiteParams(*kite(*args)) if kite and g.n else None
