"""Isomorph-free graph generation and canonical forms.

Canonical form: vertices are first split into cells by iterated
refinement (an isomorphism invariant, computed with bitset popcounts): the
cells start as the degree classes, and each round splits a cell in place
by its members' counts of non-neighbours in every cell, until no cell
splits.  Then the lexicographically minimal upper-triangle bit-string over
all cell-respecting orderings is found by backtracking with prefix
pruning.  Two graphs share a :class:`CanonicalKey` exactly when they are
isomorphic.

The backtracking also prunes by automorphisms (McKay, "Practical graph
isomorphism", 1981): a leaf whose encoding equals the incumbent's yields an
automorphism, and a candidate vertex in the orbit of one already tried at
its node, under the automorphisms found so far that fix the node's prefix,
is skipped, because its subtree is the image of one already searched and
holds the same encodings.  The key is unchanged by this pruning; highly
symmetric graphs such as K_n and K_{a,b} become cheap, while graphs with
small groups (long cycles) still cost what the plain search costs.

Generation uses canonical augmentation (McKay, "Isomorph-free exhaustive
generation", 1998): a child is its parent plus one vertex joined to the
vertex set ``mask``, and it is kept only when

- ``mask`` is the least mask of its orbit under Aut(parent), whose
  generators the parent's own canonical search returned; masks in one orbit
  give isomorphic children, and the orbits are marked as the masks are
  visited in ascending order, before any child is built;
- the appended vertex can sit in the last canonical position, i.e. the
  inverse deletion is the canonical one.

Two kept children of one parent that are isomorphic would come from one
mask orbit, and children of non-isomorphic parents are never isomorphic,
so the stream holds exactly one representative per isomorphism class
without any table of seen keys.  Every filter, the ones that follow
included, is invariant under Aut(parent), so the representative kept is
always its orbit's least mask.

Before a child is built, its edge count must fit the edge window and the
new vertex must have maximum degree (the last cell lies in the
maximum-degree class).  Both depend on the mask's popcount only, so a
parent visits just the masks of the admissible weights, one cached
ascending tuple per window of weights; an Aut(parent)-orbit keeps its
popcount, so the least mask of each orbit and the visiting order are those
of the full ascending scan.

The weights along a path from the root never decrease: a kept child's new
vertex has weight w equal to the child's maximum degree (w is at least the
parent's maximum, and exceeds it when the mask meets a vertex of that
degree), adding vertices never lowers a degree, and each later vertex again
has the maximum degree of its graph.  A child of a k-vertex parent with e
edges therefore has only leaves with at least e + (n - k) * w edges, so
with an edge target m the window's upper end is (m - e) // (n - k).  This
cuts only subtrees without a leaf of m edges, and being a popcount bound it
keeps every orbit's least mask, so the stream and its order are those of
the unconstrained walk filtered to m edges.

Children are built from the parent's rows without re-validation.  The
top refinement class only shrinks and stays the last cell, so the new
vertex is rejected once it leaves that class and, on the last level, kept
once it is alone there, since it is then last in every cell-respecting
ordering and nothing uses a leaf's automorphisms.  On every level the
first two rounds of that decision are read from the parent's degree
classes before anything is built (``_deletion_rank``): a rejected
candidate is never built, and on the last level a kept one is built and
yielded.  Every other candidate is built and refined once, in full; its
last cell decides the later rounds in the same way, and only the children
still undecided get a canonical search.

Four shortcuts in the kernel leave every key, ``last`` orbit, stream and
generated group as they were.  A vertex alone in its cell gets no
refinement counts, since its cell already fixes its rank.  Twins, two
vertices with equal open neighbourhoods N(u) = N(v) or equal closed ones
N[u] = N[v], are swapped by an automorphism that fixes every other vertex
(McKay, 1981; McKay and Piperno, "Practical graph isomorphism II", 2014),
so the search knows these transpositions before it reaches any leaf and
prunes by them from the start.  When every cell is one class of twins (a
discrete partition included), they carry the cells' own order onto every
other cell-respecting ordering, so the search takes that ordering
directly: all leaves are equal, the last cell is the whole ``last`` orbit,
and the transpositions generate the group.  The same fact decides a
last-level child without a search when every vertex of its last cell is a
twin of the new vertex k: each is k's image under an automorphism, so the
canonical-deletion vertex lies in k's orbit.  Inside the search a flag
carries whether the prefix is below the incumbent's or equal to it, and
the tried candidates are closed under the automorphisms only when a later
candidate is tested, so the same candidates are skipped.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial, gcd
from pathlib import Path
from typing import Iterable, Iterator

from .graph import Graph, _bits, _trusted_graph, decode_graph6, encode_graph6
# unused here, but the benchmark's tracer wraps these names in ``enumeration``
from .graph import is_connected, triangle_count  # noqa: F401

ENUM_ORDER_CAP = 11
# the classes of (10, 22), the largest space on 10 vertices: every space on 9,
# none unconstrained on 10, and (11, m) for m <= 16 or m >= 39 fit under it
ENUM_CLASS_CAP = 1_358_852


class EnumerationError(ValueError):
    pass


class CorruptCacheError(RuntimeError):
    """A cache file fails the checksum on its first line or Polya's count; re-enumerate."""


@dataclass(frozen=True)
class CanonicalKey:
    n: int
    bits: int


@dataclass(frozen=True)
class EnumConstraints:
    """A space: the classes on ``n`` vertices, with ``edges`` edges if given.
    ``classes`` is Polya's count of them, the one count every walk and cache
    file of the space is checked against.  A space of more than
    ENUM_CLASS_CAP classes or on more than ENUM_ORDER_CAP vertices is
    refused before any walk starts."""
    n: int
    edges: int | None = None
    classes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise EnumerationError("n must be non-negative")
        if self.edges is not None and not 0 <= self.edges <= comb(self.n, 2):
            raise EnumerationError(f"edge count {self.edges} out of range for n={self.n}")
        if self.n > ENUM_ORDER_CAP:
            raise EnumerationError(
                f"n={self.n} is past the enumeration cap of {ENUM_ORDER_CAP} vertices"
            )
        object.__setattr__(self, "classes", class_count(self.n, self.edges))
        if self.classes > ENUM_CLASS_CAP:
            raise EnumerationError(
                f"{self} holds {self.classes} classes, past the enumeration cap of {ENUM_CLASS_CAP}"
            )


def class_count(n: int, edges: int | None = None) -> int:
    """The number of isomorphism classes of graphs on ``n`` vertices with
    ``edges`` edges (any number when None), by Polya's theorem: the average
    over S_n of the coefficient of x**edges (or the sum of all of them) in
    the product, over the cycles a permutation induces on vertex pairs, of
    (1 + x**length).  Permutations of one cycle type contribute alike, so
    the sum runs over the partitions of n."""
    pairs = comb(n, 2)
    if edges is not None and not 0 <= edges <= pairs:
        return 0
    total = 0
    for cycle_type in _integer_partitions(n, n):
        # the permutations of this cycle type: n! / prod(j**m_j * m_j!)
        size = factorial(n)
        for j, m_j in Counter(cycle_type).items():
            size //= j**m_j * factorial(m_j)
        lengths = []
        for i, a in enumerate(cycle_type):
            # pairs inside a cycle of length a, then pairs across two cycles
            lengths += [a] * ((a - 1) // 2) + ([a // 2] if a % 2 == 0 else [])
            for b in cycle_type[i + 1:]:
                lengths += [a * b // gcd(a, b)] * gcd(a, b)
        poly = [1] + [0] * pairs
        for length in lengths:
            for k in range(pairs, length - 1, -1):
                poly[k] += poly[k - length]
        total += size * (sum(poly) if edges is None else poly[edges])
    return total // factorial(n)


def _integer_partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most ``largest``, each in
    non-increasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - part, part):
            yield (part,) + rest


def _refinement_cells(g: Graph) -> list[list[int]]:
    """Vertex cells under iterated neighbour-class refinement, in an
    isomorphism-invariant order, each cell's vertices ascending.

    The cells start as the degree classes, in ascending degree.  In each
    round a cell of two or more vertices gives each member a tuple: its
    number of non-neighbours in each current cell, in cell order (one
    bitset popcount each).  A cell whose members share one tuple stays
    whole; any other is replaced in place by its sub-cells, in ascending
    tuple order.  Members of one cell share a degree, so fewer
    non-neighbours means more neighbours, and the tuples sort exactly as
    the members' sorted tuples of neighbour cells would.  The rounds stop
    when no cell splits or the partition is discrete.  A cell is split
    only in place, so the top degree class only ever shrinks and stays the
    last cell.
    """
    n = g.n
    non_adjacent = [~r for r in g.rows]
    count = int.bit_count
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        by_degree.setdefault(row.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    while len(cells) < n:
        masks = []
        for cell in cells:
            mask = 0
            for v in cell:
                mask |= 1 << v
            masks.append(mask)
        refined = []
        for cell in cells:
            if len(cell) > 1:
                subcells: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    key = tuple(map(count, map(non_adjacent[v].__and__, masks)))
                    subcells.setdefault(key, []).append(v)
                if len(subcells) > 1:
                    refined += [subcells[key] for key in sorted(subcells)]
                    continue
            refined.append(cell)
        if len(refined) == len(cells):
            break
        cells = refined
    return cells


def _images(mask: int, gens: list[list[int]]) -> list[int]:
    """The vertex bitmask ``mask`` moved by each permutation in ``gens``."""
    bits = _bits(mask)
    images = []
    for img in gens:
        image = 0
        for v in bits:
            image |= 1 << img[v]
        images.append(image)
    return images


def _orbit(mask: int, gens: list[list[int]]) -> int:
    """Closure of a vertex bitmask under the permutations ``gens``."""
    frontier = mask if gens else 0  # the common trivial group moves nothing
    while frontier:
        image = 0
        for moved in _images(frontier, gens):
            image |= moved
        frontier = image & ~mask
        mask |= frontier
    return mask


def _mask_orbit(mask: int, gens: list[list[int]]) -> set[int]:
    """Every image of the vertex set ``mask`` under the group that ``gens``
    generate."""
    orbit = {mask}
    frontier = [mask]
    while frontier:
        for image in _images(frontier.pop(), gens):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _twin_automorphisms(
    rows: tuple[int, ...], cells: list[list[int]]
) -> list[tuple[int, list[int]]]:
    """The transposition of each consecutive pair of twins, as (bitmask of
    fixed points, image list): twins u < v have N(u) = N(v) (open) or
    N[u] = N[v] (closed), and swapping them fixes every other vertex and
    maps the edge set onto itself.  ``cells`` is a refinement of the graph with ``rows``;
    twins share a cell, since refinement is invariant under automorphisms.
    """
    n = len(rows)
    everyone = (1 << n) - 1
    autos = []
    for cell in cells:
        if len(cell) < 2:
            continue
        # open twins share a row, closed twins a row with their own bit set;
        # an open key N(u) never equals a closed key N[w], since w in N(u)
        # would put u in N[w] = N(u)
        twins: dict[int, list[int]] = {}
        for v in cell:
            row = rows[v]
            twins.setdefault(row, []).append(v)
            twins.setdefault(row | 1 << v, []).append(v)
        for group in twins.values():
            for u, v in zip(group, group[1:]):
                img = list(range(n))
                img[u], img[v] = v, u
                autos.append((everyone & ~(1 << u | 1 << v), img))
    return autos


def _canonical_search(
    g: Graph, cells: list[list[int]]
) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """Minimal column encoding over cell-respecting orderings, the bitmask
    of vertices that occupy the last position in some minimizing ordering
    (the orbit of the canonical-deletion vertex), and generators of the
    automorphism group as image lists.

    ``cells`` is ``_refinement_cells(g)``.
    The search starts knowing the twin transpositions
    (``_twin_automorphisms``), and takes the cells' own order directly when
    every cell is one class of twins.  Two leaves with equal columns differ
    by an automorphism, which is recorded too; a candidate in the orbit of
    one already tried at its node, under the known automorphisms fixing the
    node's prefix, roots the image of a searched subtree and is skipped.
    The known automorphisms generate the whole group, so ``last`` is the
    orbit of the best ordering's last vertex under them.
    """
    n = g.n
    if n == 0:
        return (), 0, []
    rows = g.rows
    # (bitmask of fixed points, image list) of each automorphism known
    autos = _twin_automorphisms(rows, cells)
    if len(autos) == n - len(cells):
        # a vertex has twins of one kind only, so this many transpositions
        # means every cell is one class of twins (module docstring)
        order = [v for cell in cells for v in cell]
        cols = []
        for j, v in enumerate(order):
            col = 0
            for u in order[:j]:
                col = col << 1 | (rows[v] >> u & 1)
            cols.append(col)
        last = 0
        for v in cells[-1]:
            last |= 1 << v
        return tuple(cols), last, [img for _, img in autos]
    cell_of_pos: list[list[int]] = []
    for cell in cells:
        cell_of_pos.extend([cell] * len(cell))
    best: list[int] = []
    best_perm: list[int] = []
    perm: list[int] = []  # the prefix's vertices, in order

    def rec(pos: int, used: int, cols: list[int], below: bool) -> bool:
        """Search below the prefix ``cols``, which is less than the
        incumbent's prefix when ``below`` (or no leaf is reached yet) and
        equal to it otherwise; returns whether the incumbent was replaced."""
        nonlocal best, best_perm
        if pos == n:
            if below:
                best = cols[:]
                best_perm = perm[:]
                return True
            img = [0] * n
            fixed = 0
            for u, w in zip(best_perm, perm):
                img[u] = w
                if u == w:
                    fixed |= 1 << u
            autos.append((fixed, img))
            return False
        replaced = False
        # candidates tried here; before each later one they are closed under
        # gens, the automorphisms found so far that fix the prefix pointwise
        tried = 0
        gens: list[list[int]] = []
        scanned = 0
        for v in cell_of_pos[pos]:
            if used >> v & 1:
                continue
            if tried:
                if scanned < len(autos):
                    gens += [img for fixed, img in autos[scanned:] if not used & ~fixed]
                    scanned = len(autos)
                if gens:
                    tried = _orbit(tried, gens)
                    if tried >> v & 1:
                        continue
            tried |= 1 << v
            col = 0
            rv = rows[v]
            for u in perm:
                col = col << 1 | (rv >> u & 1)
            # lexicographic prefix prune against the incumbent minimum
            if below:
                child_below = True
            elif col > best[pos]:
                continue
            else:
                child_below = col < best[pos]
            perm.append(v)
            cols.append(col)
            if rec(pos + 1, used | 1 << v, cols, child_below):
                # the new incumbent extends this prefix
                replaced = True
                below = False
            cols.pop()
            perm.pop()
        return replaced

    rec(0, 0, [], True)
    if not best_perm:
        raise RuntimeError("canonical search reached no leaf")
    gens = [img for _, img in autos]
    return tuple(best), _orbit(1 << best_perm[-1], gens), gens


def _cols_to_bits(cols: tuple[int, ...]) -> int:
    bits = 0
    for j, col in enumerate(cols):
        bits = bits << j | col
    return bits


def canonical_form(g: Graph) -> CanonicalKey:
    cols = _canonical_search(g, _refinement_cells(g))[0]
    return CanonicalKey(g.n, _cols_to_bits(cols))


# -- canonical augmentation ---------------------------------------------------


@cache
def _masks(k: int, low: int, high: int) -> tuple[int, ...]:
    """The k-bit vertex masks whose popcount lies in ``low..high``, ascending."""
    return tuple(mask for mask in range(1 << k) if low <= mask.bit_count() <= high)


def _extend(parent: Graph, mask: int) -> Graph:
    k = parent.n
    rows = list(parent.rows) + [mask]
    for i in range(k):
        if mask >> i & 1:
            rows[i] |= 1 << k
    return _trusted_graph(k + 1, tuple(rows))


def _deletion_rank(rows: tuple[int, ...], by_degree: list[int], mask: int) -> int:
    """Rounds 0 and 1 of the canonical-deletion test of the new vertex k in
    ``child = _extend(parent, mask)``, read from the parent's rows and its
    degree classes ``by_degree[d]`` (bitmasks, d = 0..k) before the child
    is built: 1 where k is alone in the child's top refinement class after
    round 1, -1 where k has left it by then, and 0 on a tie, which the
    later rounds of the child's full refinement decide.

    The weight window makes w = |mask| the child's maximum degree on every
    level, so round 0 never rejects k.  The child's class of degree d is
    ``D_d & ~mask | D_{d-1} & mask`` (k joins the top class, d = w), and
    k's rivals are the rest of the top class; with none, k is alone there.
    Round 1 gives each of them a tuple of non-neighbour counts over the
    child's classes in ascending degree order (empty classes add a 0 to
    every tuple and change no comparison): k's non-neighbours are
    ``~mask``, those of a rival v are ``~(row_v | bit_k)`` when v is in the
    mask and ``~row_v`` otherwise.  A rival's larger tuple rejects k; a
    tuple of k's larger than every rival's keeps it.
    """
    new = 1 << len(rows)
    w = mask.bit_count()
    outside = ~mask
    # by_degree[-1] is D_k, empty on k vertices, so d = 0 needs no case
    rivals = by_degree[w] & outside | by_degree[w - 1] & mask
    if not rivals:
        return 1
    cells = [by_degree[d] & outside | by_degree[d - 1] & mask for d in range(w)]
    cells.append(rivals | new)
    count = int.bit_count
    mine = tuple(map(count, map(outside.__and__, cells)))
    rank = 1
    for v in _bits(rivals):
        row = rows[v] | new if mask >> v & 1 else rows[v]
        theirs = tuple(map(count, map((~row).__and__, cells)))
        if theirs > mine:
            return -1
        if theirs == mine:
            rank = 0
    return rank


def enumerate_graphs(
    constraints: EnumConstraints,
    partition: tuple[int, int] | None = None,
) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on ``constraints.n``
    vertices, in a deterministic order (children explored in ascending
    neighbor-set order).  On every level a candidate child is first ranked
    from its parent's bitmasks (``_deletion_rank``); one it does not reject
    is built, and, unless it is a leaf the rank keeps, refined once and
    searched only while its canonical deletion is undecided.

    ``partition=(k, K)`` restricts the walk to the k-th of K deterministic
    subtrees; merging all K streams reproduces the full stream as a set.  The
    split is made one level above the leaf parents: the candidate masks of
    the nodes on n - 2 vertices that pass the weight window, the
    maximum-degree test and the orbit test are numbered in walk order and
    dealt out round robin, and a partition builds, refines and searches only
    its own.  Every partition walks the levels above in full, which are
    cheap beside the last two, so all number the candidates alike; the
    leaves fall nearly evenly (5212 and 4908 of the 10120 classes with 9
    vertices and 13 edges), where a split higher up leaves a few subtrees
    holding most of a sparse space.  With no level n - 2 (n < 2) the whole
    stream, a single class, is partition 0's.
    """
    n = constraints.n
    if partition is not None:
        part, total = partition
        if not (total >= 1 and 0 <= part < total):
            raise EnumerationError(f"bad partition {partition}")
        if n < 2 and part:
            return
    target_edges = constraints.edges
    max_total = comb(n, 2)
    dealt = 0  # candidates numbered so far on the split level

    def children(
        parent: Graph, gens: list[list[int]]
    ) -> Iterator[tuple[Graph, list[list[int]]]]:
        """Canonical children of ``parent`` with their automorphism
        generators; ``gens`` generate Aut(parent)."""
        nonlocal dealt
        k = parent.n
        last_level = k + 1 == n
        split = partition is not None and k + 2 == n
        covered: set[int] = set()  # masks in the orbit of an earlier one
        degrees = [r.bit_count() for r in parent.rows]
        top = max(degrees, default=0)
        by_degree = [0] * (k + 1)
        for i, d in enumerate(degrees):
            by_degree[d] |= 1 << i
        edges = sum(degrees) // 2
        # the last cell, which holds the canonical-deletion vertex, lies
        # inside the child's maximum-degree class: the new vertex needs
        # degree top, or top + 1 when it meets a vertex of degree top
        low, high = top, k
        if target_edges is not None:
            # the target must stay reachable; every leaf below a weight-w
            # child has at least edges + (n - k) * w edges (module docstring)
            low = max(low, target_edges - (max_total - comb(k + 1, 2)) - edges)
            high = min(high, (target_edges - edges) // (n - k))
        # the masks of the admissible weights, in ascending order
        for mask in _masks(k, low, high):
            if mask & by_degree[top] and mask.bit_count() == top:
                continue
            # masks in one Aut(parent)-orbit give isomorphic children, and
            # every test in this loop gives one answer on the whole orbit,
            # so its least mask stands for it
            if gens:
                if mask in covered:
                    continue
                covered |= _mask_orbit(mask, gens)
            if split:
                dealt += 1
                if (dealt - 1) % total != part:
                    continue
            rank = _deletion_rank(parent.rows, by_degree, mask)
            if rank < 0:
                continue
            child = _extend(parent, mask)
            # k alone in the top class is last in every cell-respecting
            # ordering, and a leaf's automorphisms are never used
            if last_level and rank:
                yield child, []
                continue
            cells = _refinement_cells(child)
            if k not in cells[-1]:
                continue
            rows = child.rows
            # a twin of k is k's image under their transposition, so a last
            # cell of k's twins lies in k's orbit
            if last_level and all(
                rows[v] == mask or rows[v] | 1 << v == mask | 1 << k for v in cells[-1]
            ):
                yield child, []
                continue
            _, last, child_gens = _canonical_search(child, cells)
            if last >> k & 1:
                yield child, child_gens

    def walk(g: Graph, gens: list[list[int]]) -> Iterator[Graph]:
        if g.n == n:
            yield g
            return
        for child, child_gens in children(g, gens):
            yield from walk(child, child_gens)

    # the null graph is the root, and at n = 0 the one leaf
    yield from walk(Graph(0, ()), [])


# -- on-disk graph6 cache -----------------------------------------------------


def _sha256(text: str) -> str:
    import hashlib  # only the cache hashes; loading libcrypto costs ~3.6 MB and ~5 ms
    return hashlib.sha256(text.encode()).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file and ``os.replace``, so a reader sees
    either the old file or the new one, never a partial write."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cache_path(cache_dir: str | Path, constraints: EnumConstraints) -> Path:
    edges = "" if constraints.edges is None else f"-e{constraints.edges}"
    return Path(cache_dir) / f"n{constraints.n}{edges}.g6"


def cache_store(cache_dir: str | Path, constraints: EnumConstraints, graphs: Iterable[Graph]) -> Path:
    """Persist a stream as one file, ``cache_dir / "n{n}[-e{edges}].g6"``:
    the sha256 hex digest of the graph6 lines that follow it, then those
    lines.  Returns the file's path."""
    path = _cache_path(cache_dir, constraints)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(encode_graph6(g) + "\n" for g in graphs)
    _write_atomic(path, f"{_sha256(body)}\n{body}")
    return path


def cache_load(cache_dir: str | Path, constraints: EnumConstraints) -> list[Graph]:
    """Load a stream that ``cache_store`` wrote; raises FileNotFoundError when
    there is none, and CorruptCacheError when the file is not ASCII, its
    first line is not the sha256 of the rest, or the rest is not Polya's
    count of lines (never reuses bad data)."""
    path = _cache_path(cache_dir, constraints)
    try:
        checksum, _, body = path.read_text(encoding="ascii").partition("\n")
    except UnicodeDecodeError as exc:
        raise CorruptCacheError(f"cache entry {path} is not ASCII: {exc}") from exc
    if checksum != _sha256(body):
        raise CorruptCacheError(f"cache entry {path} fails verification")
    lines = body.splitlines()
    if len(lines) != constraints.classes:
        raise CorruptCacheError(f"cache entry {path} does not hold Polya's count of classes")
    return [decode_graph6(line) for line in lines]


def enumerate_cached(
    constraints: EnumConstraints, cache_dir: str | Path | None = None
) -> list[Graph]:
    """The whole stream of a space, read through ``cache_dir`` if given.  A
    missing or corrupt file is recomputed; a walk short of or past Polya's
    count raises EnumerationError, and nothing is stored."""
    if cache_dir is not None:
        try:
            return cache_load(cache_dir, constraints)
        except (FileNotFoundError, CorruptCacheError):
            pass
    graphs = list(enumerate_graphs(constraints))
    if len(graphs) != constraints.classes:
        raise EnumerationError(
            f"the walk yielded {len(graphs)} classes; Polya's count is {constraints.classes}"
        )
    if cache_dir is not None:
        cache_store(cache_dir, constraints, graphs)
    return graphs
