"""Isomorph-free graph generation and canonical forms.

Canonical form: vertices are first split into cells by iterated
degree/neighbor-degree refinement (an isomorphism invariant, computed with
bitset popcounts), then the lexicographically minimal upper-triangle
bit-string over all cell-respecting orderings is found by backtracking with
prefix pruning.  Two graphs share a :class:`CanonicalKey` exactly when they
are isomorphic.

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
parent visits just the masks of the admissible weights, from a table of
masks grouped by weight, merged into ascending order; an Aut(parent)-orbit
keeps its popcount, so the least mask of each orbit and the visiting order
are those of the full ascending scan.

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

Children are built from the parent's rows without re-validation.  A built
child is refined only until canonical deletion is decided: the top
refinement class only shrinks, so the child is dropped as soon as the new
vertex leaves it, and on the last level it is yielded as soon as the new
vertex is alone in it, since it is then last in every cell-respecting
ordering and nothing uses a leaf's automorphisms.  Only the remaining
children get full cells and a canonical search.

Three shortcuts in the kernel leave every key, ``last`` orbit, generator
and stream as they were.  A refinement round given ``new`` counts the top
class first: every key starts with the old label, so ``new`` stays in the
top (last) cell exactly when no other top vertex's counts beat its own, and
is alone there when its counts are the unique maximum, which is the full
round's decision.  A vertex alone in its class gets no counts, since its
label already fixes its rank.  A discrete partition admits one ordering,
which the search takes directly: no other leaf exists to yield an
automorphism, and its last vertex is the whole ``last`` orbit.  Inside the
search a flag carries whether the prefix is below the incumbent's or equal
to it, and the tried candidates are closed under the automorphisms only
when a later candidate is tested, so the same candidates are skipped.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import comb, factorial, gcd
from pathlib import Path
from typing import Iterable, Iterator

from .graph import Graph, _bits, _trusted_graph, decode_graph6, encode_graph6
# unused here, but the benchmark's tracer wraps these names in ``enumeration``
from .graph import is_connected, triangle_count  # noqa: F401

FULL_ENUM_CAP = 9
CONSTRAINED_ENUM_CAP = 11


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
    """A space: the classes on ``n`` vertices, with ``edges`` edges if given."""
    n: int
    edges: int | None = None

    def __post_init__(self):
        if self.n < 0:
            raise EnumerationError("n must be non-negative")
        if self.edges is not None and not 0 <= self.edges <= comb(self.n, 2):
            raise EnumerationError(f"edge count {self.edges} out of range for n={self.n}")
        cap = FULL_ENUM_CAP if self.edges is None else CONSTRAINED_ENUM_CAP
        if self.n > cap:
            raise EnumerationError(
                f"n={self.n} beyond enumeration cap ({cap} "
                f"{'with' if self.edges is not None else 'without'} edge constraint)"
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


def _refinement_cells(
    g: Graph, new: int | None = None, leaf: bool = False
) -> list[list[int]] | None:
    """Vertex cells under iterated neighbor-label refinement, ordered by an
    isomorphism-invariant cell key.

    A vertex's key is its label plus, for each label class in label order,
    the number of its non-neighbours in that class (one bitset popcount
    each).  Vertices sharing a label share a degree and a class, so fewer
    non-neighbours means more neighbours, and the keys sort exactly as the
    vertices' sorted tuples of neighbour labels would.

    Each key starts with the previous label, so the top class only ever
    shrinks and stays the last cell.  Given the vertex ``new``, refinement
    therefore stops once canonical deletion of ``new`` is decided: it
    returns None as soon as ``new`` leaves the top class and, with
    ``leaf``, ``[[new]]`` as soon as the top class is ``new`` alone.
    """
    n = g.n
    labels = [r.bit_count() for r in g.rows]
    non_adjacent = [~r for r in g.rows]
    count = int.bit_count
    classes = sorted(set(labels))
    if new is not None:
        if labels[new] != classes[-1]:
            return None
        if leaf and labels.count(labels[new]) == 1:
            return [[new]]
    while True:
        masks = dict.fromkeys(classes, 0)
        for v, lab in enumerate(labels):
            masks[lab] |= 1 << v
        cellmasks = list(masks.values())
        if new is not None:
            # the round's deletion decision, from the top class alone
            rivals = masks[classes[-1]] & ~(1 << new)
            if rivals:
                mine = tuple(map(count, map(non_adjacent[new].__and__, cellmasks)))
                rival = max(
                    tuple(map(count, map(non_adjacent[v].__and__, cellmasks)))
                    for v in _bits(rivals)
                )
                if rival > mine:
                    return None
                if leaf and rival < mine:
                    return [[new]]
        # a singleton class's rank is fixed by its label alone
        shared = {lab for lab, mask in masks.items() if mask & (mask - 1)}
        keys = [
            (lab, tuple(map(count, map(row.__and__, cellmasks))) if lab in shared else ())
            for lab, row in zip(labels, non_adjacent)
        ]
        order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        labels = [order[key] for key in keys]
        # stable once no class splits; a discrete partition cannot split
        if len(order) == len(classes) or len(order) == n:
            break
        classes = range(len(order))
    cells: list[list[int]] = [[] for _ in order]
    for v, lab in enumerate(labels):
        cells[lab].append(v)
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


def _canonical_search(
    g: Graph, cells: list[list[int]] | None = None
) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """Minimal column encoding over cell-respecting orderings, the bitmask
    of vertices that occupy the last position in some minimizing ordering
    (the orbit of the canonical-deletion vertex), and generators of the
    automorphism group as image lists.

    ``cells`` is ``_refinement_cells(g)`` when the caller already has it.
    Two leaves with equal columns differ by an automorphism, which is
    recorded; a candidate in the orbit of one already tried at its node,
    under the recorded automorphisms fixing the node's prefix, roots the
    image of a searched subtree and is skipped.  The recorded automorphisms
    generate the whole group, so ``last`` is the orbit of the best
    ordering's last vertex under them.
    """
    n = g.n
    if n == 0:
        return (), 0, []
    if cells is None:
        cells = _refinement_cells(g)
    rows = g.rows
    if len(cells) == n:
        # a discrete partition allows one ordering: the only leaf, so no
        # automorphism is found and its last vertex is all of ``last``
        order = [v for v, in cells]
        cols = []
        for j, v in enumerate(order):
            col = 0
            for u in order[:j]:
                col = col << 1 | (rows[v] >> u & 1)
            cols.append(col)
        return tuple(cols), 1 << order[-1], []
    cell_of_pos: list[list[int]] = []
    for cell in cells:
        cell_of_pos.extend([cell] * len(cell))
    best: list[int] = []
    best_perm: list[int] = []
    # (bitmask of fixed points, image list) of each automorphism found
    autos: list[tuple[int, list[int]]] = []
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
    cols = _canonical_search(g)[0]
    return CanonicalKey(g.n, _cols_to_bits(cols))


def canonical_graph(g: Graph) -> Graph:
    """A canonically labeled copy (equal for all members of the class)."""
    cols = _canonical_search(g)[0]
    rows = [0] * g.n
    for j, col in enumerate(cols):
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return _trusted_graph(g.n, tuple(rows))


# -- canonical augmentation ---------------------------------------------------


@cache
def _masks_by_weight(k: int) -> tuple[tuple[int, ...], ...]:
    """The k-bit vertex masks grouped by popcount, each group ascending."""
    groups: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        groups[mask.bit_count()].append(mask)
    return tuple(map(tuple, groups))


def _extend(parent: Graph, mask: int) -> Graph:
    k = parent.n
    rows = list(parent.rows) + [mask]
    for i in range(k):
        if mask >> i & 1:
            rows[i] |= 1 << k
    return _trusted_graph(k + 1, tuple(rows))


def enumerate_graphs(
    constraints: EnumConstraints,
    partition: tuple[int, int] | None = None,
) -> Iterator[Graph]:
    """Yield one representative per isomorphism class on ``constraints.n``
    vertices, in a deterministic order (children explored in ascending
    neighbor-set order).

    ``partition=(k, K)`` restricts the walk to the k-th of K deterministic
    subtrees; merging all K streams reproduces the full stream as a set.  The
    split is made at the leaf parents, the nodes on n - 1 vertices (for
    n = 0, the null graph itself), which are dealt out round robin in walk
    order: each partition walks the internal levels again, which are cheap
    beside the last, and the leaves fall nearly evenly (5056 and 5064 of
    the 10120 classes with 9 vertices and 13 edges), where a split higher
    up leaves a few subtrees holding most of a sparse space.
    """
    n = constraints.n
    if partition is not None:
        k, total = partition
        if not (total >= 1 and 0 <= k < total):
            raise EnumerationError(f"bad partition {partition}")
    target_edges = constraints.edges
    max_total = comb(n, 2)

    def children(
        parent: Graph, gens: list[list[int]]
    ) -> Iterator[tuple[Graph, list[list[int]]]]:
        """Canonical children of ``parent`` with their automorphism
        generators; ``gens`` generate Aut(parent)."""
        k = parent.n
        last_level = k + 1 == n
        covered: set[int] = set()  # masks in the orbit of an earlier one
        degrees = [r.bit_count() for r in parent.rows]
        top = max(degrees, default=0)
        top_mask = sum(1 << i for i, d in enumerate(degrees) if d == top)
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
        # the admissible weights only, merged into ascending mask order
        for mask in sorted(chain.from_iterable(_masks_by_weight(k)[low : high + 1])):
            if mask & top_mask and mask.bit_count() == top:
                continue
            # masks in one Aut(parent)-orbit give isomorphic children, and
            # every test in this loop gives one answer on the whole orbit,
            # so its least mask stands for it
            if gens:
                if mask in covered:
                    continue
                covered |= _mask_orbit(mask, gens)
            child = _extend(parent, mask)
            cells = _refinement_cells(child, k, last_level)
            if cells is None:
                continue
            if last_level and len(cells[-1]) == 1:
                # k is last in every cell-respecting ordering, and a leaf's
                # automorphisms are never used
                yield child, []
                continue
            _, last, child_gens = _canonical_search(child, cells)
            if last >> k & 1:
                yield child, child_gens

    split_level = max(n - 1, 0) if partition is not None else None

    def walk(g: Graph, gens: list[list[int]], index: list[int]) -> Iterator[Graph]:
        if split_level is not None and g.n == split_level:
            mine = index[0] % partition[1] == partition[0]
            index[0] += 1
            if not mine:
                return
        if g.n == n:
            # the edge window closes to the target on the last level
            yield g
            return
        for child, child_gens in children(g, gens):
            yield from walk(child, child_gens, index)

    yield from walk(Graph(0, ()), [], [0])


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
    if len(lines) != class_count(constraints.n, constraints.edges):
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
    if len(graphs) != (polya := class_count(constraints.n, constraints.edges)):
        raise EnumerationError(f"the walk yielded {len(graphs)} classes; Polya's count is {polya}")
    if cache_dir is not None:
        cache_store(cache_dir, constraints, graphs)
    return graphs
