"""Triple graphs on the cyclic ground set {1, ..., k+6}.

Vertices are 3-element subsets of [k+6], written as sorted tuples.  A triple
is *stable* if it contains no cyclically adjacent pair {t, t+1} (indices mod
k+6, so {k+6, 1} counts as adjacent).  Three graph families share this vertex
pool:

* ``kg`` -- all triples, adjacent iff disjoint;
* ``s``  -- all triples, adjacent iff disjoint and at least one endpoint is
  stable;
* ``sg`` -- stable triples only, adjacent iff disjoint.

Rotation x -> x+j (mod k+6) permutes the ground set, preserves stability and
is an automorphism of all three graphs.  Every unstable triple is a rotation
of {1, 2, l} for a unique l in {3, ..., k+5}; ``unstable_rep`` recovers that
normal form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

KG = "kg"
S = "s"
SG = "sg"
KINDS = (KG, S, SG)

Vertex = tuple[int, int, int]


def ground_size(k: int) -> int:
    if k < 0:
        raise ValueError("family parameter k must be >= 0, got %r" % (k,))
    return k + 6


def check_vertex(v, k: int) -> Vertex:
    """Return v as a sorted tuple, or raise ValueError if it is no triple."""
    t = tuple(sorted(v))
    n = ground_size(k)
    if len(t) != 3 or len(set(t)) != 3:
        raise ValueError("not a 3-element set: %r" % (v,))
    if not all(isinstance(x, int) and 1 <= x <= n for x in t):
        raise ValueError("elements of %r out of range 1..%d" % (v, n))
    return t  # type: ignore[return-value]


def vertex_mask(v: Iterable[int]) -> int:
    """Bitmask of a set of ground elements (bit e-1 for element e)."""
    m = 0
    for x in v:
        m |= 1 << (x - 1)
    return m


def is_stable(v, k: int) -> bool:
    """True iff the triple has no cyclically adjacent pair mod k+6."""
    t = check_vertex(v, k)
    n = ground_size(k)
    m = vertex_mask(t)
    for x in t:
        succ = x % n + 1
        if m >> (succ - 1) & 1:
            return False
    return True


def all_triples(k: int) -> list[Vertex]:
    n = ground_size(k)
    return list(itertools.combinations(range(1, n + 1), 3))


def rotate(x, j: int, k: int):
    """Rotate ground elements by j (mod k+6).

    Accepts a single element (int), a vertex (tuple of ints), or a collection
    of vertices; containers keep their type, vertices come back sorted.
    """
    n = ground_size(k)
    if isinstance(x, int):
        return (x + j - 1) % n + 1
    seq = tuple(x)
    if all(isinstance(e, int) for e in seq):
        t = tuple(sorted((e + j - 1) % n + 1 for e in seq))
        return t
    rotated = (rotate(v, j, k) for v in seq)
    if isinstance(x, frozenset):
        return frozenset(rotated)
    if isinstance(x, set):
        return set(rotated)
    if isinstance(x, list):
        return list(rotated)
    return tuple(sorted(rotated))


def unstable_rep(v, k: int) -> tuple[int, int]:
    """Write an unstable triple as rotate({1,2,l}, j); returns (l, j).

    The representation with l in {3, ..., k+5} is unique; the search order
    (smallest j, then smallest l) is a tie-break that never fires but makes
    the contract deterministic.
    """
    t = check_vertex(v, k)
    if is_stable(t, k):
        raise ValueError("%r is stable; it has no {1,2,l} normal form" % (v,))
    n = ground_size(k)
    for j in range(n):
        for l in range(3, n):
            if rotate((1, 2, l), j, k) == t:
                return (l, j)
    raise AssertionError("unreachable: every unstable triple is some 12l+j")


class Graph:
    """One graph family instance with bitset adjacency.

    ``adj[i]`` is an integer whose bit b is set iff vertex b (by index in the
    lex-sorted vertex list) is adjacent to vertex i.
    """

    __slots__ = ("kind", "k", "n", "verts", "index", "masks", "stable", "adj")

    def __init__(self, kind: str, k: int):
        if kind not in KINDS:
            raise ValueError("unknown graph kind %r (want one of %s)" % (kind, ", ".join(KINDS)))
        self.kind = kind
        self.k = k
        self.n = ground_size(k)
        pool = all_triples(k)
        stable_flags = {t: is_stable(t, k) for t in pool}
        if kind == SG:
            pool = [t for t in pool if stable_flags[t]]
        self.verts: list[Vertex] = pool
        self.index: dict[Vertex, int] = {t: i for i, t in enumerate(pool)}
        self.masks: list[int] = [vertex_mask(t) for t in pool]
        self.stable: list[bool] = [stable_flags[t] for t in pool]
        adj = []
        for i, t in enumerate(pool):
            row = 0
            mi, si = self.masks[i], self.stable[i]
            for jx, u in enumerate(pool):
                if jx == i or (mi & self.masks[jx]):
                    continue
                if kind == S and not (si or self.stable[jx]):
                    continue
                row |= 1 << jx
            adj.append(row)
        self.adj = adj

    def vertex_index(self, v) -> int:
        t = tuple(sorted(v))
        try:
            return self.index[t]
        except KeyError:
            raise ValueError("%r is not a vertex of %s_(3,%d)" % (v, self.kind, self.k)) from None

    def adjacent(self, u, v) -> bool:
        iu, iv = self.vertex_index(u), self.vertex_index(v)
        return bool(self.adj[iu] >> iv & 1)

    def neighborhood(self, A: Iterable) -> list[Vertex]:
        """Common neighbors of all vertices in A, lex sorted.

        The intersection over an empty A is the whole vertex set.
        """
        bits = -1
        for v in A:
            bits &= self.adj[self.vertex_index(v)]
            if bits == 0:
                return []
        if bits == -1:
            return list(self.verts)
        out = []
        while bits:
            b = bits & -bits
            out.append(self.verts[b.bit_length() - 1])
            bits ^= b
        return out

    def degree(self, v) -> int:
        return self.adj[self.vertex_index(v)].bit_count()

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for i, row in enumerate(self.adj):
            hi = row >> (i + 1)
            jx = i + 1
            while hi:
                if hi & 1:
                    yield (self.verts[i], self.verts[jx])
                hi >>= 1
                jx += 1


@lru_cache(maxsize=None)
def graph(kind: str, k: int) -> Graph:
    return Graph(kind, k)

