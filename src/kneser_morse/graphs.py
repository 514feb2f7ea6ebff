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

``triple_index(k)`` numbers all triples of [k+6] in lex order; bit b of a
face mask stands for triple b of that index, in every complex at that k.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

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
    """Rotate a ground element (int) or a triple (sorted on return) by j
    (mod k+6)."""
    n = ground_size(k)
    if isinstance(x, int):
        return (x + j - 1) % n + 1
    return tuple(sorted((e + j - 1) % n + 1 for e in x))


def unstable_rep(v, k: int) -> tuple[int, int]:
    """Write an unstable triple as rotate({1,2,l}, j); returns (l, j).

    A cyclically adjacent pair {a, a+1} of the triple fixes j = a - 1, and l
    is the third element rotated back by j.  A run {a, a+1, a+2} has two
    such pairs; only the lower one gives l in {3, ..., k+5}, which makes the
    representation unique (asserted).
    """
    t = check_vertex(v, k)
    n = ground_size(k)
    found = []
    for a in t:
        if a % n + 1 in t:
            (c,) = set(t) - {a, a % n + 1}
            l = (c - a) % n + 1
            if 3 <= l <= n - 1:
                found.append((l, a - 1))
    if not found:
        raise ValueError("%r is stable; it has no {1,2,l} normal form" % (v,))
    if len(found) > 1:
        raise AssertionError("%r has two {1,2,l} normal forms: %r" % (v, found))
    return found[0]


class TripleIndex(NamedTuple):
    """All triples of [k+6] in lex order: bit b of a face mask stands for
    ``triples[b]``; ``ground[b]`` is its ground-element mask and ``stable``
    the face mask of the stable triples."""
    triples: tuple
    bit: dict
    ground: tuple
    stable: int


@lru_cache(maxsize=None)
def triple_index(k: int) -> TripleIndex:
    pool = all_triples(k)
    stable = sum(1 << b for b, t in enumerate(pool) if is_stable(t, k))
    return TripleIndex(tuple(pool), {t: b for b, t in enumerate(pool)},
                       tuple(vertex_mask(t) for t in pool), stable)


class Graph:
    """One graph family instance with bitset adjacency.

    ``adj[i]`` is an integer whose bit b is set iff vertex b (by index in the
    lex-sorted vertex list) is adjacent to vertex i.  For ``kg`` and ``s``
    the vertex list is the whole of ``triple_index(k)``, so their rows are
    face masks.
    """

    __slots__ = ("kind", "k", "verts", "index", "adj")

    def __init__(self, kind: str, k: int):
        if kind not in KINDS:
            raise ValueError("unknown graph kind %r (want one of %s)" % (kind, ", ".join(KINDS)))
        self.kind = kind
        self.k = k
        ix = triple_index(k)
        bits = [b for b in range(len(ix.triples)) if kind != SG or ix.stable >> b & 1]
        self.verts: list[Vertex] = [ix.triples[b] for b in bits]
        self.index: dict[Vertex, int] = {t: i for i, t in enumerate(self.verts)}
        adj = []
        for b in bits:
            row = 0
            for jx, c in enumerate(bits):
                if ix.ground[b] & ix.ground[c]:  # meeting triples, a triple and itself included
                    continue
                if kind == S and not (ix.stable >> b | ix.stable >> c) & 1:
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

    def common_neighbors(self, face: int) -> int:
        """Common neighbors of the vertices in a mask over ``verts``, as such
        a mask; -1 (every vertex) for the empty face."""
        nb = -1
        while face:
            low = face & -face
            nb &= self.adj[low.bit_length() - 1]
            face ^= low
        return nb

    def neighborhood(self, A: Iterable) -> list[Vertex]:
        """Common neighbors of all vertices in A, lex sorted.

        The intersection over an empty A is the whole vertex set.
        """
        face = 0
        for v in A:
            face |= 1 << self.vertex_index(v)
        nb = self.common_neighbors(face)
        return [t for b, t in enumerate(self.verts) if nb >> b & 1]

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

