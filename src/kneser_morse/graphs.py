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

Both theorems sort faces by the ground elements a face misses, and
``missed_shape`` is the one reader of that set: a stable triple fits inside,
or it is {s, s+1, t} (the normal form rotated back), or {s, s+1, u, u+1}, or
none of these.  ``missed_lattice`` checks, on every mask, the facts that
both theorems' Cluster-Lemma hypotheses rest on.  ``pullback`` takes a
family of the third kind to one of the second kind one parameter down;
``index_I`` and ``index_J`` list the admissible t and u.

``triple_index(k)`` numbers all triples of [k+6] in lex order; bit b of a
face mask stands for triple b of that index, in every complex at that k.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .morse import MatchingError

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


# ---------------------------------------------------------------------------
# missed sets: the shapes both theorems sort faces by

def pair_of(s: int, k: int) -> tuple[int, int]:
    """The cyclically adjacent pair {s, s+1} (s = k+6 wraps to {k+6, 1})."""
    n = ground_size(k)
    return (s, s % n + 1)


def index_I(s: int, k: int) -> list[int]:
    """Admissible third elements t for missed sets {s, s+1, t}."""
    n = ground_size(k)
    if not 1 <= s <= n:
        raise ValueError("s=%d outside 1..%d" % (s, n))
    excluded = {(s - 2) % n + 1, s, s % n + 1}
    return [t for t in range(1, n + 1) if t not in excluded]


def index_J(s: int, k: int) -> list[int]:
    """Admissible second pair starts u for missed sets {s, s+1, u, u+1}."""
    n = ground_size(k)
    if s == 1:
        return list(range(3, n))          # u+1 may not wrap onto 1
    if 1 < s < n - 1:
        return list(range(s + 2, n + 1))  # u > s+1, wrap u = k+6 allowed
    return []


def p_complement(k: int, i: int, j: int) -> tuple:
    """The missed set {i, i+1, j} of a three-element family, validated."""
    n = ground_size(k)
    if not 1 <= i <= n:
        raise ValueError("pair start i=%r leaves the ground set 1..%d" % (i, n))
    if j not in index_I(i, k):
        raise ValueError("j=%r cannot accompany the pair {%d, %d}" % (j, i, i % n + 1))
    return tuple(sorted(set(pair_of(i, k)) | {j}))


def q_complement(k: int, i: int, j: int) -> tuple:
    """The missed set {i, i+1, j, j+1} of a four-element family, validated."""
    if not 1 <= i <= k + 4:
        raise ValueError("first pair start i=%r must lie in 1..%d" % (i, k + 4))
    if j not in index_J(i, k):
        raise ValueError("second pair start j=%r is not admissible after i=%d" % (j, i))
    return tuple(sorted(set(pair_of(i, k)) | set(pair_of(j, k))))


def missed_shape(missed: int, k: int):
    """Read a ground-element mask of missed elements: True when a stable
    triple fits inside, (3, s, t) for {s, s+1, t} with t in ``index_I(s,
    k)``, (4, s, u) for {s, s+1, u, u+1} with u in ``index_J(s, k)``, else
    None.  Stability inside is read off ``triple_index(k).stable``, the
    shapes off the ground set.  A three-element set is ``unstable_rep``'s
    {1, 2, l} rotated back by j, so s = j+1 and t = l+j, and a run {s, s+1,
    s+2} reads from its lower pair; four elements are two disjoint adjacent
    pairs with s < u."""
    n = ground_size(k)
    ix = triple_index(k)
    elements = ground_elements(missed)
    if any(ix.stable >> ix.bit[t] & 1 for t in itertools.combinations(elements, 3)):
        return True
    if len(elements) == 3 and not is_stable(elements, k):
        l, j = unstable_rep(elements, k)
        return (3, j + 1, rotate(l, j, k))
    if len(elements) == 4:
        a, b, c, d = elements
        if b == a + 1 and d == c + 1:
            return (4, a, c)
        if (a, d) == (1, n) and c == b + 1:  # the second pair wraps: {n, 1}
            return (4, b, n)
    return None


def ground_elements(mask: int) -> tuple[int, ...]:
    """The ground elements of a ground-element mask, ascending."""
    return tuple(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)


def missed_lattice(k: int) -> list:
    """``missed_shape`` of every mask M of [k+6], indexed by M, once these
    hold for every M of three or more elements and x off M: (a) |M| >= 5:
    a stable triple fits inside; (b) |M| = 3 or 4 and none fits: M has the
    pair or the double-pair shape; (c) M + x holds a stable triple, or has
    the double-pair shape while M has the pair shape.  (c) is checked as
    "M + x holds a stable triple if M does"; the rest of it follows from
    (a) and (b) on M + x, one element larger.

    Lemma.  By (a) and (b) a face of the full complex outside the mixed
    complex (an unstable member, no stable triple in its missed set) is a
    P-face (pair shape) or a Q-face (double pair, the middle stage).  A
    facet misses a superset, reached by one-element growths, so by (c) a
    facet of a P- or Q-face stays in its family or has left the layer: no
    face of a family has a facet in another family of the layer, and the
    union of their matchings is acyclic iff each is (the Cluster Lemma).
    A failed fact raises ``MatchingError`` naming the mask's elements.
    """
    n = ground_size(k)
    shapes = [missed_shape(m, k) for m in range(1 << n)]
    for m in reversed(range(1 << n)):  # a growth is checked before its masks
        shape, size = shapes[m], m.bit_count()
        if size < 3:
            continue
        if shape is True:
            for x in range(n):
                if shapes[m | 1 << x] is not True:
                    raise MatchingError("missed set %r holds a stable triple, but its growth by %d "
                                        "reads %r" % (ground_elements(m), x + 1, shapes[m | 1 << x]))
        elif shape is None or shape[0] != size:
            want = "" if size >= 5 else " or have the %s shape" % ("pair", "double-pair")[size - 3]
            raise MatchingError("missed set %r reads %r, but a set of %d elements must hold a "
                                "stable triple%s" % (ground_elements(m), shape, size, want))
    return shapes


def pullback(k: int, s: int, u: int) -> tuple[int, int, int]:
    """(s', t', shift): rotating by shift = k+5-u moves the pair {u, u+1}
    onto {k+5, k+6}, off the ground set of parameter k-1, and sends the
    family missing {s, s+1, u, u+1} to the one missing {s', s'+1, t'} there."""
    shift = k + 5 - u
    down = sorted(rotate(x, shift, k) for x in pair_of(s, k) + pair_of(u, k))
    if down[-2:] != [k + 5, k + 6]:
        raise AssertionError("rotation by %d failed to move the second pair on top" % (shift,))
    shape = missed_shape(vertex_mask(down[:3]), k - 1)
    if not isinstance(shape, tuple):
        raise AssertionError("image complement %r has no pair shape" % (down[:3],))
    return shape[1], shape[2], shift


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

