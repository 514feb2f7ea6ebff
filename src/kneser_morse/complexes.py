"""Neighborhood complexes of the triple graphs.

A set of vertices is a face iff the vertices have a common neighbor, so the
complex is determined by the family {N(v)}: maximal faces are the
inclusion-maximal neighborhoods, and every face is a nonempty subset of one
of them.  Faces are written canonically as lex-sorted tuples of triples.

``complement_set`` returns the ground elements missed by a face; the shape of
that complement is what all the matching machinery keys on.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import graphs
from .graphs import Graph

Face = tuple  # tuple of vertex triples, lex sorted


def face_key(sigma: Iterable) -> Face:
    """Canonical form: sorted tuple of sorted triples, duplicates dropped."""
    return tuple(sorted({tuple(sorted(v)) for v in sigma}))


class ComplementSet(NamedTuple):
    complement: tuple[int, ...]  # ground elements no member touches
    support: tuple[int, ...]     # ground elements covered by the face


def complement_set(sigma: Iterable, k: int) -> ComplementSet:
    n = graphs.ground_size(k)
    covered: set[int] = set()
    for v in sigma:
        covered.update(v)
    if not covered <= set(range(1, n + 1)):
        raise ValueError("face %r leaves the ground set 1..%d" % (sigma, n))
    comp = tuple(x for x in range(1, n + 1) if x not in covered)
    return ComplementSet(comp, tuple(sorted(covered)))


class NbhdComplex:
    """Neighborhood complex of one graph, with cached dimension bands."""

    def __init__(self, g: Graph):
        self.graph: Graph | None = g
        self.k = g.k
        nbhds = []
        seen = set()
        for v in g.verts:
            nb = frozenset(g.neighborhood([v]))
            if nb and nb not in seen:
                seen.add(nb)
                nbhds.append(nb)
        self._install(nbhds)

    @classmethod
    def from_maximal(cls, k: int, faces: Iterable[Iterable]) -> "NbhdComplex":
        """The complex generated by explicit faces.

        Needed for the middle filtration stage, whose generating faces are
        not the neighborhoods of a single graph.  ``graph`` is None on the
        result; everything else works as usual.
        """
        cx = cls.__new__(cls)
        cx.graph = None
        cx.k = k
        cx._install([frozenset(tuple(sorted(v)) for v in f) for f in faces])
        return cx

    def _install(self, gens: Iterable[frozenset]) -> None:
        pool = sorted({g for g in gens if g}, key=lambda m: (-len(m), sorted(m)))
        maximal: list[frozenset] = []
        for nb in pool:
            if not any(nb <= m for m in maximal):
                maximal.append(nb)
        self.maximal_sets = maximal
        self.maximal = sorted(face_key(m) for m in maximal)
        self._bands: dict[int, list[Face]] = {}
        self._band_sets: dict[int, set[Face]] = {}

    def dim(self) -> int:
        return max((len(m) for m in self.maximal), default=0) - 1

    def faces(self, d: int) -> list[Face]:
        """All d-faces ((d+1)-subsets of maximal faces), lex sorted."""
        if d < 0:
            return []
        if d not in self._bands:
            out: set[Face] = set()
            for m in self.maximal:
                if len(m) >= d + 1:
                    out.update(itertools.combinations(m, d + 1))
            self._bands[d] = sorted(out)
            self._band_sets[d] = out
        return self._bands[d]

    def face_set(self, d: int) -> set[Face]:
        self.faces(d)
        return self._band_sets.get(d, set())

    def is_face(self, sigma: Iterable) -> bool:
        fs = {tuple(sorted(v)) for v in sigma}
        if not fs:
            return False
        return any(fs <= m for m in self.maximal_sets)

    def all_faces(self, limit: int = 2_000_000) -> set[Face]:
        """Every face of every dimension.  Exponential in the largest maximal
        face, so guarded: raises if the powerset budget exceeds ``limit``."""
        budget = sum(2 ** len(m) for m in self.maximal)
        if budget > limit:
            raise ValueError(
                "refusing to expand %d powerset candidates (limit %d)" % (budget, limit))
        out: set[Face] = set()
        for m in self.maximal:
            for r in range(1, len(m) + 1):
                out.update(itertools.combinations(m, r))
        return out


def neighborhood_complex(g: Graph) -> NbhdComplex:
    return NbhdComplex(g)


@lru_cache(maxsize=None)
def complex_for(kind: str, k: int) -> NbhdComplex:
    return NbhdComplex(graphs.graph(kind, k))


def containment_pairs(cx, d: int) -> Iterator[tuple[Face, Face]]:
    """All codimension-1 containments (sigma, tau) with tau a d-face.

    Every facet of a face is a face, so dropping each member of each d-face
    lists each pair exactly once.
    """
    for tau in cx.faces(d):
        for i in range(len(tau)):
            yield (tau[:i] + tau[i + 1:], tau)

