"""Neighborhood complexes of the triple graphs.

A set of vertices is a face iff the vertices have a common neighbor, so the
complex is determined by the family {N(v)}: maximal faces are the
inclusion-maximal neighborhoods, and every face is a nonempty subset of one
of them.

Every face is an integer bitmask over ``graphs.triple_index(k)``: bit b
stands for the b-th triple of [k+6] in lex order.  The ``kg``, ``s`` and
``sg`` complexes and every filtration stage at one k share that index, so
their faces compare directly.  ``face_key`` is the one encoder (triples to
mask), ``decode`` the one decoder (mask to sorted triples, for reports,
error witnesses and tests), and ``remap`` moves a face along a per-bit
table, such as a rotation of the ground set.

``complement_set`` returns the ground elements missed by a face; the shape of
that complement is what all the matching machinery keys on.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from . import graphs

# Most candidates ``NbhdComplex.all_faces`` expands, the sum of 2^|m| over
# the maximal faces m: kg needs 56 * 2^10 at k = 2 and 84 * 2^20 at k = 3.
ALL_FACES_BUDGET = 2_000_000


def face_key(sigma: Iterable, k: int) -> int:
    """The mask of a set of triples of [k+6]; duplicates collapse."""
    bit = graphs.triple_index(k).bit
    mask = 0
    for v in sigma:
        t = tuple(sorted(v))
        if t not in bit:
            raise ValueError("%r is not a triple of 1..%d" % (v, graphs.ground_size(k)))
        mask |= 1 << bit[t]
    return mask


def decode(mask: int, triples) -> tuple:
    """The lex-sorted triples of a mask whose bit b stands for ``triples[b]``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(triples[low.bit_length() - 1])
        mask ^= low
    out.sort()  # bit order is lex only in a lex-ordered dictionary
    return tuple(out)


def remap(mask: int, table) -> int:
    """The union of ``table[b]`` over the set bits b of ``mask``.

    With one-bit entries this moves a face onto another bit dictionary (a
    rotation, or a family's local bits onto the per-k index); with the
    ground masks of the index it gives the ground elements a face covers.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def complement_set(sigma: int, k: int) -> tuple[int, ...]:
    """The ground elements of [k+6] that no member of the face touches."""
    ix = graphs.triple_index(k)
    if sigma < 0 or sigma >> len(ix.triples):
        raise ValueError("mask %r has bits outside the %d triples of 1..%d"
                         % (sigma, len(ix.triples), graphs.ground_size(k)))
    covered = remap(sigma, ix.ground)
    return tuple(x for x in range(1, graphs.ground_size(k) + 1) if not covered >> (x - 1) & 1)


class NbhdComplex:
    """The complex generated by nonempty faces, with cached dimension bands:
    a graph's neighborhood complex from its ``adj`` rows (``complex_for``),
    or the middle filtration stage, whose generating faces are not the
    neighborhoods of a single graph, from explicit faces."""

    def __init__(self, k: int, generators: Iterable[int]):
        self.k = k
        pool = sorted({g for g in generators if g}, key=lambda m: -m.bit_count())
        maximal: list[int] = []
        for nb in pool:
            if not any(nb & ~m == 0 for m in maximal):
                maximal.append(nb)
        self.maximal = sorted(maximal)
        self._bands: dict[int, list[int]] = {}

    def dim(self) -> int:
        return max((m.bit_count() for m in self.maximal), default=0) - 1

    def faces(self, d: int) -> list[int]:
        """All d-faces ((d+1)-subsets of maximal faces), in mask order."""
        if d < 0:
            return []
        if d not in self._bands:
            out: set[int] = set()
            for m in self.maximal:
                if m.bit_count() >= d + 1:
                    bits = [1 << b for b in range(m.bit_length()) if m >> b & 1]
                    out.update(map(sum, itertools.combinations(bits, d + 1)))
            self._bands[d] = sorted(out)
        return self._bands[d]

    def all_faces(self) -> set[int]:
        """Every face of every dimension.  Exponential in the largest maximal
        face, so guarded: raises if the powerset budget exceeds
        ``ALL_FACES_BUDGET``."""
        budget = sum(2 ** m.bit_count() for m in self.maximal)
        if budget > ALL_FACES_BUDGET:
            raise ValueError("refusing to expand %d powerset candidates (limit %d)"
                             % (budget, ALL_FACES_BUDGET))
        out: set[int] = set()
        for m in self.maximal:
            sub = m
            while sub:  # every nonempty submask of m
                out.add(sub)
                sub = (sub - 1) & m
        return out


@lru_cache(maxsize=None)
def complex_for(kind: str, k: int) -> NbhdComplex:
    return NbhdComplex(k, graphs.graph(kind, k).adj)
