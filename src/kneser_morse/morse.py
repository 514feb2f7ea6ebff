"""Discrete Morse matchings on families of faces.

A matching is a set of disjoint covering pairs (sigma, tau), |tau| = |sigma|+1.
It is acyclic if the digraph on pairs, with an arc from pair a to pair b when
b's lower face is a facet of a's upper face (other than a's own lower face),
has no directed cycle; an arc keeps the dimension of the lower face, so one
search keyed by lower faces covers every dimension.  Unmatched faces are
critical.

Faces are integer bitmasks, bit b standing for one vertex: a facet drops
one bit and a cover adds one.  ``face_facets`` is the one facet and sign
helper, read by ``coreduce``, ``verify_poset_map`` and ``homology``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator


def face_facets(face: int) -> Iterator[tuple[int, int]]:
    """Each facet of ``face`` with its sign: dropping a bit with i set bits
    below it carries (-1)^i, the alternating sign with the vertices ordered
    by bit.  A vertex's facet is the empty face 0."""
    rest, sign = face, 1
    while rest:
        low = rest & -rest
        yield face ^ low, sign
        rest ^= low
        sign = -sign


def is_cover(sigma: int, tau: int) -> bool:
    """True iff tau = sigma plus exactly one vertex."""
    extra = tau & ~sigma
    return (tau & sigma) == sigma and extra != 0 and extra & (extra - 1) == 0


class PairError(ValueError):
    """A pair that does not cover, or a face matched twice; ``faces`` holds
    the offending faces."""

    def __init__(self, message: str, *faces):
        super().__init__(message)
        self.faces = faces


class Matching:
    """Disjoint covering pairs with both-way partner lookup."""

    __slots__ = ("pairs", "partner")

    def __init__(self, pairs: Iterable[tuple]):
        self.pairs = list(pairs)
        partner: dict = {}
        for sigma, tau in self.pairs:
            if not is_cover(sigma, tau):
                raise PairError("non-covering pair (%r, %r)" % (sigma, tau), sigma, tau)
            if sigma in partner or tau in partner:
                culprit = sigma if sigma in partner else tau
                raise PairError("face %r matched twice" % (culprit,), culprit)
            partner[sigma] = tau
            partner[tau] = sigma
        self.partner = partner

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, face) -> bool:
        return face in self.partner

    def matched(self) -> set:
        return set(self.partner)


def element_matching(delta: Iterable[int], x: int) -> tuple[Matching, set]:
    """Match sigma with sigma+x whenever both lie in delta.

    Returns the matching together with the matched subfamily (every face of
    delta whose x-toggle also lies in delta); that subfamily is perfectly
    matched and the recursion continues on the rest.  ``x`` is a one-bit
    mask.
    """
    if x <= 0 or x & (x - 1):
        raise ValueError("toggle %r is not a single bit" % (x,))
    dset = set(delta)
    pairs = []
    matched = set()
    for f in dset:
        if not f & x:
            up = f | x
            if up in dset:
                pairs.append((f, up))
                matched.add(f)
                matched.add(up)
    return Matching(pairs), matched


def is_perfect(matching: Matching, cells: Iterable) -> bool:
    return all(c in matching.partner for c in cells)


def critical_cells(cells: Iterable, matching: Matching) -> list:
    return sorted(c for c in cells if c not in matching.partner)


def is_acyclic(matching: Matching, cells: Iterable | None = None) -> tuple[bool, list | None]:
    """Check the matched-pair digraph for directed cycles.

    One iterative depth-first search over the lower faces of the pairs:
    from a pair (sigma, tau) it follows every facet of tau other than sigma
    that is the lower face of another pair.  Since tau is sigma plus one
    bit, those facets are tau ^ b for the bits b of sigma, probed in
    ascending bit order; each trail face keeps its bits not yet probed on a
    parallel stack.  The faces on the current trail are kept in a set; a
    finished face is dropped from the lookup, since no cycle can run
    through it.  Returns (True, None) or (False, witness)
    where the witness lists the pairs around one cycle in order, each next
    lower face a facet of the current upper face and the last pair leading
    back to the first.  Malformed input (pairs not covering, a face in two
    pairs) is rejected by Matching itself; if ``cells`` is given, pairs must
    stay inside it.
    """
    if cells is not None:
        cs = cells if isinstance(cells, (set, frozenset)) else set(cells)
        for sigma, tau in matching.pairs:
            if sigma not in cs or tau not in cs:
                raise ValueError("pair (%r, %r) leaves the cell family" % (sigma, tau))
        del cs  # a copied cell set is not needed during the search
    up = dict(matching.pairs)
    for root, _ in matching.pairs:
        if root not in up:
            continue
        trail = [root]
        on_trail = {root}
        todo = [root]
        while trail:
            sigma = trail[-1]
            tau = up[sigma]
            bits = todo[-1]
            while bits:
                b = bits & -bits
                bits ^= b
                f = tau ^ b
                if f in up:
                    if f in on_trail:
                        return False, [(s, up[s]) for s in trail[trail.index(f):]]
                    todo[-1] = bits
                    trail.append(f)
                    on_trail.add(f)
                    todo.append(f)
                    break
            else:
                todo.pop()
                trail.pop()
                on_trail.remove(sigma)
                del up[sigma]
    return True, None


def coreduce(cells: list) -> tuple[dict, list]:
    """Coreduction (Mrozek and Batko, DCG 41, 2009) of ``cells``, listed by
    increasing dimension.

    A cell with exactly one remaining facet is paired with it and both are
    removed; when none is left, the first remaining cell in the order of
    ``cells`` is removed as critical.  Removal order makes the matching
    acyclic; the caller's order decides how many cells stay critical.  A
    pair of incidence other than +-1 raises, naming the face.  Returns the
    pairs (lower -> upper cell) and the critical cells in removal order.
    """
    alive: dict[int, int] = {}  # cell -> number of remaining facets
    up: dict[int, int] = {}  # cell -> the bits that extend it to a coface
    for f in cells:
        alive[f] = up[f] = 0
        for g, _ in face_facets(f):
            if g in alive:
                alive[f] += 1
                up[g] |= f ^ g
    ready = [f for f, n in alive.items() if n == 1]
    pairs: dict[int, int] = {}
    critical: list[int] = []

    def remove(f: int) -> None:
        del alive[f]
        rest = up.pop(f)
        while rest:
            low = rest & -rest
            rest ^= low
            if f | low in alive:
                alive[f | low] -= 1
                if alive[f | low] == 1:
                    ready.append(f | low)

    for c in cells:
        while ready:
            a = ready.pop()
            if alive.get(a) != 1:
                continue
            (b, e), = ((g, s) for g, s in face_facets(a) if g in alive)
            if e not in (1, -1):
                raise AssertionError("face %r pairs with its facet %r at incidence %d, "
                                     "not +-1" % (a, b, e))
            pairs[b] = a
            remove(a)
            remove(b)
        if c in alive:
            critical.append(c)
            remove(c)
    return pairs, critical


def verify_poset_map(label_of: Callable, cells: Iterable) -> tuple[bool, tuple | None]:
    """Check that labels never increase when passing to a facet.

    Only codimension-1 containments inside ``cells`` are examined; for the
    families used here every fiber is convex, so that is equivalent to
    checking all containments.  Returns (ok, witness) with the offending
    (facet, face) pair on failure.
    """
    cs = set(cells)
    for tau in cs:
        lt = label_of(tau)
        for sigma, _ in face_facets(tau):
            if sigma in cs and label_of(sigma) > lt:
                return False, (sigma, tau)
    return True, None


def compose_cluster(label_of: Callable, fiber_matchings: dict[Hashable, Matching]) -> Matching:
    """Union of per-fiber matchings under a classifier.

    Every pair must have both endpoints in the fiber it was filed under: a
    straddling pair raises ``PairError`` carrying its two faces, and a face
    matched by two fibers raises one from ``Matching``.  Nothing else is
    checked here.  With a poset-map classifier, the union is acyclic iff
    every fiber matching is, so a caller that runs one acyclicity search on
    the union has checked every fiber; a face outside the fibers' pairs is
    critical in the union.
    """
    all_pairs = []
    for label, m in fiber_matchings.items():
        for sigma, tau in m.pairs:
            if label_of(sigma) != label or label_of(tau) != label:
                raise PairError(
                    "pair (%r, %r) straddles fibers: filed under %r, classified as (%r, %r)"
                    % (sigma, tau, label, label_of(sigma), label_of(tau)), sigma, tau)
            all_pairs.append((sigma, tau))
    return Matching(all_pairs)

