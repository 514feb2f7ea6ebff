"""Discrete Morse matchings on families of faces.

A matching is a set of disjoint covering pairs (sigma, tau), |tau| = |sigma|+1.
It is acyclic if the digraph on pairs, with an arc from pair a to pair b when
b's lower face is a facet of a's upper face (other than a's own lower face),
has no directed cycle; an arc keeps the dimension of the lower face, so one
search keyed by lower faces covers every dimension.  Unmatched faces are
critical.

Faces can be canonical simplex keys (sorted tuples of vertex triples) or
plain integer bitmasks; the helpers below dispatch on the type, so the same
verification code drives both the small tuple-based complexes and the large
bitmask-encoded fiber families.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator


def face_dim(face) -> int:
    """Number of vertices minus one."""
    if isinstance(face, int):
        return face.bit_count() - 1
    return len(face) - 1


def face_facets(face) -> Iterator:
    """All faces obtained by dropping one vertex."""
    if isinstance(face, int):
        m = face
        while m:
            b = m & -m
            yield face ^ b
            m ^= b
    else:
        for i in range(len(face)):
            yield face[:i] + face[i + 1:]


def is_cover(sigma, tau) -> bool:
    """True iff tau = sigma plus exactly one vertex."""
    if isinstance(sigma, int) and isinstance(tau, int):
        extra = tau & ~sigma
        return (tau & sigma) == sigma and extra != 0 and extra & (extra - 1) == 0
    ss, ts = set(sigma), set(tau)
    return len(ts) == len(ss) + 1 and ss < ts


class Matching:
    """Disjoint covering pairs with both-way partner lookup."""

    __slots__ = ("pairs", "partner")

    def __init__(self, pairs: Iterable[tuple]):
        self.pairs = list(pairs)
        partner: dict = {}
        for sigma, tau in self.pairs:
            if not is_cover(sigma, tau):
                raise ValueError("non-covering pair (%r, %r)" % (sigma, tau))
            if sigma in partner or tau in partner:
                culprit = sigma if sigma in partner else tau
                raise ValueError("face %r matched twice" % (culprit,))
            partner[sigma] = tau
            partner[tau] = sigma
        self.partner = partner

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, face) -> bool:
        return face in self.partner

    def matched(self) -> set:
        return set(self.partner)


def element_matching(delta: Iterable, x) -> tuple[Matching, set]:
    """Match sigma with sigma+x whenever both lie in delta.

    Returns the matching together with the matched subfamily (every face of
    delta whose x-toggle also lies in delta); that subfamily is perfectly
    matched and the recursion continues on the rest.  ``x`` is a vertex for
    tuple faces or a one-bit mask for integer faces.
    """
    dset = set(delta)
    pairs = []
    matched = set()
    if all(isinstance(f, int) for f in dset):
        bit = x
        if not isinstance(bit, int) or bit == 0 or bit & (bit - 1):
            raise ValueError("toggle %r is not a single bit" % (x,))
        for f in dset:
            if not f & bit:
                up = f | bit
                if up in dset:
                    pairs.append((f, up))
                    matched.add(f)
                    matched.add(up)
    else:
        xv = tuple(sorted(x))
        for f in dset:
            if xv not in f:
                up = tuple(sorted(f + (xv,)))
                if up in dset:
                    pairs.append((f, up))
                    matched.add(f)
                    matched.add(up)
    return Matching(pairs), matched


def is_perfect(matching: Matching, cells: Iterable) -> bool:
    return all(c in matching.partner for c in cells)


def critical_cells(cells: Iterable, matching: Matching) -> list:
    return sorted(c for c in cells if c not in matching.partner)


def is_acyclic(matching: Matching, cells: Iterable | None = None,
               facets: Callable = face_facets) -> tuple[bool, list | None]:
    """Check the matched-pair digraph for directed cycles.

    One iterative depth-first search over the lower faces of the pairs:
    from a pair (sigma, tau) it follows every facet of tau other than sigma
    that is the lower face of another pair.  The faces on the current trail
    are kept in a set; a finished face is dropped from the lookup, since no
    cycle can run through it.  Returns (True, None) or (False, witness)
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
        stack = [facets(up[root])]
        while stack:
            sigma = trail[-1]
            for f in stack[-1]:
                if f == sigma or f not in up:
                    continue
                if f in on_trail:
                    return False, [(s, up[s]) for s in trail[trail.index(f):]]
                trail.append(f)
                on_trail.add(f)
                stack.append(facets(up[f]))
                break
            else:
                stack.pop()
                done = trail.pop()
                on_trail.remove(done)
                del up[done]
    return True, None


def verify_poset_map(label_of: Callable, cells: Iterable,
                     facets: Callable = face_facets) -> tuple[bool, tuple | None]:
    """Check that labels never increase when passing to a facet.

    Only codimension-1 containments inside ``cells`` are examined; for the
    families used here every fiber is convex, so that is equivalent to
    checking all containments.  Returns (ok, witness) with the offending
    (facet, face) pair on failure.
    """
    cs = set(cells)
    for tau in cs:
        lt = label_of(tau)
        for sigma in facets(tau):
            if sigma in cs and label_of(sigma) > lt:
                return False, (sigma, tau)
    return True, None


def compose_cluster(label_of: Callable, fiber_matchings: dict[Hashable, Matching]) -> Matching:
    """Union of per-fiber matchings under a classifier.

    Every pair must have both endpoints in the fiber it was filed under;
    a straddling pair or a face matched by two fibers is a structural error.
    Acyclicity of the union (guaranteed when the classifier is a poset map
    and each fiber matching is acyclic) is re-verified by callers, not
    assumed here.
    """
    all_pairs = []
    for label, m in fiber_matchings.items():
        for sigma, tau in m.pairs:
            if label_of(sigma) != label or label_of(tau) != label:
                raise ValueError(
                    "pair (%r, %r) straddles fibers: filed under %r, classified as (%r, %r)"
                    % (sigma, tau, label, label_of(sigma), label_of(tau)))
            all_pairs.append((sigma, tau))
    return Matching(all_pairs)

