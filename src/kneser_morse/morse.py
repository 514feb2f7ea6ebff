"""Discrete Morse matchings on families of faces.

A matching is a set of disjoint covering pairs (sigma, tau), |tau| = |sigma|+1.
It is acyclic if the digraph on pairs, with an arc from pair a to pair b when
b's lower face is a facet of a's upper face (other than a's own lower face),
has no directed cycle; an arc keeps the dimension of the lower face, so one
search keyed by lower faces covers every dimension.  The type of the pairs
picks the layout: pairs handed over as ``StagePairs`` keep their lower and
upper faces as two big-int bitsets over the masks up to the largest upper
face, checked in bulk, and peeled of sink pairs in bulk rounds: a finite
digraph is acyclic iff removing its sinks empties it, so stages that peel
to empty are acyclic with no pair listed, and only after a stall or a
spent round budget does the search see the pairs left; any other pairs
are listed into a partner dict, checked pair by pair, and searched in
full.  Unmatched faces are critical.

Pair builders (``element_matching``) hand back plain lists, validated only
by the ``Matching`` they end up in.  For a union of fibers (the Cluster
Lemma), the one face table ``key_of`` (face -> fiber key) is all that
``compose_cluster`` reads; ``verify_poset_map``, a walk over its facets,
is the tests' oracle for the order ``graphs.missed_lattice`` proves.

Faces are integer bitmasks, bit b standing for one vertex: a facet drops
one bit and a cover adds one.  A bitset holds a set of faces as one int,
bit f standing for face f; ``Bits`` and ``StagePairs`` are sized views
that read such sets as faces and pairs without listing them.
``face_facets`` is the one facet and sign helper, read by ``facet_table``
(the table ``coreduce`` runs on, built once per ``homology.betti`` call),
``verify_poset_map`` and ``homology.boundary_matrix``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable, Iterator


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


# ---------------------------------------------------------------------------
# bitsets of faces

@lru_cache(maxsize=None)
def nobit(n: int) -> tuple[int, ...]:
    """``nobit(n)[b]``: the bitset of the masks below 2^n that lack bit b.

    ``s & nobit(n)[b]`` keeps the faces of the bitset s without bit b, and
    shifting that left by 2^b adds bit b to each of them.  Cached per n:
    n * 2^n bits, 2.6 MB for the 2^20 slots of a k = 3 base family.
    """
    out = []
    for b in range(n):
        keep, w = (1 << (1 << b)) - 1, 2 << b
        while w < 1 << n:
            keep, w = keep | keep << w, w << 1
        out.append(keep)
    return tuple(out)


def bitset(table: bytes, digits: bytes) -> int:
    """The bitset of the slots s whose byte ``table[s]`` the ``translate``
    table ``digits`` turns into the digit "1" (every other byte must turn
    into "0").  Base 2 is exempt from the int string-digit limit."""
    return int(table.translate(digits)[::-1], 2)


def members(bits: int) -> Iterator[int]:
    """The faces of the bitset ``bits`` in ascending order."""
    s = format(bits, "b")
    top = len(s) - 1
    i = s.rfind("1")
    while i >= 0:
        yield top - i
        i = s.rfind("1", 0, i)


class Bits:
    """A set of faces held as one bitset: ``len`` is a popcount, iteration
    is ascending and lists nothing."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return members(self.bits)


class StagePairs:
    """Pairs held by stage: ``stages`` lists (b, up), ``up`` the bitset of
    the upper faces tau of the stage, each paired with tau ^ 2^b.

    A sized view: ``len`` is the total popcount, and iteration yields
    (sigma, tau) stage by stage, ascending within a stage.  Nothing is
    checked here; ``Matching`` validates the stages.
    """

    __slots__ = ("stages", "_len", "_bitsets")

    def __init__(self, stages: Iterable[tuple[int, int]]):
        self.stages = list(stages)
        self._len = sum(up.bit_count() for _, up in self.stages)
        self._bitsets = None

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for b, up in self.stages:
            w = 1 << b
            for tau in members(up):
                yield tau ^ w, tau

    def bitsets(self) -> tuple[int, int]:
        """The lower and the upper faces of all stages, as two bitsets; the
        lower faces are right only once every upper face holds its bit."""
        if self._bitsets is None:
            low = up = 0
            for b, u in self.stages:
                low |= u >> (1 << b)
                up |= u
            self._bitsets = low, up
        return self._bitsets

    def select(self, low: int) -> list[tuple[int, int]]:
        """The pairs whose lower face is in the bitset ``low``, in order."""
        out = []
        for b, up in self.stages:
            w = 1 << b
            out.extend((tau ^ w, tau) for tau in members(up & low << w))
        return out


# ---------------------------------------------------------------------------
# matchings

class PairError(ValueError):
    """A pair that does not cover, a face matched twice, or a pair that
    straddles two fibers: ``faces`` holds the offending faces, ``what`` the
    defect, and ``key`` the fiber key it was filed under, if any."""

    def __init__(self, message: str, *faces, what: str, key: Hashable = None):
        super().__init__(message)
        self.faces = faces
        self.what = what
        self.key = key


class MatchingError(RuntimeError):
    """A claimed matching property failed mechanical verification."""


def _partner(pairs) -> dict:
    """Check the pairs one by one, in order, and return their partner dict:
    the first pair that does not cover or reuses a face raises
    ``PairError`` naming it."""
    partner = {}
    for sigma, tau in pairs:
        if not is_cover(sigma, tau):
            raise PairError("non-covering pair (%r, %r)" % (sigma, tau), sigma, tau, what="does not cover")
        if sigma in partner or tau in partner:
            culprit = sigma if sigma in partner else tau
            raise PairError("face %r matched twice" % (culprit,), culprit,
                            what="holds a face matched twice")
        partner[sigma] = tau
        partner[tau] = sigma
    return partner


def _staged(pairs: StagePairs) -> bool:
    """The stages checked in bulk: True iff every upper face holds its
    stage's bit (so each pair covers) and the lower and upper faces of all
    stages number twice the pairs (so no face is used twice, in one role or
    both)."""
    low, up = pairs.bitsets()
    masks = nobit((up.bit_length() - 1).bit_length())
    for b, u in pairs.stages:
        if u and (b >= len(masks) or u & masks[b]):
            return False
    return (low | up).bit_count() == 2 * len(pairs)


class Matching:
    """Disjoint covering pairs with both-way partner lookup.

    The type of the pairs picks the layout.  A ``StagePairs`` view is kept
    as it is, its lower and upper faces two bitsets (``bitsets``), and is
    checked in bulk (``_staged``); any other iterable is listed once and
    kept as a partner dict, checked pair by pair (``_partner``).  Stages
    that fail the bulk check are replayed through the same pair-by-pair
    check in iteration order, so in both layouts the first bad pair raises
    ``PairError`` with the same faces and message; stages that fail in
    bulk are never accepted.  ``partner`` and ``in`` read the same in
    both layouts; for stages ``partner`` is built on first use.
    """

    __slots__ = ("pairs", "_partner")

    def __init__(self, pairs: Iterable[tuple] | StagePairs):
        if isinstance(pairs, StagePairs):
            self.pairs, self._partner = pairs, None
            if not _staged(pairs):
                _partner(pairs)
                raise AssertionError("stages fail the bulk check, yet no pair fails in order")
        else:
            self.pairs = list(pairs)
            self._partner = _partner(self.pairs)

    @property
    def partner(self) -> dict:
        if self._partner is None:
            self._partner = dict(self.pairs)
            self._partner.update((tau, sigma) for sigma, tau in self.pairs)
        return self._partner

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, face) -> bool:
        return face in self.partner


def element_matching(delta: Iterable[int], x: int) -> list[tuple[int, int]]:
    """The pairs (sigma, sigma+x) with both faces in delta, as a plain list:
    a perfect matching of the faces whose x-toggle lies in delta, and the
    recursion continues on the rest.  ``x`` is a one-bit mask."""
    if x <= 0 or x & (x - 1):
        raise ValueError("toggle %r is not a single bit" % (x,))
    dset = set(delta)
    return [(f, f | x) for f in dset if not f & x and f | x in dset]


def is_acyclic(matching: Matching) -> tuple[bool, list | None]:
    """Check the matched-pair digraph for directed cycles.

    One iterative depth-first search (``_search_dict``) over the lower
    faces of the pairs, roots taken in pair order: from a pair (sigma, tau)
    it follows every facet of tau other than sigma that is the lower face
    of another pair.  Since tau is sigma plus one bit, those facets are
    tau ^ b for the bits b of sigma, probed in ascending bit order; each
    trail face keeps its bits not yet probed on a parallel stack.  The
    faces on the current trail are kept in a set; a finished face leaves
    the dict from lower to upper face, since no cycle can run through it.
    Pairs held as ``StagePairs`` are first peeled (``_peel``) on their two
    bitsets.  Peeling to empty proves them acyclic, with no pair listed or
    searched; only after a round that finds no sink or a spent round
    budget are the pairs left listed, stage by stage, for the search:
    every pair a peeled pair reaches is peeled too, so the search would
    only have finished them, and the witness is the one the search of all
    pairs finds.  A pair list is searched as it is.
    Returns (True, None) or (False, witness)
    where the witness lists the pairs around one cycle in order, each next
    lower face a facet of the current upper face and the last pair leading
    back to the first.  Malformed input (pairs not covering, a face in two
    pairs) is rejected by Matching itself; that the pairs stay inside a
    family is the caller's check.
    """
    pairs = matching.pairs
    if isinstance(pairs, StagePairs):
        low = _peel(*pairs.bitsets())[0]
        if not low:
            return True, None
        pairs = pairs.select(low)
    return _search_dict(pairs)


def _peel(low: int, up: int) -> tuple[int, list]:
    """Remove sink pairs of the matched-pair digraph in bulk rounds.

    The lower and upper faces still in the digraph are the bitsets ``low``
    and ``up``; the table is the masks up to the largest upper face.  In a
    round, ``(low & nobit[b]) << 2^b`` marks the faces tau whose facet
    tau ^ 2^b is in ``low``; an upper face marked twice has an arc out
    besides its own lower face, and every other one is a sink.  The sinks
    and their lower faces, their only facets left in ``low``, are removed.
    A finite digraph is acyclic iff removing its sinks empties it (Kahn,
    CACM 5, 1962), so peeling runs until ``low`` is empty, until a round
    finds no sink (a stall: every pair left has an arc out, so a cycle
    remains), or until pairs // words + 1 rounds are spent, words the
    table's 64-bit words, so the rounds cost no more than a pass per pair.
    Returns the lower faces left, as a bitset, and the number of pairs
    each round removed.
    """
    slots = up.bit_length()
    masks = nobit((slots - 1).bit_length())
    words = -(-slots // 64) or 1  # no stage holds a pair: an empty table
    budget, rounds = up.bit_count() // words + 1, []
    while low and len(rounds) < budget:
        once = twice = 0
        for b, keep in enumerate(masks):
            t = (low & keep) << (1 << b)
            twice |= once & t
            once |= t
        sinks = up & ~twice
        if not sinks:
            break
        up ^= sinks
        drop = 0
        for b, keep in enumerate(masks):
            drop |= sinks >> (1 << b) & keep
        low &= ~drop
        rounds.append(sinks.bit_count())
    return low, rounds


def _search_dict(pairs: list) -> tuple[bool, list | None]:
    up = dict(pairs)
    for root, _ in pairs:
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


def facet_table(cells: list) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The facets of each cell that lie in ``cells``, walked once with
    ``face_facets``: two lists parallel to ``cells``, the facet indices into
    ``cells`` in ``face_facets`` order and their signs.  Equal sign tuples
    are one shared tuple, so a family needs only a few of them."""
    index = {c: i for i, c in enumerate(cells)}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    facets, signs = [], []
    for c in cells:
        fs, ss = [], []
        for g, s in face_facets(c):
            i = index.get(g)
            if i is not None:
                fs.append(i)
                ss.append(s)
        facets.append(tuple(fs))
        ss = tuple(ss)
        signs.append(shared.setdefault(ss, ss))
    return facets, signs


def coreduce(cells: list, table: tuple[list, list]) -> tuple[dict, list]:
    """Coreduction (Mrozek and Batko, DCG 41, 2009) of ``cells``, listed by
    increasing dimension, on their ``facet_table``.

    A cell with exactly one remaining facet is paired with it and both are
    removed; when none is left, the first remaining cell in the order of
    ``cells`` is removed as critical.  Removal order makes the matching
    acyclic; the caller's order decides how many cells stay critical.  A
    pair of incidence other than +-1 raises, naming the face.  Runs on
    indices into ``cells``: a count of remaining facets per cell, each
    cell's cofaces ascending by the bit they add, and a flag per removed
    cell.  Returns the pairs (lower -> upper cell) and the critical cells
    in removal order.
    """
    facets, signs = table
    alive = [len(fs) for fs in facets]  # cell -> number of remaining facets
    # the top band has no cofaces among the cells: it shares one empty tuple
    below = len(cells)
    while below and cells[below - 1].bit_count() == cells[-1].bit_count():
        below -= 1
    cofaces: list = [[] for _ in range(below)] + [()] * (len(cells) - below)
    for i in sorted(range(len(cells)), key=cells.__getitem__):
        for j in facets[i]:
            cofaces[j].append(i)
    removed = bytearray(len(cells))
    ready = [i for i, n in enumerate(alive) if n == 1]
    pairs: dict[int, int] = {}
    critical: list[int] = []

    def remove(f: int) -> None:
        removed[f] = 1
        for a in cofaces[f]:
            if not removed[a]:
                alive[a] -= 1
                if alive[a] == 1:
                    ready.append(a)

    for c in range(len(cells)):
        while ready:
            a = ready.pop()
            if removed[a] or alive[a] != 1:
                continue
            (b, e), = ((g, s) for g, s in zip(facets[a], signs[a]) if not removed[g])
            if e not in (1, -1):
                raise AssertionError("face %r pairs with its facet %r at incidence %d, "
                                     "not +-1" % (cells[a], cells[b], e))
            pairs[cells[b]] = cells[a]
            remove(a)
            remove(b)
        if not removed[c]:
            critical.append(cells[c])
            remove(c)
    return pairs, critical


def verify_poset_map(key_of: dict) -> tuple[bool, tuple | None]:
    """Check that labels never increase when passing to a facet.

    ``key_of`` maps each cell to its label, read with one dict probe per
    facet; a facet that is not a cell puts no constraint.  Only
    codimension-1 containments are examined; for the families used here
    every fiber is convex, so that is equivalent to checking all
    containments.  Returns (ok, witness) with the offending (facet, face)
    pair on failure.
    """
    get = key_of.get
    for tau, lt in key_of.items():
        for sigma, _ in face_facets(tau):
            if get(sigma, lt) > lt:
                return False, (sigma, tau)
    return True, None


def compose_cluster(key_of: dict, pairs_by_key: dict[Hashable, list]) -> Matching:
    """The one ``Matching`` of per-fiber pair lists, filed by fiber key.

    Both faces of a pair must have the key it was filed under in
    ``key_of``: a straddling pair, or one with a face outside the table,
    raises ``PairError``.  The ``Matching`` then validates each pair once;
    its ``PairError`` gets the ``key`` of the faces, by then the key the
    pair was filed under.  With a poset-map classifier the union is acyclic
    iff every fiber's pairs are, so one acyclicity search on the union
    checks every fiber; a cell the union leaves unmatched is critical.
    """
    get = key_of.get
    all_pairs = []
    for key, pairs in pairs_by_key.items():
        for sigma, tau in pairs:
            if get(sigma) != key or get(tau) != key:
                raise PairError("pair (%r, %r) straddles fibers: filed under %r, classified as (%r, %r)"
                                % (sigma, tau, key, get(sigma), get(tau)), sigma, tau,
                                what="straddles fibers", key=key)
        all_pairs += pairs
    try:
        return Matching(all_pairs)
    except PairError as e:
        e.key = key_of[e.faces[0]]
        raise
