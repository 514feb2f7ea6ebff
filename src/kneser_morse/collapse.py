"""Collapse of the one-stable-endpoint complex onto its stable subcomplex.

Let F be the face family of the neighborhood complex of the ``s`` graph and
F0 the face family for ``sg``.  Every face in F \\ F0 falls into one of three
families, keyed by the complement set C (the ground elements the face never
touches, read by ``graphs.missed_shape``) and by stability of its members:

* A-family: all members stable, C = {s, s+1, t} containing no stable triple;
* B-family: all members stable, C = {s, s+1, u, u+1} containing no stable
  triple (two disjoint cyclically adjacent pairs);
* C-family: some member unstable, fibered by the lex-least unstable member.

Each family carries an explicit perfect acyclic matching.  The A-family
missing {1, 2, l} is read off the subset table of its support's stable
triples (``wedge.subset_table``) and matched by one ``toggle_run``: a pivot
triple first, then every other triple of the table in lex order, a run of
element matchings that must leave no face.  Every other A- and B-family is
such a base carried by ``wedge.mover``, the route the P- and Q-families of
Theorem 3 take.  A C-fiber's faces are grouped by missed set, and each
group toggles one stable vertex, read off the lex-least stable triple
inside the missed set in v's frame (``c_toggle``); faces with one toggle
form a block, paired by ``morse.element_matching``.

Every fiber hands back a plain pair list over ``graphs.triple_index(k)``.
``theorem2_matching`` files every face in one table (face -> label key) and
composes the lists under that classifier (the Cluster Lemma) into the one
``Matching`` that validates each pair; ``check_label_order`` proves the
classifier order-preserving on missed sets.  Theorem 2 then needs three
checks on the whole complex: no pair straddles two fibers, the union is
acyclic, and the critical cells are exactly F0.  Each fiber's acyclicity
and perfection follow from these three.  Faces are decoded only for error
witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import complexes, graphs, morse, wedge
from .complexes import complement_set, decode, remap
from .graphs import missed_shape, rotate, unstable_rep
from .morse import Bits, Matching, MatchingError, StagePairs
from .wedge import FamilyMatching


# ---------------------------------------------------------------------------
# classifier

def classify(sigma: int, k: int):
    """Family label of a face of the one-stable-endpoint complex.

    Returns ('C', v) with v the lex-least unstable member, ('A', s, t),
    ('B', s, u), or ('SG',) for faces of the stable subcomplex.  Every face
    must land in exactly one family; an unparseable complement shape is an
    error rather than a silent default, and a mask that is empty or has a
    bit past the per-k index raises ``ValueError``.
    """
    ix = graphs.triple_index(k)
    if sigma <= 0 or sigma >> len(ix.triples):
        raise ValueError("mask %r is not a nonempty face of the %d triples of 1..%d"
                         % (sigma, len(ix.triples), graphs.ground_size(k)))
    unstable = sigma & ~ix.stable
    if unstable:  # the lowest bit is the lex-least member
        return ('C', ix.triples[(unstable & -unstable).bit_length() - 1])
    shape = missed_shape(((1 << graphs.ground_size(k)) - 1) & ~remap(sigma, ix.ground), k)
    if shape is not None:
        return _stable_label(shape)
    cset = complement_set(sigma, k)
    raise MatchingError("face %r: complement %r of size %d contains no stable triple and has no "
                        "pair shape" % (decode(sigma, ix.triples), cset, len(cset)))


def _stable_label(shape) -> tuple:
    """The label of an all-stable face whose missed set reads ``shape``."""
    return ('SG',) if shape is True else ('A' if shape[0] == 3 else 'B',) + shape[1:]


def label_key(label, k: int) -> tuple:
    """Total order for the family classifier: A > B > C > SG, C-fibers
    decreasing in their vertex, rigid tags inside A and B."""
    if label[0] == 'A':
        return (3, label[1], label[2])
    if label[0] == 'B':
        return (2, label[1], label[2])
    if label[0] == 'C':
        return (1, -graphs.triple_index(k).bit[label[1]])
    return (0,)


def check_label_order(k: int) -> None:
    """``label_key`` never rises from a face of ``s`` to a facet, proved on
    missed sets (``graphs.missed_lattice``) with no face listed.  An
    all-stable face and its facets are labelled by missed set alone, and a
    facet misses a superset reached by one-element growths.  A facet of a
    C(v) face keeps an unstable member, and a subset's least unstable
    member is no earlier, or keeps none and misses a superset of a set
    holding a stable triple (the face's common neighbour), so it is SG.
    So the key of M + x must not be above that of M, and the C keys must
    not rise along the per-k index, down to SG."""
    shapes = graphs.missed_lattice(k)
    labels = {m: _stable_label(shape) for m, shape in enumerate(shapes) if m.bit_count() >= 3}
    for m, x in itertools.product(labels, range(graphs.ground_size(k))):
        face, facet = labels[m], labels[m | 1 << x]
        if label_key(facet, k) > label_key(face, k):
            raise MatchingError("classifier not order-preserving: facet shape %r %r keys above face "
                                "shape %r %r" % (graphs.ground_elements(m | 1 << x), facet,
                                                 graphs.ground_elements(m), face))
    ix = graphs.triple_index(k)
    chain = [('C', t) for b, t in enumerate(ix.triples) if not ix.stable >> b & 1] + [('SG',)]
    for above, below in zip(chain, chain[1:]):
        if label_key(below, k) > label_key(above, k):
            raise MatchingError("classifier not order-preserving: label %r keys above label %r"
                                % (below, above))


# ---------------------------------------------------------------------------
# A- and B-family matchings: toggle runs on the stable triples' subset tables

def pivot_vertex(k: int, l: int) -> tuple:
    """The pivot of the (1, l) A-family: the lex-least stable triple off
    {1, 2, l} that holds k+6 and a neighbour of l other than k+6, else
    ``MatchingError`` (as for every l at k = 0)."""
    n = graphs.ground_size(k)
    near = {l - 1, l + 1} - {n}
    for t in itertools.combinations([x for x in range(3, n + 1) if x != l], 3):  # lex order
        if n in t and near & set(t) and graphs.is_stable(t, k):
            return t
    raise MatchingError("family (A, 1, %d) at k=%d: no stable triple off {1, 2, %d} holds %d and "
                        "a neighbour of %d" % (l, k, l, n, l))


@lru_cache(maxsize=None)
def _a_base(k: int, l: int) -> FamilyMatching | None:
    """The all-stable family missing {1, 2, l}, matched by one toggle run;
    None when the family is empty.

    The family is ``full`` of the ``wedge.subset_table`` of the support's
    stable triples: every subset of them that covers the support.  One
    ``toggle_run`` toggles the pivot first and then every other triple of
    the table in bit (lex) order.  A run of element matchings, each on the
    faces the earlier ones leave, is an acyclic matching of any family of
    sets (Jonsson, Simplicial Complexes of Graphs, LNM 1928, 2008), so
    the run is perfect exactly when no face survives it; a survivor raises
    ``MatchingError`` naming the family and the decoded face.  The pivot
    goes first only to keep the pairs the tests pin at k = 2 and 3.
    """
    cset = (1, 2, l)
    fam = wedge.subset_table(k, cset, stable_only=True)
    if not fam.full:
        return None
    first = fam.triples.index(pivot_vertex(k, l))
    order = [first] + [b for b in range(len(fam.triples)) if b != first]
    stages, rest = wedge.toggle_run(fam.full, order)
    if rest:
        raise MatchingError("family (A, 1, %d) at k=%d: face %r survives the toggle run"
                            % (l, k, decode((rest & -rest).bit_length() - 1, fam.triples)))
    return FamilyMatching(k, cset, fam.triples, Bits(fam.full), StagePairs(stages), [])


def _pairs(move: wedge.Mover) -> list[tuple[int, int]]:
    """The pairs, over the per-k index, of the base ``move`` carries."""
    pairs: list = []
    base = _a_base(move.k, move.l) if move.l else None
    if base:
        wedge._to_index(move.carry(base), pairs)
    return pairs


def matching_A(k: int, s: int, t: int) -> list[tuple[int, int]]:
    """Pairs of a perfect matching on the all-stable {s, s+1, t}-complement
    family: the toggle run of the (1, l) base, rotated by s - 1 by
    ``wedge.mover``."""
    return _pairs(wedge.mover(k, 'A', s, t))


def matching_B(k: int, s: int, u: int) -> list[tuple[int, int]]:
    """Pairs of a perfect matching on the all-stable {s, s+1, u, u+1}-complement
    family: rotating by k+5-u moves the u-pair onto {k+5, k+6}, off the
    ground set one parameter down (``graphs.pullback``), where the family
    is an A-family; ``wedge.mover`` carries that family's base onto it and
    back, the route of a Q-family.  At k = 0 the family is empty.
    """
    return _pairs(wedge.mover(k, 'B', s, u))


# ---------------------------------------------------------------------------
# C-family matchings: toggle blocks read off the missed set

def comp_set(v, l: int) -> set[int]:
    """Candidate toggle elements: in the integer interval spanned by v, off
    v, far from l."""
    return {t for t in range(min(v), max(v) + 1) if abs(t - l) > 1 and t not in v}


@lru_cache(maxsize=None)
def _s_faces(k: int) -> frozenset:
    return frozenset(complexes.complex_for('s', k).all_faces())


def c_toggle(k: int, frame: tuple[int, int], missed: int) -> int | None:
    """The stable vertex toggled on the faces of the fiber of v that miss
    the ground elements ``missed``, as a one-bit mask; None if there is none.

    ``frame`` is (l, j) = ``unstable_rep(v, k)``, fixed for the whole fiber.
    A face holding the unstable v has exactly the stable triples inside its
    missed set as common neighbors.  In the frame where v is {1, 2, l}, u*
    is the lex-least stable triple inside the missed set rotated by -j, and
    the toggle is {1, l, m} rotated back by j, with the guarded m: the least
    t of ``comp_set(u*, l)`` such that no stable triple that holds t and
    lies inside u* + {t} is lex-before u*.  u* then stays the lex-least
    stable triple when m joins the missed set (checked on every missed set
    up to k = 6 by the tests), so toggling is an involution on the faces
    sharing u*; the least element of ``comp_set`` alone breaks that from
    k = 3 on, and picks the same m at k <= 2.
    """
    l, j = frame
    ix = graphs.triple_index(k)
    inside = sorted(rotate(x, -j, k) for x in graphs.ground_elements(missed))
    u_star = next((u for u in itertools.combinations(inside, 3)  # lex order
                   if ix.stable >> ix.bit[u] & 1), None)
    for m in sorted(comp_set(u_star, l)) if u_star else ():  # off 1 and away from l
        rivals = (tuple(sorted((m,) + ab)) for ab in itertools.combinations(u_star, 2))
        if not any(w < u_star and ix.stable >> ix.bit[w] & 1 for w in rivals):
            return 1 << ix.bit[rotate((1, l, m), j, k)]
    return None


def matching_C(k: int, v, faces: list[int]) -> list[tuple[int, int]]:
    """Pairs of a perfect matching on the fiber of unstable vertex v.

    ``faces`` is the fiber's bucket.  Each face must hold v and no unstable
    member lex-before v, a second reading of the C label beside
    ``classify``; a face that fails raises ``MatchingError`` naming it and
    the fiber.  The faces are grouped by missed set, and each group's
    toggle is read once by ``c_toggle``.  Faces with the same toggle form a
    block, paired by ``morse.element_matching``.  A face with no toggle, or
    whose partner leaves its block, stays unmatched, and the fiber fails
    unless every face is matched.
    """
    vt = tuple(sorted(v))
    if graphs.is_stable(vt, k):
        raise ValueError("%r is stable; C-fibers hang off unstable vertices" % (v,))
    ix = graphs.triple_index(k)
    vb = 1 << ix.bit[vt]
    below = ~ix.stable & (vb - 1)  # unstable triples lex-before v
    frame = unstable_rep(v, k)
    full = (1 << graphs.ground_size(k)) - 1
    groups: dict = {}
    for sigma in faces:
        if not sigma & vb or sigma & below:
            low = sigma & below
            why = ("holds the earlier unstable member %r" % (ix.triples[(low & -low).bit_length() - 1],)
                   if sigma & vb else "does not hold it")
            raise MatchingError("face %r filed under the fiber of %r %s"
                                % (decode(sigma, ix.triples), v, why))
        groups.setdefault(full & ~remap(sigma, ix.ground), []).append(sigma)
    blocks: dict = {}
    for missed, group in groups.items():
        blocks.setdefault(c_toggle(k, frame, missed), []).extend(group)
    pairs: list = []
    for x, block in blocks.items():
        if x is not None:  # faces with no toggle stay unmatched
            pairs += morse.element_matching(block, x)
    if 2 * len(pairs) != len(faces):  # the blocks' pairs are disjoint
        matched = {f for pair in pairs for f in pair}
        unmatched = sorted(f for f in faces if f not in matched)
        raise MatchingError("fiber of %r not perfectly matched; first unmatched: %r"
                            % (v, [decode(f, ix.triples) for f in unmatched[:3]]))
    return pairs


# ---------------------------------------------------------------------------
# the composed collapse

@dataclass
class VerificationRecord:
    lemma: str
    k: int
    fiber: str
    cells: int
    pairs: int
    acyclic: bool
    perfect: bool
    critical_count: int


@dataclass
class CollapseReport:
    k: int
    matching: Matching
    records: list[VerificationRecord]
    critical: list
    poset_map_route: str


def _fiber_tag(label) -> str:
    if label[0] == 'C':
        return "C v=%s" % ("".join(map(str, label[1])),)
    if label[0] == 'A':
        return "A s=%d t=%d" % (label[1], label[2])
    if label[0] == 'B':
        return "B s=%d u=%d" % (label[1], label[2])
    return "SG"


def theorem2_matching(k: int) -> CollapseReport:
    """Build the collapse matching at parameter k and certify Theorem 2.

    One pass classifies every face of the ambient complex into ``key_of``
    (face -> label key), the only face table the checks read, and a bucket
    per label.  Each fiber hands back a plain pair list (the A-, B- and
    C-matchings check their own families as they are built).  The Cluster
    Lemma then needs three checks, each made once on the whole complex:

    1. ``compose_cluster`` finds no pair straddling two fibers as it
       builds the one ``Matching`` that validates every pair, and the
       classifier is order-preserving, proved for every face on missed
       sets by ``check_label_order`` (the route ``poset_map_route`` names);
    2. one acyclicity search over the union finds no cycle;
    3. the critical cells, the faces of ``key_of`` the union leaves
       unmatched, are exactly the SG fiber and the faces of ``sg``.

    A cycle among one fiber's pairs is a cycle of the union, so check 2
    makes every fiber acyclic; by checks 1 and 3 every face outside the SG
    fiber is matched inside its own fiber, so every other fiber is perfectly
    matched.  The per-fiber records carry these consequences.  A failed
    check raises ``MatchingError`` naming decoded faces and their fiber.
    """
    triples = graphs.triple_index(k).triples
    keys: dict = {}
    key_of: dict = {}
    buckets: dict = {}
    for sigma in sorted(_s_faces(k)):
        label = classify(sigma, k)
        if label not in keys:
            keys[label] = label_key(label, k)
            buckets[label] = []
        key_of[sigma] = keys[label]
        buckets[label].append(sigma)

    def fail(what: str, witness) -> MatchingError:
        tags = sorted({_fiber_tag(classify(f, k)) if f in key_of else "outside s" for f in witness})
        return MatchingError("%s at %s [fiber %s]" % (
            what, ", ".join("face %r" % (decode(f, triples),) for f in witness), " / ".join(tags)))

    fibers: dict = {}
    for label in sorted(buckets, key=keys.__getitem__):
        if label[0] == 'A':
            fibers[label] = matching_A(k, label[1], label[2])
        elif label[0] == 'B':
            fibers[label] = matching_B(k, label[1], label[2])
        elif label[0] == 'C':
            fibers[label] = matching_C(k, label[1], buckets[label])
        else:
            fibers[label] = []

    try:
        composed = morse.compose_cluster(key_of, {keys[la]: pairs for la, pairs in fibers.items()})
    except morse.PairError as e:
        filed = next(la for la, key in keys.items() if key == e.key)
        raise fail("pair filed under fiber %s %s" % (_fiber_tag(filed), e.what), e.faces) from e
    check_label_order(k)
    acyclic, cycle = morse.is_acyclic(composed)
    if not acyclic:
        raise fail("matched pairs close a cycle", [f for pair in cycle for f in pair])
    partner = composed.partner
    critical = [f for f in key_of if f not in partner]
    sg = complexes.complex_for('sg', k).all_faces()
    stray = set(critical) ^ sg | set(critical) ^ set(buckets.get(('SG',), ()))
    if stray:
        raise fail("critical cells and the stable subcomplex differ", [min(stray)])

    records = [VerificationRecord(
        lemma="%s-matching" % label[0].lower(), k=k, fiber=_fiber_tag(label),
        cells=len(buckets[label]), pairs=len(pairs), acyclic=True,
        perfect=label[0] != 'SG', critical_count=len(buckets[label]) - 2 * len(pairs))
        for label, pairs in fibers.items()]
    records.append(VerificationRecord(
        lemma="s3k-collapse", k=k, fiber="all", cells=len(key_of), pairs=len(composed.pairs),
        acyclic=True, perfect=False, critical_count=len(critical)))
    return CollapseReport(k=k, matching=composed, records=records, critical=critical,
                          poset_map_route='lattice')
