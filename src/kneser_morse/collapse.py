"""Collapse of the one-stable-endpoint complex onto its stable subcomplex.

Let F be the face family of the neighborhood complex of the ``s`` graph and
F0 the face family for ``sg``.  Every face in F \\ F0 falls into one of three
families, keyed by the complement set C (the ground elements the face never
touches, read by ``graphs.missed_shape``) and by stability of its members:

* A-family: all members stable, C = {s, s+1, t} containing no stable triple;
* B-family: all members stable, C = {s, s+1, u, u+1} containing no stable
  triple (two disjoint cyclically adjacent pairs);
* C-family: some member unstable, fibered by the lex-least unstable member.

Each family carries an explicit perfect acyclic matching.  The A- and
B-matchings come from ``wedge``'s family engine, the one the P- and
Q-families of Theorem 3 use.  The A-family missing {1, 2, l} is the part of
the P-family's subset table (``wedge.family_faces``) that covers the
support with no unstable bit.  A pivot triple's element matching is one
``wedge.toggle_run`` stage; each face it leaves holds the pivot, and the
rest of the face also misses part of the pivot, which files the face in one
of seven residue classes.  A class is a smaller A-family moved up by
``wedge.transport`` with the pivot added to every face.  Both steps are
certified for all faces at once, and a count closes the partition.  The
other A-families are these rotated by ``transport``, and a B-family is an
A-family one parameter down pulled back along a rotation, the route
``wedge.matching_Q`` takes.  A family's matching is a list of parts, each a
``wedge.FamilyMatching`` over its own triples.  A C-fiber's faces are
grouped by missed set, and each group toggles one stable vertex, read off
the lex-least stable triple inside the missed set in v's frame; faces with
one toggle form a block, matched by ``morse.element_matching``.
``theorem2_matching`` composes all of them under one
order-preserving classifier (the Cluster Lemma) and proves Theorem 2 with
three checks on the whole complex: no pair straddles two fibers, the union
is acyclic, and the critical cells are exactly F0.  Each fiber's
acyclicity and perfection follow from these three.

Faces are masks over ``graphs.triple_index(k)``, the index every complex at
k shares; the A- and B-parts reach it through ``wedge._to_index``.  A
C-toggle moves ground elements with ``graphs.rotate``, and faces are
decoded only for error witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import complexes, graphs, morse, wedge
from .complexes import complement_set, decode, remap
from .graphs import (missed_shape, p_complement, pair_of, pullback, q_complement, rotate,
                     unstable_rep, vertex_mask)
from .morse import Bits, Matching, MatchingError, StagePairs
from .wedge import FamilyMatching


# ---------------------------------------------------------------------------
# classifier

def classify(sigma: int, k: int):
    """Family label of a face of the one-stable-endpoint complex.

    Returns ('C', v) with v the lex-least unstable member, ('A', s, t),
    ('B', s, u), or ('SG',) for faces of the stable subcomplex.  Every face
    must land in exactly one family; an unparseable complement shape is an
    error rather than a silent default.
    """
    ix = graphs.triple_index(k)
    unstable = sigma & ~ix.stable
    if unstable:  # the lowest bit is the lex-least member
        return ('C', ix.triples[(unstable & -unstable).bit_length() - 1])
    shape = missed_shape(((1 << graphs.ground_size(k)) - 1) & ~remap(sigma, ix.ground), k)
    if shape is True:
        return ('SG',)
    if shape is not None:
        return ('A' if shape[0] == 3 else 'B',) + shape[1:]
    cset = complement_set(sigma, k)
    if len(cset) == 3:
        raise MatchingError("face %r: 3-complement %r has no pair shape"
                            % (decode(sigma, ix.triples), cset))
    if len(cset) == 4:
        raise MatchingError("face %r: 4-complement %r has no double-pair shape"
                            % (decode(sigma, ix.triples), cset))
    raise MatchingError(
        "face %r: complement %r of size %d contains no stable triple"
        % (decode(sigma, ix.triples), cset, len(cset)))


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


# ---------------------------------------------------------------------------
# A- and B-family matchings: parts on the P-family subset tables

def pivot_vertex(k: int, l: int):
    n = graphs.ground_size(k)
    if l == 3:
        return (4, 6, n)
    if l == 4:
        return (3, 5, n)
    if l == 5:
        return (3, 6, n)
    return (3, l - 1, n)


def _delta_table(k: int, l: int):
    """Per residue class of the pivot stage on the (1, l) family, the
    recipe that fills it.

    Each row is (extra, shift, sub_k, s, t).  ``extra`` is a ground-element
    mask, the part of the pivot that the rest of a class face leaves
    uncovered; sigma -> (sigma - pivot) rotated down by ``shift`` sends the
    class bijectively onto the A-family (sub_k, s, t).
    """
    a, b, n = pivot_vertex(k, l)
    if l == 3:
        targets = [(1, k - 1, 1, 3), (1, k - 1, 1, 5), (0, k - 1, 1, 3),
                   (2, k - 2, 1, 4), (1, k - 2, 1, 3), (1, k - 2, 1, 5),
                   (2, k - 3, 1, 4)]
    elif l == 4:
        targets = [(1, k - 1, 1, 3), (1, k - 1, 3, 1), (0, k - 1, 1, 4),
                   (2, k - 2, 1, 3), (1, k - 2, 1, 3), (1, k - 2, 3, 1),
                   (2, k - 3, 1, 3)]
    elif l == 5:
        targets = [(1, k - 1, 1, 4), (1, k - 1, 4, 1), (0, k - 1, 1, 5),
                   (2, k - 2, 3, 1), (1, k - 2, 1, 4), (1, k - 2, 4, 1),
                   (2, k - 3, 3, 1)]
    else:
        targets = [(1, k - 1, 1, l - 1), (1, k - 1, l - 2, 1), (0, k - 1, 1, l),
                   (2, k - 2, l - 3, 1), (1, k - 2, 1, l - 1), (1, k - 2, l - 2, 1),
                   (2, k - 3, l - 3, 1)]
    extras = [graphs.vertex_mask(e) for e in
              ({a}, {b}, {n}, {a, b}, {a, n}, {b, n}, {a, b, n})]
    rows = []
    for i in range(7):
        shift, sub_k, s, t = targets[i]
        if sub_k >= 2:
            # renormalize the target name: near l = n-1 the written (s, t)
            # can put t on the wrong side of the pair once the ground set
            # shrinks, and the canonical reading swaps it to the wrap pair
            shape = missed_shape(graphs.vertex_mask(pair_of(s, sub_k) + (t,)), sub_k)
            if not isinstance(shape, tuple):
                raise AssertionError(
                    "target {%d, %d+1, %d} unparseable at k=%d" % (s, s, t, sub_k))
            _, s, t = shape
        rows.append((extras[i], shift, sub_k, s, t))
    return rows


def _add_pivot(part: FamilyMatching, pivot: tuple, l: int) -> FamilyMatching:
    """A residue class of the (1, l) family: ``part``, moved by ``transport``
    onto the all-stable faces missing {1, 2, l} plus a set E, with the pivot
    added to every face.

    The pivot is certified to be a stable triple off {1, 2, l} that holds
    every element of a nonempty E, so it lies outside the class support.
    Adding it then keeps faces all-stable, makes them cover every element
    but 1, 2 and l, and sends covering pairs to covering pairs; the image
    is exactly the family faces that hold the pivot and whose rest leaves E
    uncovered.  The pivot becomes bit m of the part, m its number of
    triples, so adding it shifts every bitset by 2^m.
    """
    k, base = part.k, vertex_mask((1, 2, l))
    pm, extra = vertex_mask(pivot), vertex_mask(part.cset) & ~base
    if not graphs.is_stable(pivot, k) or pm & base or not extra or extra & ~pm:
        raise MatchingError("family (A, 1, %d): pivot %r at k=%d is not a stable triple off "
                            "{1, 2, %d} that holds the uncovered elements %r of its class"
                            % (l, pivot, k, l, [x for x in part.cset if x not in (1, 2, l)]))
    w = 1 << len(part.triples)
    return FamilyMatching(k, 'A', 1, l, (1, 2, l), part.triples + (pivot,), Bits(part.faces.bits << w),
                          StagePairs((b, up << w) for b, up in part.pairs.stages), [])


@lru_cache(maxsize=None)
def _a_base(k: int, l: int) -> tuple[FamilyMatching, ...]:
    """The all-stable family missing {1, 2, l}, matched in parts.

    The family is the subsets of the P-family's table that cover its
    support and hold no unstable bit.  Part one is the element matching of
    the pivot, one ``toggle_run`` stage.  Each face it leaves holds the
    pivot and falls in one residue class of ``_delta_table``, filled by the
    parts of a smaller A-family moved into the frame at k by ``transport``
    and given the pivot by ``_add_pivot``.  The classes of a target below
    k = 2 are left out, as every A-family there is empty.  Twice the pivot
    pairs plus the class faces must number the family's faces: with the
    certificates, which make the classes disjoint from each other and from
    the pivot pairs, that makes the parts a perfect matching, and a face
    in a class left out, or a pivot stage lost, fails the count.
    """
    cset = (1, 2, l)
    fam = wedge.family_faces(k, cset)
    family = fam.full & ~fam.faces.bits
    if not family:
        return ()
    pivot = pivot_vertex(k, l)
    stages, rest = wedge.toggle_run(family, [fam.triples.index(pivot)])
    parts = [FamilyMatching(k, 'A', 1, l, cset, fam.triples, Bits(family ^ rest), StagePairs(stages), [])]
    for extra, shift, sub_k, s, t in _delta_table(k, l):
        if sub_k >= 2:
            m = vertex_mask(cset) | extra
            missed = tuple(x for x in range(1, graphs.ground_size(k) + 1) if m >> (x - 1) & 1)
            parts += [_add_pivot(wedge.transport(part, k, 'A', 1, l, missed, shift), pivot, l)
                      for part in _a_parts(sub_k, s, t)]
    classes = sum(len(part.faces) for part in parts[1:])
    if 2 * len(parts[0].pairs) + classes != family.bit_count():
        raise MatchingError("family (A, 1, %d) at k=%d: %d pivot pairs and %d class faces do not "
                            "partition its %d faces" % (l, k, len(parts[0].pairs), classes,
                                                        family.bit_count()))
    return tuple(parts)


def _a_parts(k: int, s: int, t: int) -> list[FamilyMatching]:
    """The parts of the (1, l) family moved onto the family missing
    {s, s+1, t} by ``transport``, along ``unstable_rep``'s rotation."""
    cset = p_complement(k, s, t)
    l, j = unstable_rep(cset, k)  # j = s-1
    return [wedge.transport(part, k, 'A', s, t, cset, j) for part in _a_base(k, l)]


def _on_index(parts) -> Matching:
    """One ``Matching`` over the per-k index of the pairs of all parts."""
    pairs: list = []
    for part in parts:
        wedge._to_index(part, pairs, [])
    return Matching(pairs)


def matching_A(k: int, s: int, t: int) -> Matching:
    """Perfect matching on the all-stable {s, s+1, t}-complement family."""
    return _on_index(_a_parts(k, s, t))


def matching_B(k: int, s: int, u: int) -> Matching:
    """Perfect matching on the all-stable {s, s+1, u, u+1}-complement family.

    Rotating by k+5-u sends the family bijectively onto a 3-complement
    family one parameter down (the u-pair lands on {k+5, k+6} and drops off
    the smaller ground set, see ``graphs.pullback``); the parts of that
    family's matching move back by ``transport``, as ``wedge.matching_Q``
    moves a P-family.  At k = 0 the support has two elements and the family
    is empty.
    """
    cset = q_complement(k, s, u)
    if k == 0:
        return Matching([])
    sub_s, sub_t, shift = pullback(k, s, u)
    return _on_index(wedge.transport(part, k, 'B', s, u, cset, -shift)
                     for part in _a_parts(k - 1, sub_s, sub_t))


# ---------------------------------------------------------------------------
# C-family matchings: toggle blocks read off the missed set

def comp_set(v, l: int) -> set[int]:
    """Candidate toggle elements: in the integer interval spanned by v, off
    v, far from l."""
    return {t for t in range(min(v), max(v) + 1) if abs(t - l) > 1 and t not in v}


@lru_cache(maxsize=None)
def _s_faces(k: int) -> frozenset:
    return frozenset(complexes.complex_for('s', k).all_faces())


def c_fiber(k: int, v, faces=None) -> list[int]:
    """Faces whose lex-least unstable member is v."""
    vt = tuple(sorted(v))
    if graphs.is_stable(vt, k):
        raise ValueError("%r is stable; C-fibers hang off unstable vertices" % (v,))
    ix = graphs.triple_index(k)
    vb = 1 << ix.bit[vt]
    below = ~ix.stable & (vb - 1)  # unstable triples lex-before v
    pool = _s_faces(k) if faces is None else faces
    return sorted(sigma for sigma in pool if sigma & vb and not sigma & below)


def c_toggle(k: int, frame: tuple[int, int], missed: int) -> int | None:
    """The stable vertex toggled on the faces of the fiber of v that miss
    the ground elements ``missed``, as a one-bit mask; None if there is none.

    ``frame`` is (l, j) = ``unstable_rep(v, k)``, fixed for the whole fiber.
    A face holding the unstable v has exactly the stable triples inside its
    missed set as common neighbors.  In the frame where v is {1, 2, l}, u*
    is the lex-least stable triple inside the missed set rotated by -j, and
    the toggle is {1, l, m}, m the least element of ``comp_set(u*, l)``,
    rotated back by j.
    """
    l, j = frame
    ix = graphs.triple_index(k)
    inside = sorted(rotate(x, -j, k) for x in range(1, graphs.ground_size(k) + 1)
                    if missed >> (x - 1) & 1)
    for u_star in itertools.combinations(inside, 3):  # lex order
        if ix.stable >> ix.bit[u_star] & 1:
            m = min(comp_set(u_star, l), default=None)  # off 1 and away from l
            return None if m is None else 1 << ix.bit[rotate((1, l, m), j, k)]
    return None


def matching_C(k: int, v, faces=None) -> Matching:
    """Perfect matching on the fiber of unstable vertex v.

    The fiber's faces are grouped by missed set, and each group's toggle is
    read once by ``c_toggle``.  Faces with the same toggle form a block,
    matched by ``morse.element_matching``.  A face whose partner leaves its
    block stays unmatched, and the fiber fails unless every block is
    perfectly matched.
    """
    fiber = c_fiber(k, v, faces)
    frame = unstable_rep(v, k)
    ix = graphs.triple_index(k)
    full = (1 << graphs.ground_size(k)) - 1
    groups: dict = {}
    for sigma in fiber:
        groups.setdefault(full & ~remap(sigma, ix.ground), []).append(sigma)
    blocks: dict = {}
    for missed, group in groups.items():
        x = c_toggle(k, frame, missed)
        if x is None:
            raise MatchingError("face %r of the fiber of %r: no toggle for its missed set %r"
                                % (decode(group[0], ix.triples), v, complement_set(group[0], k)))
        blocks.setdefault(x, []).extend(group)
    pairs: list = []
    unmatched: list = []
    for x, block in blocks.items():
        m, matched = morse.element_matching(block, x)
        pairs += m.pairs
        unmatched += (f for f in block if f not in matched)
    if unmatched:
        raise MatchingError("fiber of %r not perfectly matched; first unmatched: %r"
                            % (v, [decode(f, ix.triples) for f in sorted(unmatched)[:3]]))
    return Matching(pairs)


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

    Classifies every face of the ambient complex and builds each fiber
    matching (the A-, B- and C-matchings check their own families as they
    are built).  The Cluster Lemma then needs three checks, each made once
    on the whole complex:

    1. the classifier is order-preserving, and ``compose_cluster`` finds no
       pair straddling two fibers;
    2. one acyclicity search over the union of all pairs finds no cycle;
    3. the critical cells are exactly the SG fiber and the faces of ``sg``.

    A cycle among one fiber's pairs is a cycle of the union, so check 2
    makes every fiber acyclic; by checks 1 and 3 every face outside the SG
    fiber is matched inside its own fiber, so every other fiber is perfectly
    matched.  The per-fiber records carry these consequences.  A failed
    check raises ``MatchingError`` naming decoded faces and their fiber.
    """
    triples = graphs.triple_index(k).triples
    faces = sorted(_s_faces(k))
    keys: dict = {}
    key_of: dict = {}
    buckets: dict = {}
    for sigma in faces:
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
            fibers[label] = matching_C(k, label[1], faces=buckets[label])
        else:
            fibers[label] = Matching([])

    try:
        composed = morse.compose_cluster(key_of.get, {keys[la]: m for la, m in fibers.items()})
    except morse.PairError as e:
        filed = " / ".join(_fiber_tag(la) for la, m in fibers.items()
                           if any(f in m for f in e.faces))
        raise fail("pair filed under fiber %s straddles fibers" % filed, e.faces) from e
    mono_ok, mono_witness = morse.verify_poset_map(key_of.__getitem__, _s_faces(k))
    if not mono_ok:
        raise fail("classifier not order-preserving", mono_witness)
    acyclic, cycle = morse.is_acyclic(composed, _s_faces(k))
    if not acyclic:
        raise fail("matched pairs close a cycle", [f for pair in cycle for f in pair])
    critical = morse.critical_cells(faces, composed)
    sg = complexes.complex_for('sg', k).all_faces()
    stray = set(critical) ^ sg | set(critical) ^ set(buckets.get(('SG',), ()))
    if stray:
        raise fail("critical cells and the stable subcomplex differ", [min(stray)])

    records = [VerificationRecord(
        lemma="%s-matching" % label[0].lower(), k=k, fiber=_fiber_tag(label),
        cells=len(buckets[label]), pairs=len(m.pairs), acyclic=True,
        perfect=label[0] != 'SG', critical_count=len(buckets[label]) - 2 * len(m.pairs))
        for label, m in fibers.items()]
    records.append(VerificationRecord(
        lemma="s3k-collapse", k=k, fiber="all", cells=len(faces), pairs=len(composed.pairs),
        acyclic=True, perfect=False, critical_count=len(critical)))
    return CollapseReport(k=k, matching=composed, records=records, critical=critical)
