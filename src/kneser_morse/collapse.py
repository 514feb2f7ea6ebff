"""Collapse of the one-stable-endpoint complex onto its stable subcomplex.

Let F be the face family of the neighborhood complex of the ``s`` graph and
F0 the face family for ``sg``.  Every face in F \\ F0 falls into one of three
families, keyed by the complement set C (the ground elements the face never
touches, read by ``graphs.missed_shape``) and by stability of its members:

* A-family: all members stable, C = {s, s+1, t} containing no stable triple;
* B-family: all members stable, C = {s, s+1, u, u+1} containing no stable
  triple (two disjoint cyclically adjacent pairs);
* C-family: some member unstable, fibered by the lex-least unstable member
  v and cut into blocks (v, u*), u* the lex-least stable triple inside C
  in v's frame.

Every part is a ``wedge.FamilyMatching`` on a ``wedge.subset_table``, as
Theorem 3's families are, matched by ``wedge.toggle_run`` and checked by
the one certificate of a built family, ``wedge.certify``: an A-base is the
table of its support's stable triples, carried onto every A- and B-family
by ``wedge.mover``; a block is one stage on ``c_toggle``'s triple.
``theorem2_matching`` composes the parts under the Cluster Lemma with no
face of F listed or classified, and lists faces only for error witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import complexes, graphs, wedge
from .complexes import decode, remap
from .graphs import missed_shape, rotate, unstable_rep
from .morse import Bits, MatchingError, StagePairs, bitset
from .wedge import FamilyMatching


# ---------------------------------------------------------------------------
# classifier

def classify(sigma: int, k: int):
    """Family label of a face of the one-stable-endpoint complex: ('C', v)
    with v the lex-least unstable member, ('A', s, t), ('B', s, u), or
    ('SG',) for faces of the stable subcomplex.  An unparseable complement
    shape is an error rather than a silent default, and a mask that is
    empty or has a bit past the per-k index raises ``ValueError``."""
    ix = graphs.triple_index(k)
    if sigma <= 0 or sigma >> len(ix.triples):
        raise ValueError("mask %r is not a nonempty face of the %d triples of 1..%d"
                         % (sigma, len(ix.triples), graphs.ground_size(k)))
    unstable = sigma & ~ix.stable
    if unstable:  # the lowest bit is the lex-least member
        return ('C', ix.triples[(unstable & -unstable).bit_length() - 1])
    missed = ((1 << graphs.ground_size(k)) - 1) & ~remap(sigma, ix.ground)
    shape = missed_shape(missed, k)
    if shape is not None:
        return _stable_label(shape)
    raise MatchingError("face %r: complement %r of size %d contains no stable triple and has no "
                        "pair shape" % (decode(sigma, ix.triples), graphs.ground_elements(missed),
                                        missed.bit_count()))


def _stable_label(shape) -> tuple:
    """The label of an all-stable face whose missed set reads ``shape``."""
    return ('SG',) if shape is True else ('A' if shape[0] == 3 else 'B',) + shape[1:]


def label_key(label, k: int) -> tuple:
    """Total order for the family classifier: A > B > C > SG, C-fibers
    decreasing in v and their blocks ('C', v, u*) increasing in u* (read
    in v's frame), rigid tags inside A and B."""
    if label[0] in ('A', 'B'):
        return (3 if label[0] == 'A' else 2, label[1], label[2])
    if label[0] == 'C':
        bit = graphs.triple_index(k).bit
        return (1, -bit[label[1]]) + tuple(bit[u] for u in label[2:])
    return (0,)


@lru_cache(maxsize=None)
def _least(k: int, stable: int) -> tuple:
    """Per ground mask, the per-k bit of the lex-least triple of the face
    mask ``stable`` inside it, or -1."""
    ground = graphs.triple_index(k).ground
    bits = [b for b in range(len(ground)) if stable >> b & 1]
    return tuple(next((b for b in bits if not ground[b] & ~m), -1)
                 for m in range(1 << graphs.ground_size(k)))


def _turn(mask: int, j: int, k: int) -> int:
    """A ground mask rotated by -j: element e moves to e - j mod k+6."""
    n = graphs.ground_size(k)
    return ((mask >> j) | (mask << (n - j))) & ((1 << n) - 1)


def check_label_order(k: int, shapes: list | None = None) -> None:
    """``label_key`` never rises from a face of ``s`` to a facet, proved on
    the missed sets ``shapes`` of ``graphs.missed_lattice(k)``.  A facet
    misses a superset, reached by one-element growths.  All-stable faces
    are labelled by missed set alone: the key of M + x must not be above
    that of M.  A facet of a C(v, u*) face keeps an unstable member no
    earlier than v, or none and is SG (it misses u*): the C keys must not
    rise along the per-k index, down to SG.  With v kept, the superset's
    lex-least stable triple is no later: in the frame of each v = {1, 2,
    l}, onto which a rotation carries every unstable vertex and its missed
    sets, the block key of M + x must not be above that of M."""
    shapes = graphs.missed_lattice(k) if shapes is None else shapes
    n, ix = graphs.ground_size(k), graphs.triple_index(k)
    least, keys = _least(k, ix.stable), {}

    def check(m: int, face, grown: int, facet) -> None:
        for label in (face, facet):
            if label not in keys:
                keys[label] = label_key(label, k)
        if keys[facet] > keys[face]:
            raise MatchingError("classifier not order-preserving: facet shape %r %r keys above face "
                                "shape %r %r" % (graphs.ground_elements(grown), facet,
                                                 graphs.ground_elements(m), face))

    for m, x in itertools.product(range(1 << n), range(n)):
        if m.bit_count() >= 3:
            check(m, _stable_label(shapes[m]), m | 1 << x, _stable_label(shapes[m | 1 << x]))
    for l in range(3, n):
        rest = m = ((1 << n) - 1) & ~graphs.vertex_mask((1, 2, l))
        while m:  # every missed set off v
            for x in graphs.ground_elements(rest & ~m) if least[m] >= 0 else ():
                grown = m | 1 << (x - 1)
                check(m, ('C', (1, 2, l), ix.triples[least[m]]),
                      grown, ('C', (1, 2, l), ix.triples[least[grown]]))
            m = (m - 1) & rest
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
    """The all-stable family missing {1, 2, l}, None when empty: ``full``
    of the ``wedge.subset_table`` of the support's stable triples, matched
    by one ``toggle_run``, the pivot first (only to keep the pairs the
    tests pin at k = 2 and 3) and then every other triple in lex order.  A
    run of element matchings is acyclic on any family of sets (Jonsson,
    Simplicial Complexes of Graphs, LNM 1928, 2008), and ``wedge.certify``
    checks it before any mover carries it."""
    support = [x for x in range(3, graphs.ground_size(k) + 1) if x != l]
    fam = wedge.subset_table(k, (1, 2, l), tuple(t for t in itertools.combinations(support, 3)
                                                 if graphs.is_stable(t, k)))
    if not fam.full:
        return None
    first = fam.triples.index(pivot_vertex(k, l))
    stages, _ = wedge.toggle_run(fam.full, [first] + [b for b in range(len(fam.triples)) if b != first])
    base = FamilyMatching(k, (1, 2, l), fam.triples, Bits(fam.full), StagePairs(stages), [])
    wedge.certify(base, "family (A, 1, %d) at k=%d" % (l, k))
    return base


def _carry(move: wedge.Mover) -> FamilyMatching | None:
    base = _a_base(move.k, move.l) if move.l else None
    return move.carry(base) if base else None


def matching_A(k: int, s: int, t: int) -> FamilyMatching | None:
    """A perfect acyclic matching on the all-stable {s, s+1, t}-complement
    family, None when it is empty: the toggle run of the (1, l) base,
    rotated by s - 1 by ``wedge.mover``."""
    return _carry(wedge.mover(k, 'A', s, t))


def matching_B(k: int, s: int, u: int) -> FamilyMatching | None:
    """A perfect acyclic matching on the all-stable {s, s+1, u, u+1}-complement
    family, None when it is empty (at k <= 2): rotating by k+5-u moves the
    u-pair off the ground set one parameter down (``graphs.pullback``),
    where the family is an A-family; ``wedge.mover`` carries that family's
    base onto it and back, the route of a Q-family."""
    return _carry(wedge.mover(k, 'B', s, u))


# ---------------------------------------------------------------------------
# C-family matchings: one toggle stage per (v, u*) block

def comp_set(v, l: int) -> set[int]:
    """Candidate toggle elements: in the integer interval spanned by v, off
    v, far from l."""
    return {t for t in range(min(v), max(v) + 1) if abs(t - l) > 1 and t not in v}


def c_toggle(k: int, frame: tuple[int, int], missed: int) -> int | None:
    """The stable vertex toggled on the faces of the fiber of v that miss
    the ground elements ``missed``, as a one-bit mask; None if there is none.

    ``frame`` is (l, j) = ``unstable_rep(v, k)``.  A face holding the
    unstable v has exactly the stable triples inside its missed set as
    common neighbors.  In the frame where v is {1, 2, l}, u* is the
    lex-least of them, and the toggle is {1, l, m} rotated back by j, with
    the guarded m: the least t of ``comp_set(u*, l)`` such that no stable
    triple holding t inside u* + {t} is lex-before u*.  u* then stays the
    lex-least stable triple when m joins the missed set (checked on every
    missed set up to k = 6 by the tests), so toggling is an involution on
    a block; the least element of ``comp_set`` alone breaks that from k =
    3 on, and picks the same m at k <= 2.
    """
    l, j = frame
    ix = graphs.triple_index(k)
    b = _least(k, ix.stable)[_turn(missed, j, k)]
    u_star = ix.triples[b] if b >= 0 else None
    for m in sorted(comp_set(u_star, l)) if u_star else ():  # off 1 and away from l
        rivals = (tuple(sorted((m,) + ab)) for ab in itertools.combinations(u_star, 2))
        if not any(w < u_star and ix.stable >> ix.bit[w] & 1 for w in rivals):
            return 1 << ix.bit[rotate((1, l, m), j, k)]
    return None


def matching_C(k: int, v) -> list[FamilyMatching]:
    """The nonempty blocks of the fiber of the unstable vertex v, each a
    perfect acyclic matching, in the lex order of u* in v's frame.

    With (l, j) = ``unstable_rep(v, k)``, the block of a stable u off {1,
    2, l} holds the faces of ``s`` that hold v, no unstable member before
    v, and whose missed set, rotated by -j, has u as its lex-least stable
    triple.  They miss u* = u rotated by j, so their other members are
    triples off u* that are stable or lie after v: the block is read off
    their ``wedge.subset_table``, started with v covered, at the bytes
    whose missed set reads u, with v as the top bit of every face.  One
    ``toggle_run`` stage on ``c_toggle``'s triple matches it.
    """
    vt = graphs.check_vertex(v, k)
    ix, full = graphs.triple_index(k), (1 << graphs.ground_size(k)) - 1
    frame = l, j = unstable_rep(vt, k)  # a stable v has none: ValueError
    least, vbit, vmask = _least(k, ix.stable), ix.bit[vt], graphs.vertex_mask(vt)
    blocks = []
    for b, u in enumerate(ix.triples):
        if not ix.stable >> b & 1 or ix.ground[b] & graphs.vertex_mask((1, 2, l)):
            continue
        u_star, umask = rotate(u, j, k), graphs.vertex_mask(rotate(u, j, k))
        support, digits = graphs.ground_elements(full & ~umask), bytearray(b"0" * 256)
        free = [x for x in support if x not in vt]
        for extra in itertools.chain.from_iterable(itertools.combinations(free, r)
                                                   for r in range(len(free) + 1)):
            if least[_turn(full & ~(vmask | graphs.vertex_mask(extra)), j, k)] == b:
                byte = sum(1 << support.index(x) for x in vt + extra)
                digits[byte] = digits[byte | 0x80] = ord("1")
        fam = wedge.subset_table(k, u_star, tuple(t for c, t in enumerate(ix.triples) if c != vbit
                                                  and not ix.ground[c] & umask
                                                  and (ix.stable >> c & 1 or c > vbit)), vt)
        faces = bitset(fam.cover, bytes(digits)) << (1 << len(fam.triples))
        if not faces:
            continue
        x = c_toggle(k, frame, umask)
        toggle = ix.triples[x.bit_length() - 1] if x else None  # none in the table: every face survives
        toggles = [fam.triples.index(toggle)] if toggle in fam.triples else []
        block = FamilyMatching(k, u_star, fam.triples + (vt,), Bits(faces),
                               StagePairs(wedge.toggle_run(faces, toggles)[0]), [])
        wedge.certify(block, _tag(('C', vt), k, u_star=u_star))
        blocks.append(block)
    return blocks


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
    """``fibers`` maps each nonempty A, B and C label to its parts: the
    family's matching, or the fiber's blocks; ``critical`` is ``sg``,
    ascending."""
    k: int
    records: list[VerificationRecord]
    critical: list
    fibers: dict
    poset_map_route: str
    partition_route: str


def _fiber_tag(label) -> str:
    if label[0] == 'C':
        return "C v=%s" % ("".join(map(str, label[1])),)
    return "%s s=%d %s=%d" % (label[0], label[1], "t" if label[0] == 'A' else "u", label[2]) \
        if label[0] in ('A', 'B') else "SG"


def _tag(label, k: int, sigma: int = 0, u_star=None) -> str:
    """A witness's fiber and, for a C-fiber, its block: ``u_star``, or the
    one that the missed set of the face ``sigma`` reads in v's frame."""
    if label[0] != 'C':
        return "fiber " + _fiber_tag(label)
    if sigma and not graphs.is_stable(label[1], k):  # a stable v has no frame
        ix, j = graphs.triple_index(k), unstable_rep(label[1], k)[1]
        missed = ((1 << graphs.ground_size(k)) - 1) & ~remap(sigma, ix.ground)
        b = _least(k, ix.stable)[_turn(missed, j, k)]
        u_star = rotate(ix.triples[b], j, k) if b >= 0 else None
    return "fiber %s, block u*=%s" % (_fiber_tag(label), "".join(map(str, u_star)) if u_star else "none")


def _partition_witness(k: int, fibers: dict, sg: list) -> str:
    """A face of s matched in no part or in two, or a matched face off s,
    with its parts; the faces are listed on this failure path alone."""
    ix = graphs.triple_index(k)
    s = complexes.complex_for('s', k).all_faces()
    held = {f: ["sg"] for f in sg}
    for label, fm in ((label, fm) for label, parts in fibers.items() for fm in parts):
        table, (low, up) = [1 << ix.bit[t] for t in fm.triples], fm.pairs.bitsets()
        for face in (remap(f, table) for f in Bits(low | up)):
            held.setdefault(face, []).append(_tag(label, k, face))
    face = min(f for f in s | held.keys() if len(held.get(f, ())) != (f in s))
    return "face %r %s lies in %d parts [%s]" % (
        decode(face, ix.triples), "of s" if face in s else "off s", len(held.get(face, ())),
        " / ".join(held.get(face) or [_tag(classify(face, k), k, face)]))


def theorem2_matching(k: int) -> CollapseReport:
    """Build the collapse matching at parameter k and certify Theorem 2.

    The parts are the A- and B-families of one ``graphs.missed_lattice``
    walk and the blocks of every C-fiber, each checked as it is built.
    Containment lemma: every part lies in ``s`` (a block's faces miss u*,
    a stable triple; an A- or B-face misses an unstable triple adjacent to
    all its members), and no two parts, nor a part and ``sg``, share a
    face, as their labels differ.  The Cluster Lemma then needs: every face
    of ``sg`` classifies as SG; the classifier is order-preserving, proved
    on the same walk by ``check_label_order`` (``poset_map_route``); and
    ``sg`` with the faces the parts match count the faces of ``s``, read
    off ``all_faces`` (``partition_route``), so by the lemma every part is
    perfectly matched and they partition ``s``.  The union of the parts'
    acyclic matchings then leaves exactly ``sg`` critical.  A failed check
    raises ``MatchingError`` naming a decoded face, its fiber and block.
    """
    ix = graphs.triple_index(k)
    sg = sorted(complexes.complex_for('sg', k).all_faces())
    for f in sg:
        if classify(f, k) != ('SG',):
            raise MatchingError("face %r of sg classifies into [%s], not as SG"
                                % (decode(f, ix.triples), _tag(classify(f, k), k, f)))
    shapes = graphs.missed_lattice(k)
    check_label_order(k, shapes)
    fibers: dict = {}
    for shape in shapes:
        part = isinstance(shape, tuple) and (matching_A, matching_B)[shape[0] - 3](k, *shape[1:])
        if part:
            fibers[_stable_label(shape)] = [part]
    for b, v in enumerate(ix.triples):
        blocks = [] if ix.stable >> b & 1 else matching_C(k, v)
        if blocks:
            fibers[('C', v)] = blocks
    cells = len(complexes.complex_for('s', k).all_faces())
    counted = len(sg) + sum(2 * len(fm.pairs) for parts in fibers.values() for fm in parts)
    if counted != cells:
        raise MatchingError("sg and the parts' matched faces count %d faces, s has %d: %s"
                            % (counted, cells, _partition_witness(k, fibers, sg)))
    records = [VerificationRecord("sg-matching", k, "SG", len(sg), 0, True, False, len(sg))]
    for label, parts in sorted(fibers.items(), key=lambda item: label_key(item[0], k)):
        faces, pairs = sum(len(fm.faces) for fm in parts), sum(len(fm.pairs) for fm in parts)
        records.append(VerificationRecord("%s-matching" % label[0].lower(), k, _fiber_tag(label), faces,
                                          pairs, True, True, faces - 2 * pairs))
    records.append(VerificationRecord("s3k-collapse", k, "all", cells, sum(r.pairs for r in records),
                                      True, False, len(sg)))
    return CollapseReport(k, records, sg, fibers, poset_map_route='lattice', partition_route='count')
