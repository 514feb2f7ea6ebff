"""Layer matchings on the full Kneser complex and the sphere count.

The neighborhood complex of the full triple graph is filtered by three
nested subcomplexes: the stable-graph complex, the mixed-graph complex,
and the mixed complex together with every face missing exactly four
ground elements.  A face lies in the mixed complex exactly when all of
its members are stable or a stable triple fits inside the missed part
of the ground set, so a face outside it misses three or four elements
and the missed set contains no stable triple: it is an adjacent pair
{i, i+1} plus one more element j, or two disjoint adjacent pairs
{i, i+1} and {j, j+1} (pairs may wrap, runs of three or four read as
the shape starting at the lower pair, see ``graphs.missed_shape``).

Grouping the outside faces by their missed set gives the families
matched here.  Each family splits along the lex-least unstable member
of a face; inside one such sub-fiber a fixed list of toggle triples is
applied in lex order, pairing a face with its toggle partner whenever
both sides are still free.  What survives each run is empty or a single
closed-form cell, one per label in ``c_set``.  Families with a missed
pair other than {1, 2} are rotated copies of a {1, 2} family, and the
four-element families pull back, along the rotation that moves the
second pair onto {k+5, k+6}, to three-element families one parameter
down; ``transport`` moves a verified family along such a rotation and
certifies the move for every face at once.  ``collapse`` builds the
all-stable A- and B-families of Theorem 2 with the same ``family_faces``,
``toggle_run`` and ``transport``.  Summing the survivors over
all families counts the spheres in the wedge: t = (k+1)(k+3)(k+4)(k+6)/4
+ 1 of dimension k after the final free collapse, which
``theorem3_counts`` reports together with a mechanical census of every
family.

Faces of one family are bitmasks over the triples inside the family
support (lex ordered in a family built directly), and a set of them is a
big-int bitset over the family's subset table, bit f standing for face f:
the faces, each sub-fiber, each toggle stage and the survivors are single
ints, so the build and its checks are a few big-int operations per fiber
and per toggle, and nothing lists the faces or the pairs.  The filtration
stages, like every complex, hold masks over ``graphs.triple_index(k)``; a
family reaches that index through one ``remap`` table per family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import graphs
from .complexes import NbhdComplex, complement_set, complex_for, decode, face_key, remap
from .graphs import (index_I, index_J, missed_shape, p_complement, pullback,
                     q_complement, unstable_rep, vertex_mask)
# element_matching (called through morse by collapse) and is_cover have no
# caller here, but perfbench's tracer counts them in every module that binds
# them and its self-test expects these bindings
from .morse import (Bits, Matching, MatchingError, PairError, StagePairs, bitset,  # noqa: F401
                    element_matching, is_acyclic, is_cover, members, nobit)

# Most triples a family support may span, since the subset table has
# 2^SCAN_BITS entries.  A three-element family leaves a support of k+3
# elements, hence C(k+3,3) triples: 20 at k = 3 and 35 at k = 4, so the
# scan, and with it the census, stops at CENSUS_CAP = 3.
SCAN_BITS = 22
CENSUS_CAP = max(k for k in range(SCAN_BITS) if math.comb(k + 3, 3) <= SCAN_BITS)


def level1_contains(sigma: int, k: int) -> bool:
    """Membership in the mixed-graph complex, via the missed set.

    A face of the full complex lies in the complex of the mixed graph iff
    all of its members are stable (any triple inside the missed set is then
    a common neighbor there) or some stable triple avoids its support (that
    triple is a common stable neighbor).  Cheaper than an is_face query and
    independent of it; the two are compared in the tests.
    """
    if not sigma:
        raise ValueError("the empty face belongs to every stage")
    comp = complement_set(sigma, k)
    if len(comp) < 3:
        raise ValueError("%r misses only %d ground elements; not a face of the full complex"
                         % (decode(sigma, graphs.triple_index(k).triples), len(comp)))
    if not sigma & ~graphs.triple_index(k).stable:
        return True
    return missed_shape(vertex_mask(comp), k) is True


def _level2_extras(k: int) -> list[int]:
    """Generating faces added at the middle stage: per missed 4-set with no
    stable triple inside (two disjoint adjacent pairs), all triples avoiding
    it.  Missed 4-sets containing a stable triple add nothing new."""
    n = graphs.ground_size(k)
    out = []
    for i, j in q_indices(k):
        miss = q_complement(k, i, j)
        support = [x for x in range(1, n + 1) if x not in miss]
        face = face_key(itertools.combinations(support, 3), k)
        if face:
            out.append(face)
    return out


def filtration(k: int, level: int) -> NbhdComplex:
    """The four nested complexes over ground set [k+6].

    Level 0 is the complex of the stable-only graph, level 1 the complex of
    the mixed graph, level 3 the full complex.  Level 2 sits in between:
    level 1 plus every face of the full complex that misses exactly four
    ground elements.
    """
    if level not in (0, 1, 2, 3):
        raise ValueError("level must be one of 0..3, got %r" % (level,))
    return _filtration(k, level)


@lru_cache(maxsize=None)
def _filtration(k: int, level: int) -> NbhdComplex:
    if level == 0:
        return complex_for('sg', k)
    if level == 1:
        return complex_for('s', k)
    if level == 3:
        return complex_for('kg', k)
    base = complex_for('s', k)
    gens = base.maximal + _level2_extras(k)
    return NbhdComplex.from_maximal(k, gens)


class PQTag(NamedTuple):
    """Which family a face outside the mixed complex belongs to."""
    family: str   # 'P' misses three ground elements, 'Q' misses four
    i: int        # the missed adjacent pair is {i, i+1} (cyclically)
    j: int        # the third missed element ('P') or start of the second pair ('Q')
    fiber: tuple  # lex-least unstable member, the sub-fiber label


def pq_classify(sigma: int, k: int) -> PQTag:
    """Locate a face of the full complex outside the mixed one.

    The missed set determines (family, i, j) uniquely: runs of three or
    four are read starting at the lower adjacent pair, and any other shape
    would put the face inside level 1 or break the partition, which raises.
    """
    if not sigma:
        raise MatchingError("the empty face carries no tag")
    ix = graphs.triple_index(k)
    comp = complement_set(sigma, k)
    if len(comp) < 3:
        raise MatchingError("%r misses only %d ground elements; not a face of the full complex"
                            % (decode(sigma, ix.triples), len(comp)))
    shape = missed_shape(vertex_mask(comp), k)
    unstable = sigma & ~ix.stable
    if shape is True or not unstable:
        raise MatchingError("%r lies in the mixed complex; the families cover only the outside"
                            % (decode(sigma, ix.triples),))
    if shape is None:
        if len(comp) == 3:
            raise MatchingError("missed set %r holds no adjacent pair; the partition is broken"
                                % (comp,))
        if len(comp) == 4:
            raise MatchingError("missed set %r is not two disjoint adjacent pairs; the partition is broken"
                                % (comp,))
        raise MatchingError("missed set %r has five or more elements yet no stable triple" % (comp,))
    least = ix.triples[(unstable & -unstable).bit_length() - 1]
    return PQTag('P' if shape[0] == 3 else 'Q', shape[1], shape[2], least)


def _validate_j1(j: int, k: int) -> None:
    if j not in index_I(1, k):
        raise ValueError("j=%r cannot accompany the pair {1, 2} at k=%d" % (j, k))


def nc_set(j: int, k: int) -> list[tuple]:
    """Sub-fiber labels whose toggle run clears the sub-fiber completely.

    Generated straight from the shape, so tests can compare it with the
    case classifier: {q, s-1, s} with q in 4..k+4 and s in q+2..k+6, both
    avoiding {j, j+1}.
    """
    _validate_j1(j, k)
    n = graphs.ground_size(k)
    out = []
    for q in range(4, k + 5):
        if q in (j, j + 1):
            continue
        for s in range(q + 2, n + 1):
            if s in (j, j + 1):
                continue
            out.append((q, s - 1, s))
    return sorted(out)


def c_set(j: int, k: int) -> list[tuple]:
    """Sub-fiber labels that keep one critical cell: the unstable triples
    avoiding {1, 2, j} that do not fall in ``nc_set``.  There are
    (k+1)(k+2)/2 of them for every admissible j."""
    _validate_j1(j, k)
    ncs = set(nc_set(j, k))
    return sorted(t for t in graphs.all_triples(k)
                  if not graphs.is_stable(t, k)
                  and not set(t) & {1, 2, j}
                  and t not in ncs)


def w_case(v, j: int, k: int) -> str:
    """Which toggle-list shape the sub-fiber of label v takes.

    'blocked'  v meets {1, 2, j}: the sub-fiber is empty.
    'cleared'  v = {q, s, s+1}, q not 3 or j+1: the run matches everything.
    'low-run'  v = {3, s, s+1}: one survivor.
    'after-j'  v = {j+1, s, s+1}: one survivor.
    'split'    v = {q, q+1, s} with s > q+2: one survivor.

    The three surviving shapes are exactly the labels of ``c_set``, the
    cleared shape is ``nc_set``.
    """
    t = graphs.check_vertex(v, k)
    if graphs.is_stable(t, k):
        raise ValueError("%r is stable; sub-fibers are labelled by unstable triples" % (v,))
    _validate_j1(j, k)
    if set(t) & {1, 2, j}:
        return 'blocked'
    s1, s2, s3 = t
    if s3 == s2 + 1:
        if s1 == 3:
            return 'low-run'
        if s1 == j + 1:
            return 'after-j'
        return 'cleared'
    # 1 is never a member here, so the adjacent pair cannot wrap and must
    # sit at the bottom of the triple
    if s2 != s1 + 1:
        raise AssertionError("unstable %r has no adjacent pair" % (v,))
    return 'split'


def w_set(v, j: int, k: int) -> tuple:
    """The toggle list of one sub-fiber, lex sorted.

    Every toggle avoids {1, 2, j} and exceeds v, so applying it neither
    leaves the family support nor changes the lex-least unstable member.
    The base shape is {t, s2, s3} for the free third elements t; 'cleared'
    adds toggles {t, s1, s3} for small t and 'after-j' adds {t, j+1, s3}
    (which drop s2), the arms that sweep away what the base shape misses.
    """
    case = w_case(v, j, k)
    n = graphs.ground_size(k)
    s1, s2, s3 = graphs.check_vertex(v, k)
    out: list[tuple] = []
    if case == 'cleared':
        skip = set(range(1, s1 + 1)) | {j, s2, s3}
        out += [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in skip]
        out += [(t, s1, s3) for t in range(3, s1 - 1) if t != j]
    elif case == 'low-run':
        skip = {1, 2, 3, j, s2, s3}
        out += [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in skip]
    elif case == 'after-j':
        skip = set(range(1, j + 2)) | {s2, s3}
        out += [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in skip]
        out += [(t, j + 1, s3) for t in range(3, j)]
    elif case == 'split':
        skip = {1, 2, j, s1, s2, s3}
        out += [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in skip]
    else:
        return ()
    ws = sorted(set(out))
    if len(ws) != len(out):
        raise AssertionError("duplicate toggles for label %r" % (v,))
    return tuple(ws)


def critical_form(v, j: int, k: int) -> tuple | None:
    """The survivor of the toggle run of label v, in closed form.

    None when the run clears the sub-fiber or the sub-fiber is empty.
    'low-run' and 'split' keep every triple {t, s2, s3} with t free;
    'after-j' keeps {t, j+1, s3} for t below j together with {t, s2, s3}
    for t above j.  Always k+1 members, a cell of dimension k.
    """
    case = w_case(v, j, k)
    n = graphs.ground_size(k)
    s1, s2, s3 = graphs.check_vertex(v, k)
    if case in ('low-run', 'split'):
        skip = {1, 2, j, s2, s3}
        cell = [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in skip]
    elif case == 'after-j':
        cell = [(t, j + 1, s3) for t in range(3, j)]
        cell += [tuple(sorted((t, s2, s3))) for t in range(j + 1, n + 1) if t not in (s2, s3)]
    else:
        return None
    cell.sort()
    if len(cell) != k + 1:
        raise AssertionError("closed form for %r has %d members, wanted %d" % (v, len(cell), k + 1))
    return tuple(cell)


class FamilyFaces(NamedTuple):
    """One family enumerated over its subset table.

    Bit b of a face stands for ``triples[b]``; ``unstable`` collects the
    bits whose triple is unstable.  ``cover[s]`` is one byte per subset s
    of the universe: bit i for each support element (in ascending order)
    that a triple of s covers, plus bit 7 when s holds an unstable bit.
    ``faces`` is a ``morse.Bits`` view of the family and ``full`` the
    bitset of every subset that covers the support, unstable or not.
    """
    triples: tuple
    unstable: int
    faces: Bits
    cover: bytearray
    full: int


_IDENTITY = int.from_bytes(bytes(range(256)), 'big')
_ONES = int.from_bytes(bytes([1]) * 256, 'big')


def _or_table(e: int) -> bytes:
    """The ``translate`` table that ors the byte ``e`` into every byte: the
    identity table with ``e`` or-ed into each of its 256 bytes at once."""
    return (_IDENTITY | e * _ONES).to_bytes(256, 'big')


def _digits(*hits: int) -> bytes:
    """The ``translate`` table that turns the bytes ``hits`` into the digit
    "1" and every other byte into "0", for ``morse.bitset``."""
    return bytes(b"01"[v in hits] for v in range(256))


def family_faces(k: int, cset: Iterable[int]) -> FamilyFaces:
    """Every face missing exactly ``cset`` that has an unstable member.

    One byte per subset of the universe is built by doubling, one triple
    at a time: after triple b the table holds every subset of bits 0..b,
    the new upper half being the lower half with triple b added, one
    ``translate`` per doubling.  The byte of the bit set s holds the
    support positions its triples cover, plus bit 7 when s holds an
    unstable bit.  One more ``translate`` and one base-2 parse each read
    the bitset of the subsets whose byte holds every position (``full``)
    and of those that also hold bit 7 (``faces``).  The missed set must
    contain no stable triple, otherwise the family would sit inside the
    mixed complex and be empty here.  The subset table is exponential in
    the number of triples of the support, hence the hard cap of
    ``SCAN_BITS``, which also keeps the support within 6 elements, so the
    positions stay clear of bit 7.
    """
    n = graphs.ground_size(k)
    cs = sorted(set(cset))
    if not cs or cs[0] < 1 or cs[-1] > n:
        raise ValueError("missed set %r leaves the ground set 1..%d" % (cset, n))
    if missed_shape(vertex_mask(cs), k) is True:
        raise ValueError("missed set %r contains a stable triple; that family is empty" % (cset,))
    support = [x for x in range(1, n + 1) if x not in cs]
    triples = tuple(itertools.combinations(support, 3))
    m = len(triples)
    if m > SCAN_BITS:
        raise ValueError("support of %d elements spans %d triples; subset scan beyond %d bits refused"
                         % (len(support), m, SCAN_BITS))
    pos = {x: 1 << i for i, x in enumerate(support)}
    unstable = 0
    table = bytearray(1)
    for b, t in enumerate(triples):
        e = pos[t[0]] | pos[t[1]] | pos[t[2]]
        if not graphs.is_stable(t, k):
            unstable |= 1 << b
            e |= 0x80
        table += table.translate(_or_table(e))
    whole = (1 << len(support)) - 1
    faces = bitset(table, _digits(whole | 0x80))
    full = bitset(table, _digits(whole, whole | 0x80))
    return FamilyFaces(triples, unstable, Bits(faces), table, full)


def split_fibers(fam: FamilyFaces) -> dict[int, int]:
    """Family faces keyed by the bit of their lex-least unstable member.

    The fibers are peeled in ascending bit order: the faces still left that
    hold the next unstable bit u, ``rest & ~nobit[u]``, form its fiber, a
    bitset, and the rest go on to the next bit.  Bit order agrees with lex
    order on triples, so ascending keys walk the sub-fibers in the order
    the labels are processed.  Empty sub-fibers do not appear.
    """
    masks = nobit(len(fam.triples))
    fibers: dict[int, int] = {}
    rest = fam.faces.bits
    for u in members(fam.unstable):
        if not rest:
            break
        fiber = rest & ~masks[u]
        if fiber:
            fibers[u] = fiber
            rest ^= fiber
    return fibers


def toggle_run(faces: int, toggles: Iterable[int]) -> tuple[list, int]:
    """Run the element matchings of an ordered list of toggle bits on the
    bitset ``faces``.

    Stage b pairs a face holding bit b with the face without it when both
    are still unmatched; later stages only see the leftovers, so the first
    t stages of a run are the run of ``toggles[:t]``.  A stage is a few
    big-int operations: its upper faces are ``up = F & ~nobit[b] & ((F &
    nobit[b]) << 2^b)``, and ``F ^= up | up >> 2^b`` drops them with their
    lower faces.  Returns (stages, survivors): the stages (b, up) in toggle
    order, one per toggle, for ``morse.StagePairs``, and the bitset of the
    faces left.  The stages are not validated here: the caller checks
    their union once as a whole.
    """
    masks = nobit(max(faces.bit_length() - 1, 0).bit_length())
    stages = []
    for b in toggles:
        up = 0
        if b < len(masks):
            lows = faces & masks[b]
            up = (faces ^ lows) & lows << (1 << b)
            faces ^= up | up >> (1 << b)
        stages.append((b, up))
    return stages, faces


@dataclass
class FamilyMatching:
    """An acyclic matching on one family, or on one part of an A- or
    B-family of ``collapse``, which matches those families in parts.

    ``triples`` is the bit dictionary of the masks in ``faces``, ``pairs``
    and ``critical``: lex ordered in a family built directly, and the image
    of the base's dictionary in a family moved by ``transport``, which
    shares the base's masks.  ``faces`` is a ``morse.Bits`` view and
    ``pairs`` a ``morse.StagePairs`` view, so ``len`` on either is a
    popcount and neither is listed unless iterated: the faces ascending,
    the pairs fiber by fiber, stage by stage, ascending within a stage.
    ``critical`` lists the survivors, fiber by fiber.  A family built
    directly is checked in full (residue identity, closed-form survivors,
    and one ``Matching`` over the union of its toggle runs, which validates
    every pair once before the acyclicity check of the whole family); a
    transported one is covered by the certificate of ``transport``.
    """
    k: int
    family: str
    i: int
    j: int
    cset: tuple
    triples: tuple
    faces: Bits
    pairs: StagePairs
    critical: list

    def decode(self, mask: int) -> tuple:
        return decode(mask, self.triples)

    def decoded_critical(self) -> list[tuple]:
        return [self.decode(c) for c in self.critical]


def matching_P(k: int, i: int, j: int) -> FamilyMatching:
    """Acyclic matching on the family missing {i, i+1, j}.

    For i = 1 the family is built directly: it splits along lex-least
    unstable members and every sub-fiber runs its toggle list, leaving one
    closed-form cell per ``c_set`` label, (k+1)(k+2)/2 cells of dimension
    k in total.  The build checks every cleared run against the direct
    residue identity, every survivor against its closed form, and then
    the union of all runs at once: every pair covers, no face is matched
    twice, every pair stays inside the family, and the whole matching is
    acyclic.  Other i are the i = 1 family with the matching j, moved by
    ``transport`` along the rotation by i - 1, whose certificate covers
    every face of the rotated family.
    """
    cset = p_complement(k, i, j)
    if i == 1:
        return _matching_p1(k, j, cset)
    jp, shift = unstable_rep(cset, k)  # shift = i-1
    base = _matching_p1(k, jp, p_complement(k, 1, jp))
    return transport(base, k, 'P', i, j, cset, shift)


def _matching_p1(k: int, j: int, cset: tuple) -> FamilyMatching:
    fam = family_faces(k, cset)
    idx = {t: b for b, t in enumerate(fam.triples)}
    masks = nobit(len(fam.triples))
    retain = set(c_set(j, k))
    clear = set(nc_set(j, k))
    stages: list = []
    criticals: list = []
    present: set = set()
    # lose[b]: the faces holding b whose facet without b misses part of
    # the support, ~nobit[b] & ~((full & nobit[b]) << 2^b)
    lose: dict[int, int] = {}
    for u, fiber in split_fibers(fam).items():
        v = fam.triples[u]
        present.add(v)
        toggles = []
        for w in w_set(v, j, k):
            b = idx.get(w)
            if b is None:
                raise MatchingError("toggle %r of label %r leaves the support of %r" % (w, v, cset))
            toggles.append(b)
        run, residue = toggle_run(fiber, toggles)
        # direct residue identity: a survivor holds every toggle and loses
        # full coverage as soon as any one toggle is removed
        ident = fiber
        for b in toggles:
            if b not in lose:
                lose[b] = ~masks[b] & ~((fam.full & masks[b]) << (1 << b))
            ident &= lose[b]
        if residue != ident:
            diff = residue ^ ident
            raise MatchingError("toggle run of label %r disagrees with the residue identity at %r (j=%d)"
                                % (v, decode((diff & -diff).bit_length() - 1, fam.triples), j))
        # the survivors are checked as a bitset and listed only to report
        if v in retain:
            want = critical_form(v, j, k)
            bits = [idx.get(w) for w in want or ()]
            if not bits or None in bits or residue != 1 << sum(1 << b for b in bits):
                decoded = [decode(f, fam.triples) for f in members(residue)]
                raise MatchingError("label %r kept %r instead of its closed form %r (j=%d)"
                                    % (v, decoded, want, j))
            criticals.append(residue.bit_length() - 1)
        elif v in clear:
            if residue:
                raise MatchingError("label %r should clear but kept %d cells (j=%d)"
                                    % (v, residue.bit_count(), j))
        else:
            raise MatchingError("label %r owns a sub-fiber yet is neither kind (j=%d)" % (v, j))
        stages.extend(run)
    if not retain <= present:
        raise MatchingError("labels %r should retain a cell but own no face (j=%d)"
                            % (sorted(retain - present), j))
    pairs = StagePairs(stages)
    if 2 * len(pairs) + len(criticals) != len(fam.faces):
        raise MatchingError("matched pairs and critical cells do not partition the family (j=%d)" % (j,))
    result = FamilyMatching(k, 'P', 1, j, cset, fam.triples, fam.faces, pairs, criticals)
    # the subset table is not needed past this point; drop every reference
    # to it before the DFS
    del fam, lose
    # the union is the only place the pairs are validated as a matching:
    # as StagePairs it takes the bitset layout, checked in bulk (every
    # upper face holds its toggle bit, no face is used twice), and only a
    # union that fails is replayed pair by pair to name the first bad pair
    try:
        matching = Matching(pairs)
    except PairError as e:
        raise MatchingError("family (1, %d) pairs: %s, decoded %r"
                            % (j, e, [result.decode(f) for f in e.faces])) from e
    # every pair stays inside the family: its faces, read once the stages
    # are valid, are family faces
    low, up = pairs.bitsets()
    outside = (low | up) & ~result.faces.bits
    if outside:
        raise MatchingError("family (1, %d) pairs face %r, which lies outside the family"
                            % (j, result.decode((outside & -outside).bit_length() - 1)))
    ok, cyc = is_acyclic(matching)
    if not ok:
        raise MatchingError("family (1, %d) matching has a directed cycle through %r"
                            % (j, [result.decode(a) for a, _ in cyc[:3]]))
    return result


def transport(base: FamilyMatching, k: int, family: str, i: int, j: int,
              cset: tuple, shift: int) -> FamilyMatching:
    """Move a verified family, or one part of it, along the rotation by
    ``shift`` mod k+6.

    The masks of ``base`` (faces, pairs, critical cells) are shared
    unchanged; only the bit dictionary is relabelled, bit b standing for
    the image of ``base.triples[b]``.  The move is certified for every face
    at once by two checks.  The ground map sends the base support, read in
    the base frame ``base.k``, onto [k+6] minus ``cset``, so it carries the
    triples of one support bijectively onto those of the other and a set of
    triples covers the base support iff its image covers the target.  And
    every bit keeps its stability across the two frames, so a P or Q face
    keeps an unstable member and an A or B face (``collapse``) stays
    all-stable.  Together they make the relabelling a bijection of the
    base family onto the family missing ``cset`` that preserves inclusion
    and dimension: covering pairs stay covering, the modified Hasse
    digraph is only renamed, so acyclicity and the critical cells carry
    over.  Either check failing raises ``MatchingError`` naming
    (family, i, j).
    """
    support = [x for x in range(1, graphs.ground_size(base.k) + 1) if x not in base.cset]
    image = sorted(graphs.rotate(x, shift, k) for x in support)
    if image != [x for x in range(1, graphs.ground_size(k) + 1) if x not in cset]:
        raise MatchingError("family (%s, %d, %d): rotation by %d sends the support %r to %r, "
                            "not onto the complement of %r" % (family, i, j, shift, support, image, cset))
    triples = tuple(graphs.rotate(t, shift, k) for t in base.triples)
    for t, u in zip(base.triples, triples):
        if graphs.is_stable(t, base.k) != graphs.is_stable(u, k):
            raise MatchingError("family (%s, %d, %d): triple %r at k=%d moves to %r at k=%d "
                                "and changes stability" % (family, i, j, t, base.k, u, k))
    return FamilyMatching(k, family, i, j, cset, triples, base.faces, base.pairs, base.critical)


def matching_Q(k: int, i: int, j: int) -> FamilyMatching:
    """Acyclic matching on the family missing {i, i+1} and {j, j+1}.

    Rotating by k+5-j moves the second pair onto {k+5, k+6}; every member
    of a rotated face then avoids the top two ground elements, and a triple
    inside [k+4] is stable mod k+6 iff it is stable mod k+5, so the rotated
    faces are exactly the faces of a three-element family one parameter
    down (missed set the image of {i, i+1, j, j+1} minus k+6, which always
    reads as an adjacent pair plus one element).  The matching is that
    family's, moved back by ``transport``: k(k+1)/2 critical cells of
    dimension k-1.  The certificate of ``transport`` checks both claims
    above for every triple of the support, so it covers every face.
    """
    if k < 1:
        raise ValueError("every four-element missed set at k=0 leaves a two-point support; "
                         "the families are empty and carry no matching")
    cset = q_complement(k, i, j)
    sub_i, sub_j, shift = pullback(k, i, j)
    return transport(matching_P(k - 1, sub_i, sub_j), k, 'Q', i, j, cset, -shift)


def label_order_I(i: int, k: int) -> list[int]:
    """The admissible third elements for the pair {i, i+1} in processing
    order: starting at i+2 and walking the cycle round to i-2.  Reports and
    census rows use this order; nothing else depends on it."""
    n = graphs.ground_size(k)
    js = [(i + 1 + t) % n + 1 for t in range(n - 3)]
    if sorted(js) != index_I(i, k):
        raise AssertionError("label order walked off the admissible set for i=%d" % (i,))
    return js


def p_indices(k: int) -> list[tuple[int, int]]:
    """All (i, j) of three-element families in processing order; there are
    (k+3)(k+6) of them."""
    n = graphs.ground_size(k)
    out = [(i, j) for i in range(1, n + 1) for j in label_order_I(i, k)]
    if len(out) != (k + 3) * (k + 6):
        raise MatchingError("found %d three-element families, wanted (k+3)(k+6) = %d"
                            % (len(out), (k + 3) * (k + 6)))
    return out


def q_indices(k: int) -> list[tuple[int, int]]:
    """All (i, j) of four-element families in processing order; there are
    (k+3)(k+6)/2 of them."""
    out = [(i, j) for i in range(1, k + 5) for j in index_J(i, k)]
    want, rem = divmod((k + 3) * (k + 6), 2)
    if rem:
        raise AssertionError("(k+3)(k+6) is odd at k=%d" % (k,))
    if len(out) != want:
        raise MatchingError("found %d four-element families, wanted (k+3)(k+6)/2 = %d"
                            % (len(out), want))
    return out


def _to_index(fm: FamilyMatching, pairs: list, crit: list) -> None:
    """Append the pairs and critical cells of a family, remapped from its
    local bits onto the per-k index, to ``pairs`` and ``crit``."""
    bit = graphs.triple_index(fm.k).bit
    table = [1 << bit[t] for t in fm.triples]
    pairs.extend((remap(a, table), remap(b, table)) for a, b in fm.pairs)
    crit.extend(remap(c, table) for c in fm.critical)


def _compose_layer(k: int, pairs: list, crit: list, upper: int, lower: int, tag: str) -> None:
    """Check one whole layer at once: the union of the family matchings is
    acyclic over the faces of the upper stage, and what it leaves unmatched
    is the lower stage plus the counted critical cells."""
    cells = filtration(k, upper).all_faces()
    m = Matching(pairs)
    ok, cyc = is_acyclic(m, cells=cells)
    if not ok:
        triples = graphs.triple_index(k).triples
        raise MatchingError("%s layer matching has a directed cycle through %r"
                            % (tag, [decode(a, triples) for a, _ in cyc[:2]]))
    left = cells - m.matched()
    want = filtration(k, lower).all_faces() | set(crit)
    if left != want:
        raise MatchingError("%s layer survivors are not stage %d plus the counted cells "
                            "(%d unexpected, %d missing)"
                            % (tag, lower, len(left - want), len(want - left)))


def theorem3_counts(k: int, *, census: bool | None = None) -> dict:
    """Closed-form critical-cell counts with a mechanical census.

    Returns a dict with the layer totals and the sphere count they imply:
    ``extra_k_cells`` = (k+1)(k+2)(k+3)(k+6)/2 survivors of dimension k
    outside the middle stage, ``extra_km1_cells`` = k(k+1)(k+3)(k+6)/4 of
    dimension k-1 between the mixed stage and the middle one, and
    ``predicted_t`` = extra_k_cells - extra_km1_cells + 1 =
    (k+1)(k+3)(k+4)(k+6)/4 + 1, the number of k-spheres in the wedge.
    ``rows`` lists (family, i, j, cells, critical, dim) per family.

    With census (the default up to k=3) every family matching is built and
    its critical count compared against the closed form; a mismatch raises
    ``MatchingError`` naming the family.  Each i = 1 family is built and
    checked in full once, then moved onto its rotated copies by
    ``transport``, whose certificate covers every face; the four-element
    families are transported from three-element families one parameter
    down.  Up to k=2 the two layers are also composed and checked for
    acyclicity as single matchings.  Beyond k=3 pass census=False for the
    formula values alone.
    """
    if k < 0:
        raise ValueError("k must be nonnegative, got %r" % (k,))
    if census is None:
        census = k <= CENSUS_CAP
    extra_k = (k + 1) * (k + 2) * (k + 3) * (k + 6)
    if extra_k % 2:
        raise AssertionError("(k+1)(k+2)(k+3)(k+6) is odd at k=%d" % (k,))
    extra_k //= 2
    extra_km1 = k * (k + 1) * (k + 3) * (k + 6)
    if extra_km1 % 4:
        raise AssertionError("k(k+1)(k+3)(k+6) is not a multiple of 4 at k=%d" % (k,))
    extra_km1 //= 4
    predicted = (k + 1) * (k + 3) * (k + 4) * (k + 6)
    if predicted % 4:
        raise AssertionError("(k+1)(k+3)(k+4)(k+6) is not a multiple of 4 at k=%d" % (k,))
    predicted = predicted // 4 + 1
    if predicted != extra_k - extra_km1 + 1:
        raise MatchingError("the layer totals do not telescope to the sphere count at k=%d" % (k,))
    out = {
        'k': k,
        'extra_k_cells': extra_k,
        'extra_km1_cells': extra_km1,
        'predicted_t': predicted,
        'censused': census,
        'rows': [],
        'observed_k_cells': None,
        'observed_km1_cells': None,
    }
    if not census:
        return out
    if k > CENSUS_CAP:
        raise ValueError("the census at k=%d is out of scan budget; pass census=False "
                         "for the formula values" % (k,))
    per_p = (k + 1) * (k + 2) // 2
    per_q = k * (k + 1) // 2
    compose = k <= 2
    p_order = p_indices(k)
    by_base: dict[int, list] = {}
    for i, j in p_order:
        by_base.setdefault(unstable_rep(p_complement(k, i, j), k)[0], []).append((i, j))
    placed: dict[tuple, tuple] = {}
    observed_k = 0
    p_pairs: list = []
    p_crit: list = []
    for jp in label_order_I(1, k):
        base = matching_P(k, 1, jp)
        for i, j in by_base[jp]:
            fm = base if i == 1 else transport(base, k, 'P', i, j, p_complement(k, i, j), i - 1)
            if len(fm.critical) != per_p:
                raise MatchingError("family (P, %d, %d) kept %d cells, wanted %d"
                                    % (i, j, len(fm.critical), per_p))
            placed[(i, j)] = ('P', i, j, len(fm.faces), len(fm.critical), k)
            observed_k += len(fm.critical)
            if compose:
                _to_index(fm, p_pairs, p_crit)
        del base, fm
    if compose:
        _compose_layer(k, p_pairs, p_crit, 3, 2, "top")
    if observed_k != extra_k:
        raise MatchingError("dimension-k survivors total %d, formula says %d" % (observed_k, extra_k))
    rows = [placed[ij] for ij in p_order]
    observed_km1 = 0
    q_pairs: list = []
    q_crit: list = []
    for i, j in q_indices(k):
        if k == 0:
            fam = family_faces(k, q_complement(k, i, j))
            if fam.faces:
                raise MatchingError("family (Q, %d, %d) should be empty at k=0" % (i, j))
            rows.append(('Q', i, j, 0, 0, k - 1))
            continue
        fm = matching_Q(k, i, j)
        if len(fm.critical) != per_q:
            raise MatchingError("family (Q, %d, %d) kept %d cells, wanted %d"
                                % (i, j, len(fm.critical), per_q))
        rows.append(('Q', i, j, len(fm.faces), len(fm.critical), k - 1))
        observed_km1 += len(fm.critical)
        if compose:
            _to_index(fm, q_pairs, q_crit)
    if compose and k >= 1:
        _compose_layer(k, q_pairs, q_crit, 2, 1, "middle")
    if observed_km1 != extra_km1:
        raise MatchingError("dimension-(k-1) survivors total %d, formula says %d"
                            % (observed_km1, extra_km1))
    out['rows'] = rows
    out['observed_k_cells'] = observed_k
    out['observed_km1_cells'] = observed_km1
    return out
