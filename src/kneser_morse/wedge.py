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
of a face; inside one such sub-fiber the toggle triples of
``toggle_plan`` are applied in lex order, pairing a face with its toggle
partner whenever both sides are still free.  One case split on the
label's shape gives the toggles and whether the run keeps a cell, and a
kept cell is always the label with its toggles, one per label in
``c_set``; the other runs clear their sub-fiber.  Every family is a copy of
a {1, 2, l} base, rotated, and for a four-element family first pulled
back one parameter down; ``mover`` names the base and carries it onto the
family by ``transport``, which certifies each move for every face at once;
``certify`` checks the base itself, once.
``collapse`` carries the all-stable A- and B-families of Theorem 2 the
same way.  Summing the survivors over all families counts the spheres in
the wedge: t = (k+1)(k+3)(k+4)(k+6)/4 + 1 of dimension k after the final
free collapse, which ``theorem3_counts`` reports together with a
mechanical census of every family.  ``p_indices`` and ``q_indices``
read the families off ``graphs.missed_lattice``, whose lemma proves on
missed sets, for every face, that each layer's families compose under
the Cluster Lemma.

Faces of one family are bitmasks over the triples inside the family
support (lex ordered in a family built directly), and a set of them is a
big-int bitset over the family's subset table, bit f standing for face f:
the faces, each sub-fiber, each toggle stage and the survivors are single
ints, so the build and its checks are a few big-int operations per fiber
and per toggle, and nothing lists the faces or the pairs.  The filtration
stages, like every complex, hold masks over ``graphs.triple_index(k)``.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from . import graphs
from .complexes import NbhdComplex, complement_set, complex_for, decode, face_key
from .graphs import (missed_shape, p_complement, pullback, q_complement, unstable_rep,
                     vertex_mask)
# element_matching and is_cover have no caller here; they are bound only
# because perfbench's tracer patches every module that binds them and its
# self-test expects these two bindings
from .morse import (Bits, Matching, MatchingError, PairError, StagePairs, bitset,  # noqa: F401
                    element_matching, is_acyclic, is_cover, members, nobit)

# Most triples a family support may span, since the subset table has
# 2^SCAN_BITS entries.  A three-element family leaves a support of k+3
# elements, hence C(k+3,3) triples: 20 at k = 3 and 35 at k = 4, so the
# scan, and with it the census, stops at CENSUS_CAP = 3.
SCAN_BITS = 22
CENSUS_CAP = max(k for k in range(SCAN_BITS) if math.comb(k + 3, 3) <= SCAN_BITS)


def _level2_extras(k: int) -> list[int]:
    """Generating faces added at the middle stage: per missed 4-set with no
    stable triple inside (the double-pair masks of ``graphs.missed_lattice``),
    all triples avoiding it.  Missed 4-sets containing a stable triple add
    nothing new."""
    whole = (1 << graphs.ground_size(k)) - 1
    out = []
    for m, shape in enumerate(graphs.missed_lattice(k)):
        if isinstance(shape, tuple) and shape[0] == 4:
            support = graphs.ground_elements(whole & ~m)
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
    return NbhdComplex(k, gens)


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
    would put the face inside level 1 or off the full complex, which
    raises.
    """
    if not sigma:
        raise MatchingError("the empty face carries no tag")
    ix = graphs.triple_index(k)
    comp = complement_set(sigma, k)
    shape = missed_shape(vertex_mask(comp), k)
    if shape is None:  # under three elements, or a shape graphs.missed_lattice rules out
        raise MatchingError("%r misses %r; no face of the full complex outside the mixed one does"
                            % (decode(sigma, ix.triples), comp))
    unstable = sigma & ~ix.stable
    if shape is True or not unstable:
        raise MatchingError("%r lies in the mixed complex; the families cover only the outside"
                            % (decode(sigma, ix.triples),))
    least = ix.triples[(unstable & -unstable).bit_length() - 1]
    return PQTag('P' if shape[0] == 3 else 'Q', shape[1], shape[2], least)


def toggle_plan(v, j: int, k: int) -> tuple[tuple, bool]:
    """The toggles of the sub-fiber of label v in the (1, j) base, lex
    sorted, and whether its toggle run keeps a cell.

    A label avoids {1, 2, j}, so its adjacent pair cannot wrap and it has
    one of two shapes.  v = {q, q+1, s} with s > q+2 toggles {t, q+1, s}
    for every free t (off {1, 2, j} and v) and keeps a cell.  v = {q, s,
    s+1} toggles {t, s, s+1} for free t > q and {t, q, s+1} for free t
    below q-1, and keeps a cell exactly when q-1 is missed (q = 3 or q =
    j+1); otherwise the second arm sweeps away what the first leaves.  A
    toggle is stable or lex above v, so applying it neither leaves the
    support nor changes the lex-least unstable member, and the kept cell
    is v with all its toggles, k+1 triples.
    """
    t = graphs.check_vertex(v, k)
    if graphs.is_stable(t, k):
        raise ValueError("%r is stable; sub-fibers are labelled by unstable triples" % (v,))
    if not 3 <= j <= k + 5:
        raise ValueError("j=%r cannot accompany the pair {1, 2} at k=%d" % (j, k))
    miss = {1, 2, j}
    if miss & set(t):
        raise ValueError("%r meets the missed set {1, 2, %d}; its sub-fiber is empty" % (v, j))
    a, b, c = t
    free = [x for x in range(1, graphs.ground_size(k) + 1) if x not in miss and x not in t]
    if c != b + 1:  # {q, q+1, s}: b = q+1, c = s
        return tuple(sorted(tuple(sorted((x, b, c))) for x in free)), True
    # {q, s, s+1}: a = q, b = s, c = s+1
    plan = [tuple(sorted((x, b, c))) for x in free if x > a]
    plan += [(x, a, c) for x in free if x < a - 1]
    return tuple(sorted(plan)), a - 1 in miss


def c_set(j: int, k: int) -> list[tuple]:
    """Sub-fiber labels whose ``toggle_plan`` keeps a cell: (k+1)(k+2)/2 of
    the unstable triples avoiding {1, 2, j}, for every admissible j."""
    return sorted(t for t in graphs.all_triples(k)
                  if not graphs.is_stable(t, k) and not set(t) & {1, 2, j}
                  and toggle_plan(t, j, k)[1])


class FamilyFaces:
    """The subset table of a set of triples inside a support.

    Bit b of a face stands for ``triples[b]``; ``unstable`` collects the
    bits whose triple is unstable.  ``cover[s]`` is one byte per subset s:
    bit i for each support element (in ascending order) that the table's
    start or a triple of s covers, plus bit 7 when s holds an unstable bit;
    ``whole`` has the bits of every support element.  ``faces`` is a
    ``morse.Bits`` view of the family (the subsets that cover the support
    and hold an unstable bit) and ``full`` the bitset of every subset that
    covers the support, unstable or not.  Each is read off ``cover`` the
    first time it is asked for, by one ``translate`` and one base-2 parse:
    a C block of ``collapse`` reads its own bytes of the table and neither.
    """

    def __init__(self, triples: tuple, unstable: int, cover: bytearray, whole: int):
        self.triples = triples
        self.unstable = unstable
        self.cover = cover
        self.whole = whole

    @cached_property
    def faces(self) -> Bits:
        return Bits(bitset(self.cover, _digits(self.whole | 0x80)))

    @cached_property
    def full(self) -> int:
        return bitset(self.cover, _digits(self.whole, self.whole | 0x80))


_IDENTITY = int.from_bytes(bytes(range(256)), 'big')
_ONES = int.from_bytes(bytes([1]) * 256, 'big')


def _or_table(e: int) -> bytes:
    """The ``translate`` table that ors the byte ``e`` into every byte: the
    identity table with ``e`` or-ed into each of its 256 bytes at once."""
    return (_IDENTITY | e * _ONES).to_bytes(256, 'big')


@lru_cache(maxsize=None)
def _digits(*hits: int) -> bytes:
    """The ``translate`` table that turns the bytes ``hits`` into the digit
    "1" and every other byte into "0", for ``morse.bitset``."""
    return bytes(b"01"[v in hits] for v in range(256))


def subset_table(k: int, cset: Iterable[int], triples: tuple, covered: tuple = ()) -> FamilyFaces:
    """The subset table of ``triples``, each off the missed set ``cset``:
    every triple of a P- or Q-family support (``family_faces``), the stable
    ones of an A-base, or those a C block of ``collapse`` may add to the
    vertex whose elements are ``covered`` from the start.

    The table starts as one byte holding the ``covered`` positions and
    doubles once per triple: after triple b it holds every subset of bits
    0..b, the new upper half being the lower half with triple b added, one
    ``translate`` per doubling.  The bitsets ``full`` and ``faces`` are
    read off it only when asked for (``FamilyFaces``).  The table is
    exponential in the number of triples, hence the hard cap of
    ``SCAN_BITS``; the support is capped at 7 elements, clear of bit 7.
    """
    n = graphs.ground_size(k)
    cs = sorted(set(cset))
    if not cs or cs[0] < 1 or cs[-1] > n:
        raise ValueError("missed set %r leaves the ground set 1..%d" % (cset, n))
    support = [x for x in range(1, n + 1) if x not in cs]
    if len(triples) > SCAN_BITS or len(support) > 7:
        raise ValueError("support of %d elements spans %d triples; subset scan beyond %d bits or 7 "
                         "elements refused" % (len(support), len(triples), SCAN_BITS))
    pos = {x: 1 << i for i, x in enumerate(support)}
    ix, unstable = graphs.triple_index(k), 0
    table = bytearray([sum(pos[x] for x in set(covered))])
    for b, t in enumerate(triples):
        e = pos[t[0]] | pos[t[1]] | pos[t[2]]
        if not ix.stable >> ix.bit[t] & 1:
            unstable |= 1 << b
            e |= 0x80
        table += table.translate(_or_table(e))
    return FamilyFaces(tuple(triples), unstable, table, (1 << len(support)) - 1)


def family_faces(k: int, cset: Iterable[int]) -> FamilyFaces:
    """The family missing ``cset``: the ``subset_table`` of all its
    triples.  A missed set holding a stable triple is refused: its faces
    lie in the mixed complex."""
    n, cs = graphs.ground_size(k), set(cset)
    if cs <= set(range(1, n + 1)) and missed_shape(vertex_mask(cs), k) is True:
        raise ValueError("missed set %r contains a stable triple; that family is empty" % (cset,))
    return subset_table(k, cset, tuple(itertools.combinations(sorted(set(range(1, n + 1)) - cs), 3)))


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


class FamilyMatching(NamedTuple):
    """An acyclic matching on one family: a P- or Q-family here, or an A-
    or B-family or a C block (v, u*) of ``collapse``, whose ``cset`` is u*.

    ``triples`` is the bit dictionary of the masks in ``faces``, ``pairs``
    and ``critical``: lex ordered in a family built directly, and the image
    of the base's dictionary in a family moved by ``transport``, which
    shares the base's masks.  ``faces`` is a ``morse.Bits`` view and
    ``pairs`` a ``morse.StagePairs`` view, so ``len`` on either is a
    popcount and neither is listed unless iterated: the faces ascending,
    the pairs fiber by fiber, stage by stage, ascending within a stage.
    ``critical`` lists the survivors, fiber by fiber.  Every family built
    directly, a P- or an A-base or a block, is checked by ``certify``; a
    copy moved by ``transport`` by the certificate of the move.
    """
    k: int
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
    """Acyclic matching on the family missing {i, i+1, j}: its {1, 2, l}
    base, built directly and carried by ``mover``.

    The base splits along lex-least unstable members and every sub-fiber
    runs the toggles of its ``toggle_plan``, which keeps one cell, the
    label with its toggles, per ``c_set`` label and clears every other
    sub-fiber: (k+1)(k+2)/2 cells of dimension k in total.  The build
    checks every run against the direct residue identity and its survivors
    against the plan, then the whole family by ``certify``.
    """
    move = mover(k, 'P', i, j)
    return move.carry(_matching_p1(k, move.l))


def _matching_p1(k: int, j: int) -> FamilyMatching:
    where = "family (P, 1, %d) at k=%d" % (j, k)
    cset = p_complement(k, 1, j)
    fam = family_faces(k, cset)
    triples, faces, full, fibers = fam.triples, fam.faces, fam.full, split_fibers(fam)
    # the subset table is read: drop it before the fibers are matched
    del fam
    idx = {t: b for b, t in enumerate(triples)}
    masks = nobit(len(triples))
    stages: list = []
    criticals: list = []
    present: set = set()
    # lose[b]: the faces holding b whose facet without b misses part of
    # the support, ~nobit[b] & ~((full & nobit[b]) << 2^b)
    lose: dict[int, int] = {}
    for u, fiber in fibers.items():
        v = triples[u]
        present.add(v)
        plan, keeps = toggle_plan(v, j, k)
        toggles = []
        cell = 1 << u  # the label with its toggles, the one face a keeping run leaves
        for w in plan:
            b = idx.get(w)
            if b is None:
                raise MatchingError("%s: toggle %r of label %r leaves the support of %r"
                                    % (where, w, v, cset))
            toggles.append(b)
            cell |= 1 << b
        run, residue = toggle_run(fiber, toggles)
        # direct residue identity: a survivor holds every toggle and loses
        # full coverage as soon as any one toggle is removed
        ident = fiber
        for b in toggles:
            if b not in lose:
                lose[b] = ~masks[b] & ~((full & masks[b]) << (1 << b))
            ident &= lose[b]
        if residue != ident:
            diff = residue ^ ident
            raise MatchingError("%s: toggle run of label %r disagrees with the residue identity at %r"
                                % (where, v, decode((diff & -diff).bit_length() - 1, triples)))
        # the survivors are checked as a bitset and listed only to report
        if keeps:
            if residue != 1 << cell:
                decoded = [decode(f, triples) for f in members(residue)]
                raise MatchingError("%s: label %r kept %r instead of itself with its toggles %r"
                                    % (where, v, decoded, decode(cell, triples)))
            criticals.append(cell)
        elif residue:
            raise MatchingError("%s: label %r should clear but kept %d cells"
                                % (where, v, residue.bit_count()))
        stages.extend(run)
    missing = set(c_set(j, k)) - present
    if missing:
        raise MatchingError("%s: labels %r should retain a cell but own no face" % (where, sorted(missing)))
    result = FamilyMatching(k, cset, triples, faces, StagePairs(stages), criticals)
    # full coverage is not needed past this point; drop it before the DFS
    del full, lose
    certify(result, where)
    return result


def certify(fm: FamilyMatching, where: str) -> None:
    """The one check of a built family, all discrete Morse theory asks of it
    (Forman, Adv. Math. 134, 1998): its pairs are a matching, checked in
    bulk by ``Matching``; the matching is acyclic (``is_acyclic``); and its
    lower faces, its upper faces and ``critical`` are pairwise disjoint and
    together exactly ``faces``.  A failure raises ``MatchingError`` naming
    ``where``, the defect and a decoded face."""
    try:
        ok, cycle = is_acyclic(Matching(fm.pairs))
    except PairError as e:
        raise MatchingError("%s: a pair %s at face %r" % (where, e.what, fm.decode(e.faces[0]))) from e
    if not ok:
        raise MatchingError("%s: matched pairs close a cycle at face %r"
                            % (where, fm.decode(cycle[0][0])))
    low, up = fm.pairs.bitsets()
    paired, faces, crit = low | up, fm.faces.bits, 0
    for c in fm.critical:
        if crit >> c & 1:
            raise MatchingError("%s: face %r is listed critical twice" % (where, fm.decode(c)))
        crit |= 1 << c
    stray = (paired ^ crit ^ faces) | (paired & crit)
    if stray:
        f = (stray & -stray).bit_length() - 1
        if crit >> f & 1:
            how = "is critical and paired" if paired >> f & 1 else "is critical but is no face"
        else:
            how = "is paired but is no face" if paired >> f & 1 else "survives the toggle run"
        raise MatchingError("%s: face %r %s" % (where, fm.decode(f), how))


def transport(base: FamilyMatching, k: int, family: str, i: int, j: int,
              cset: tuple, shift: int) -> FamilyMatching:
    """Move a verified family along the rotation by ``shift`` mod k+6.

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
    return FamilyMatching(k, cset, triples, base.faces, base.pairs, base.critical)


class Mover(NamedTuple):
    """The route of the family ``name`` = (kind, i, j) from its base, the
    (1, l) family in frame ``k`` (``l`` None: no base, no face), as
    ``transport`` steps (frame, cset, shift)."""
    name: tuple
    k: int
    l: int | None
    steps: tuple

    def carry(self, base: FamilyMatching) -> FamilyMatching:
        """The base moved onto the family; every certificate error names
        the family."""
        for frame, cset, shift in self.steps:
            base = transport(base, frame, *self.name, cset, shift)
        return base


def mover(k: int, kind: str, i: int, j: int) -> Mover:
    """The route onto a family: P or A miss {i, i+1, j}, Q or B {i, i+1, j,
    j+1}.  The first is ``unstable_rep``'s {1, 2, l} rotated by i - 1 (no
    step for i = 1).  A double pair pulls back (``graphs.pullback``) to a
    pair-plus-one family at k - 1, whose route it follows before rotating
    back into the frame at k; at k = 0 it leaves a two-point support, so
    the family is empty."""
    if kind in 'PA':
        cset = p_complement(k, i, j)
        l, shift = unstable_rep(cset, k)  # shift = i-1
        return Mover((kind, i, j), k, l, ((k, cset, shift),) if shift else ())
    cset = q_complement(k, i, j)
    if k == 0:
        return Mover((kind, i, j), k, None, ())
    sub_i, sub_j, shift = pullback(k, i, j)
    down = mover(k - 1, 'P', sub_i, sub_j)
    return Mover((kind, i, j), k - 1, down.l, down.steps + ((k, cset, -shift),))


def matching_Q(k: int, i: int, j: int) -> FamilyMatching:
    """Acyclic matching on the family missing {i, i+1} and {j, j+1}.

    Rotating by k+5-j moves the second pair onto {k+5, k+6}; every member
    of a rotated face then avoids the top two ground elements, and a triple
    inside [k+4] is stable mod k+6 iff it is stable mod k+5, so the rotated
    faces are exactly the faces of a three-element family one parameter
    down.  ``mover`` carries that family's base onto it and back: k(k+1)/2
    critical cells of dimension k-1.  The certificate of ``transport``
    checks both claims for every triple of the support.
    """
    move = mover(k, 'Q', i, j)
    if move.l is None:
        raise ValueError("every four-element missed set at k=0 leaves a two-point support; "
                         "the families are empty and carry no matching")
    return move.carry(matching_P(move.k, 1, move.l))


def _families(k: int, size: int, key, shapes: list | None) -> list[tuple[int, int]]:
    """The (s, t) of every shape (size, s, t) in ``shapes``, a walk of
    ``graphs.missed_lattice(k)`` (made here when None), sorted by ``key``:
    the families of one layer, each once by fact (d)."""
    shapes = graphs.missed_lattice(k) if shapes is None else shapes
    return sorted((shape[1:] for shape in shapes
                   if isinstance(shape, tuple) and shape[0] == size), key=key)


def p_indices(k: int, shapes: list | None = None) -> list[tuple[int, int]]:
    """All (i, j) of three-element families in processing order: by i, then
    j walking the cycle from i+2 round to i-2; there are (k+3)(k+6) of
    them.  ``shapes`` is a walk of ``graphs.missed_lattice(k)`` already
    made, or None to make one."""
    n = graphs.ground_size(k)
    out = _families(k, 3, lambda ij: (ij[0], (ij[1] - ij[0] - 2) % n), shapes)
    if len(out) != (k + 3) * (k + 6):
        raise MatchingError("found %d three-element families, wanted (k+3)(k+6) = %d"
                            % (len(out), (k + 3) * (k + 6)))
    return out


def q_indices(k: int, shapes: list | None = None) -> list[tuple[int, int]]:
    """All (i, j) of four-element families in processing order, by (i, j);
    there are (k+3)(k+6)/2 of them.  ``shapes`` as for ``p_indices``."""
    out = _families(k, 4, None, shapes)
    want, rem = divmod((k + 3) * (k + 6), 2)
    if rem:
        raise AssertionError("(k+3)(k+6) is odd at k=%d" % (k,))
    if len(out) != want:
        raise MatchingError("found %d four-element families, wanted (k+3)(k+6)/2 = %d"
                            % (len(out), want))
    return out


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
    ``MatchingError`` naming the family.  Both layers are walked in one
    loop, grouped by the base ``mover`` names: each distinct base is built
    by ``matching_P`` and checked in full once, carried onto its families,
    whose copies the certificate of ``transport`` covers face by face, and
    dropped after its last copy.  The family list of both layers is read
    off one walk of ``graphs.missed_lattice``, whose lemma certifies the
    union of each layer's family matchings, by the route ``union_route``
    names.  Beyond k=3 pass census=False for the formula values alone.
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
        'union_route': 'lattice' if census else None,
    }
    if not census:
        return out
    if k > CENSUS_CAP:
        raise ValueError("the census at k=%d is out of scan budget; pass census=False "
                         "for the formula values" % (k,))
    per = {'P': ((k + 1) * (k + 2) // 2, k), 'Q': (k * (k + 1) // 2, k - 1)}
    shapes = graphs.missed_lattice(k)  # one walk lists both layers
    order = ([('P', i, j) for i, j in p_indices(k, shapes)]
             + [('Q', i, j) for i, j in q_indices(k, shapes)])
    by_base: dict[tuple, list] = {}
    for name in order:
        move = mover(k, *name)
        by_base.setdefault((move.k, move.l), []).append(move)
    placed: dict[tuple, tuple] = {}
    for (base_k, l), moves in by_base.items():
        # no base: the family is empty
        base = matching_P(base_k, 1, l) if l else FamilyMatching(k, (), (), Bits(0), StagePairs(()), [])
        for move in moves:
            fm = move.carry(base)
            kind, i, j = move.name
            want, dim = per[kind]
            if len(fm.critical) != want:
                raise MatchingError("family (%s, %d, %d) kept %d cells, wanted %d"
                                    % (kind, i, j, len(fm.critical), want))
            placed[move.name] = (kind, i, j, len(fm.faces), len(fm.critical), dim)
        del base, fm
    rows = [placed[name] for name in order]
    observed = {kind: sum(row[4] for row in rows if row[0] == kind) for kind in per}
    for kind, total, dim in (('P', extra_k, 'k'), ('Q', extra_km1, '(k-1)')):
        if observed[kind] != total:
            raise MatchingError("dimension-%s survivors total %d, formula says %d"
                                % (dim, observed[kind], total))
    out.update(rows=rows, observed_k_cells=observed['P'], observed_km1_cells=observed['Q'])
    return out
