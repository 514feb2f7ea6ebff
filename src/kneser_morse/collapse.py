"""Collapse of the one-stable-endpoint complex onto its stable subcomplex.

Let F be the face family of the neighborhood complex of the ``s`` graph and
F0 the face family for ``sg``.  Every face in F \\ F0 falls into one of three
families, keyed by the complement set C (the ground elements the face never
touches, read by ``graphs.missed_shape``) and by stability of its members:

* A-family: all members stable, C = {s, s+1, t} containing no stable triple;
* B-family: all members stable, C = {s, s+1, u, u+1} containing no stable
  triple (two disjoint cyclically adjacent pairs);
* C-family: some member unstable, fibered by the lex-least unstable member.

Each family carries an explicit perfect acyclic matching: the A-matchings
come from a pivot-vertex recursion that reduces the family parameter, the
B-matchings pull back A-matchings one parameter down along a rotation, and
the C-matchings toggle one stable vertex chosen from the covering interval
of the lex-least common neighbor.  ``theorem2_matching`` composes all of
them under one order-preserving classifier (the Cluster Lemma) and proves
Theorem 2 with three checks on the whole complex: no pair straddles two
fibers, the union is acyclic, and the critical cells are exactly F0.  Each
fiber's acyclicity and perfection follow from these three.

Faces are masks over ``graphs.triple_index(k)``, the index every complex at
k shares.  A rotation moves a face through one ``complexes.rotation_table``
per (frame, shift), and faces are decoded only for error witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import complexes, graphs, morse
from .complexes import complement_set, decode, remap, rotation_table
# rotate has no caller here, but perfbench's tracer counts it in every module
# that binds it and its self-test expects this binding
from .graphs import (index_I, index_J, missed_shape, pair_of, pullback,  # noqa: F401
                     rotate, unstable_rep)
from .morse import Matching, MatchingError


# ---------------------------------------------------------------------------
# family enumeration

def stable_covers(missed, k: int) -> list[int]:
    """All faces of stable triples that miss exactly the ground elements in
    ``missed``."""
    need = ((1 << graphs.ground_size(k)) - 1) & ~graphs.vertex_mask(missed)
    ix = graphs.triple_index(k)
    pool = [b for b, g in enumerate(ix.ground) if ix.stable >> b & 1 and not g & ~need]
    masks = [ix.ground[b] for b in pool]
    suffix = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []

    def walk(i: int, covered: int, chosen: int):
        if covered | suffix[i] != need:
            return
        if i == len(pool):
            if covered == need and chosen:
                out.append(chosen)
            return
        walk(i + 1, covered, chosen)
        walk(i + 1, covered | masks[i], chosen | 1 << pool[i])

    walk(0, 0, 0)
    return out


def a_family(k: int, s: int, t: int) -> list:
    """All-stable faces whose complement is exactly {s, s+1, t}."""
    if t not in index_I(s, k):
        raise ValueError("t=%d not admissible for s=%d at k=%d" % (t, s, k))
    return stable_covers(pair_of(s, k) + (t,), k)


def b_family(k: int, s: int, u: int) -> list:
    """All-stable faces whose complement is exactly {s, s+1, u, u+1}."""
    if u not in index_J(s, k):
        raise ValueError("u=%d not admissible for s=%d at k=%d" % (u, s, k))
    return stable_covers(pair_of(s, k) + pair_of(u, k), k)


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
# A-family matchings: pivot recursion

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
    """Per residue class of C(sigma minus pivot), the pullback recipe.

    Each entry is (extra, shift, sub_k, s, t): ``extra`` is the subset of the
    pivot that becomes uncovered (a ground-element mask), and the class biject onto the family
    (sub_k, s, t) via sigma -> (sigma - pivot) rotated down by ``shift``.
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


def delta_decompose(k: int, l: int, sigma: int):
    """Locate a face of the (1, l) family in the pivot decomposition.

    Returns 'pivot-fiber' when the face survives toggling the pivot (so the
    pivot element matching handles it), else the residue class index 1..7.
    """
    ix = graphs.triple_index(k)
    p = 1 << ix.bit[pivot_vertex(k, l)]
    if not sigma & p:
        return 'pivot-fiber'
    full = (1 << graphs.ground_size(k)) - 1
    cs = full & ~remap(sigma ^ p, ix.ground)
    base = graphs.vertex_mask((1, 2, l))
    if cs == base:
        return 'pivot-fiber'
    extra = cs & ~base
    for i, (ex, _, _, _, _) in enumerate(_delta_table(k, l), start=1):
        if extra == ex:
            return i
    raise MatchingError(
        "face %r uncovers %r, not a pivot subset"
        % (decode(sigma, ix.triples), [x + 1 for x in range(extra.bit_length()) if extra >> x & 1]))


def _transport(pairs, table: list[int], family: set, k: int, what: str, add: int = 0) -> list:
    """Move matching pairs along a ``rotation_table`` into parameter k, with
    the mask ``add`` joined to every face, and check that the moved pairs
    cover exactly ``family``; a mismatch names one decoded face of the
    difference."""
    moved = [(remap(lo, table) | add, remap(hi, table) | add) for lo, hi in pairs]
    cells = {f for pair in moved for f in pair}
    if cells != family:
        raise MatchingError(
            "%s: moved pairs cover %d faces, the family has %d; they differ at %r"
            % (what, len(cells), len(family),
               decode(min(cells ^ family), graphs.triple_index(k).triples)))
    return moved


@lru_cache(maxsize=None)
def _matching_a_norm(k: int, l: int) -> tuple:
    """Matching pairs on the (s, t) = (1, l) family, built recursively."""
    if k <= 1:
        if a_family(k, 1, l):
            raise MatchingError("expected empty family at k=%d" % k)
        return ()
    family = set(a_family(k, 1, l))
    if not family:
        return ()
    triples = graphs.triple_index(k).triples
    p = 1 << graphs.triple_index(k).bit[pivot_vertex(k, l)]
    m0, matched = morse.element_matching(family, p)
    pairs = list(m0.pairs)
    buckets: dict[int, set] = {i: set() for i in range(1, 8)}
    for sigma in family - matched:
        idx = delta_decompose(k, l, sigma)
        if idx == 'pivot-fiber':
            raise MatchingError("face %r escaped the pivot matching" % (decode(sigma, triples),))
        buckets[idx].add(sigma)
    for idx, (extra, shift, sub_k, s, t) in enumerate(_delta_table(k, l), start=1):
        bucket = buckets[idx]
        if sub_k <= 1:
            if bucket:
                raise MatchingError(
                    "class %d nonempty but its target family vanishes" % idx)
            continue
        pairs.extend(_transport(matching_A(sub_k, s, t).pairs, rotation_table(sub_k, k, shift),
                                bucket, k, "class %d of (k=%d, l=%d)" % (idx, k, l), add=p))
    m = Matching(pairs)
    if not morse.is_perfect(m, family):
        raise MatchingError("matching on (1,%d) family at k=%d not perfect" % (l, k))
    return tuple(pairs)


def matching_A(k: int, s: int, t: int) -> Matching:
    """Perfect matching on the all-stable {s, s+1, t}-complement family,
    obtained by rotating the normalized (1, l) matching."""
    if t not in index_I(s, k):
        raise ValueError("t=%d not admissible for s=%d at k=%d" % (t, s, k))
    l, j = unstable_rep(pair_of(s, k) + (t,), k)  # j = s-1
    return Matching(_transport(_matching_a_norm(k, l), rotation_table(k, k, j),
                               set(a_family(k, s, t)), k, "family (k=%d,s=%d,t=%d)" % (k, s, t)))


# ---------------------------------------------------------------------------
# B-family matchings: rotation down one parameter

def matching_B(k: int, s: int, u: int) -> Matching:
    """Perfect matching on the {s, s+1, u, u+1}-complement family.

    Rotating by k+5-u sends the family bijectively onto a 3-complement
    family one parameter down (the u-pair lands on {k+5, k+6} and drops off
    the smaller ground set, see ``graphs.pullback``); the matching pulls
    back along that rotation.
    """
    family = set(b_family(k, s, u))
    if k <= 2:
        if family:
            raise MatchingError("expected empty 4-complement family at k=%d" % k)
        return Matching([])
    sub_s, sub_t, shift = pullback(k, s, u)
    return Matching(_transport(matching_A(k - 1, sub_s, sub_t).pairs, rotation_table(k - 1, k, -shift),
                               family, k, "family (k=%d,s=%d,u=%d)" % (k, s, u)))


# ---------------------------------------------------------------------------
# C-family matchings: toggle inside the covering interval

def cover(v) -> set[int]:
    """Integer interval spanned by a vertex: {min v, ..., max v}."""
    return set(range(min(v), max(v) + 1))


def comp_set(v, l: int) -> set[int]:
    """Candidate toggle elements: inside cover(v), off v, far from l."""
    return {t for t in cover(v) if abs(t - l) > 1 and t not in v}


@lru_cache(maxsize=None)
def _toggle_element(u_star: tuple, l: int) -> int | None:
    """The least element of ``comp_set(u_star, l)``, None if it is empty."""
    return min(comp_set(u_star, l), default=None)


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


def c_toggle(k: int, frame: tuple[int, int], sigma: int) -> int:
    """The stable vertex toggled on a face of the fiber of v, as a one-bit mask.

    ``frame`` is (l, j) = ``unstable_rep(v, k)``, fixed for the whole fiber.
    Everything is computed in the frame where v sits at its {1,2,l} normal
    form: the toggle is {1, l, m} with m the least admissible element in the
    covering interval of the lex-least common neighbor, rotated back.
    """
    l, j = frame
    ix = graphs.triple_index(k)
    nb = graphs.graph('s', k).common_neighbors(sigma)  # s keeps every triple of the index
    if not nb:
        raise MatchingError("%r is not a face (no common neighbor)" % (decode(sigma, ix.triples),))
    low = remap(nb, rotation_table(k, k, -j))
    u_star = ix.triples[(low & -low).bit_length() - 1]  # lowest bit = lex-least
    m = _toggle_element(u_star, l)  # inside cover(u_star), so off 1 and away from l
    if m is None:
        raise MatchingError("face %r: no toggle element for %r with l=%d"
                            % (decode(sigma, ix.triples), u_star, l))
    x = (1, l, m) if l < m else (1, m, l)
    return rotation_table(k, k, j)[ix.bit[x]]


def matching_C(k: int, v, faces=None) -> Matching:
    """Perfect matching on the fiber of unstable vertex v.

    The toggle rule is validated as it runs: the partner must stay in the
    fiber and must select the same toggle, so the pairing is an involution
    by construction or fails loudly.
    """
    fiber = c_fiber(k, v, faces)
    fiber_set = set(fiber)
    frame = unstable_rep(v, k)
    toggles = {sigma: c_toggle(k, frame, sigma) for sigma in fiber}
    triples = graphs.triple_index(k).triples
    pairs = []
    for sigma in fiber:
        x = toggles[sigma]
        if sigma & x:
            continue
        partner = sigma | x
        if partner not in fiber_set:
            raise MatchingError(
                "partner of %r via %r leaves the fiber of %r"
                % (decode(sigma, triples), decode(x, triples), v))
        if toggles[partner] != x:
            raise MatchingError(
                "toggle not involutive on %r / %r (got %r vs %r)"
                % (decode(sigma, triples), decode(partner, triples),
                   decode(toggles[partner], triples), decode(x, triples)))
        pairs.append((sigma, partner))
    m = Matching(pairs)
    if not morse.is_perfect(m, fiber):
        missing = [decode(s, triples) for s in fiber if s not in m.partner][:3]
        raise MatchingError(
            "fiber of %r not perfectly matched; first unmatched: %r" % (v, missing))
    return m


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
    labels = {sigma: classify(sigma, k) for sigma in faces}
    keys = {label: label_key(label, k) for label in set(labels.values())}
    key_of = {sigma: keys[label] for sigma, label in labels.items()}
    buckets: dict = {}
    for sigma, label in labels.items():
        buckets.setdefault(label, []).append(sigma)

    def fail(what: str, witness) -> MatchingError:
        tags = sorted({_fiber_tag(labels[f]) if f in labels else "outside s" for f in witness})
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
    mono_ok, mono_witness = morse.verify_poset_map(key_of.__getitem__, faces)
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
