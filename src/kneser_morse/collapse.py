"""Collapse of the one-stable-endpoint complex onto its stable subcomplex.

Let F be the face family of the neighborhood complex of the ``s`` graph and
F0 the face family for ``sg``.  Every face in F \\ F0 falls into one of three
families, keyed by the complement set C (the ground elements the face never
touches) and by stability of its members:

* A-family: all members stable, C = {s, s+1, t} containing no stable triple;
* B-family: all members stable, C = {s, s+1, u, u+1} containing no stable
  triple (two disjoint cyclically adjacent pairs);
* C-family: some member unstable, fibered by the lex-least unstable member.

Each family carries an explicit perfect acyclic matching: the A-matchings
come from a pivot-vertex recursion that reduces the family parameter, the
B-matchings pull back A-matchings one parameter down along a rotation, and
the C-matchings toggle one stable vertex chosen from the covering interval
of the lex-least common neighbor.  ``theorem2_matching`` composes all of
them under one order-preserving classifier and certifies that the critical
cells are exactly F0.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

from . import complexes, graphs, morse
from .complexes import complement_set, face_key
from .graphs import rotate, unstable_rep
from .morse import Matching


class MatchingError(RuntimeError):
    """A claimed matching property failed mechanical verification."""


# ---------------------------------------------------------------------------
# index sets and complement-shape parsing

def pair_of(s: int, k: int) -> tuple[int, int]:
    """The cyclically adjacent pair {s, s+1} (s = k+6 wraps to {k+6, 1})."""
    n = graphs.ground_size(k)
    return (s, s % n + 1)


def index_I(s: int, k: int) -> list[int]:
    """Admissible third elements t for complements {s, s+1, t}."""
    n = graphs.ground_size(k)
    if not 1 <= s <= n:
        raise ValueError("s=%d outside 1..%d" % (s, n))
    excluded = {(s - 2) % n + 1, s, s % n + 1}
    return [t for t in range(1, n + 1) if t not in excluded]


def index_J(s: int, k: int) -> list[int]:
    """Admissible second pair starts u for complements {s, s+1, u, u+1}."""
    n = graphs.ground_size(k)
    if s == 1:
        return list(range(3, n))          # u+1 may not wrap onto 1
    if 1 < s < n - 1:
        return list(range(s + 2, n + 1))  # u > s+1, wrap u = k+6 allowed
    return []


def parse_three(cset, k: int) -> tuple[int, int] | None:
    """Write a 3-element complement as {s, s+1, t}; None if no such shape.

    The admissibility sets make the parse unique (a run {s, s+1, s+2} reads
    with the lower pair), which is asserted.
    """
    cs = set(cset)
    found = []
    for s in range(1, graphs.ground_size(k) + 1):
        p = set(pair_of(s, k))
        if p <= cs:
            (t,) = cs - p if len(cs - p) == 1 else (None,)
            if t is not None and t in index_I(s, k):
                found.append((s, t))
    if len(found) > 1:
        raise AssertionError("ambiguous 3-complement %r: %r" % (cset, found))
    return found[0] if found else None


def parse_four(cset, k: int) -> tuple[int, int] | None:
    """Write a 4-element complement as {s, s+1} + {u, u+1}; None otherwise."""
    cs = set(cset)
    found = []
    for s in range(1, graphs.ground_size(k) + 1):
        for u in index_J(s, k):
            if set(pair_of(s, k)) | set(pair_of(u, k)) == cs:
                found.append((s, u))
    if len(found) > 1:
        raise AssertionError("ambiguous 4-complement %r: %r" % (cset, found))
    return found[0] if found else None


# ---------------------------------------------------------------------------
# family enumeration

def _stable_triples_within(elements: frozenset[int], k: int) -> list:
    return [t for t in graphs.all_triples(k)
            if set(t) <= elements and graphs.is_stable(t, k)]


def stable_covers(elements, k: int) -> list:
    """All sets of stable triples inside ``elements`` whose union is all of
    ``elements``, as canonical face keys."""
    elems = frozenset(elements)
    pool = _stable_triples_within(elems, k)
    need = graphs.vertex_mask(elems)
    masks = [graphs.vertex_mask(t) for t in pool]
    suffix = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []

    def walk(i: int, covered: int, chosen: tuple):
        if covered | suffix[i] != need:
            return
        if i == len(pool):
            if covered == need and chosen:
                out.append(chosen)
            return
        walk(i + 1, covered, chosen)
        walk(i + 1, covered | masks[i], chosen + (pool[i],))

    walk(0, 0, ())
    return [face_key(c) for c in out]


def a_support(k: int, s: int, t: int) -> frozenset[int]:
    n = graphs.ground_size(k)
    return frozenset(range(1, n + 1)) - set(pair_of(s, k)) - {t}


def a_family(k: int, s: int, t: int) -> list:
    """All-stable faces whose complement is exactly {s, s+1, t}."""
    if t not in index_I(s, k):
        raise ValueError("t=%d not admissible for s=%d at k=%d" % (t, s, k))
    return stable_covers(a_support(k, s, t), k)


def b_family(k: int, s: int, u: int) -> list:
    """All-stable faces whose complement is exactly {s, s+1, u, u+1}."""
    if u not in index_J(s, k):
        raise ValueError("u=%d not admissible for s=%d at k=%d" % (u, s, k))
    n = graphs.ground_size(k)
    support = frozenset(range(1, n + 1)) - set(pair_of(s, k)) - set(pair_of(u, k))
    return stable_covers(support, k)


# ---------------------------------------------------------------------------
# classifier

def has_stable_triple(elements, k: int) -> bool:
    return bool(_stable_triples_within(frozenset(elements), k))


def classify(sigma, k: int):
    """Family label of a face of the one-stable-endpoint complex.

    Returns ('C', v) with v the lex-least unstable member, ('A', s, t),
    ('B', s, u), or ('SG',) for faces of the stable subcomplex.  Every face
    must land in exactly one family; an unparseable complement shape is an
    error rather than a silent default.
    """
    key = face_key(sigma)
    unstable = [v for v in key if not graphs.is_stable(v, k)]
    if unstable:
        return ('C', unstable[0])
    cset = complement_set(key, k).complement
    if has_stable_triple(cset, k):
        return ('SG',)
    if len(cset) == 3:
        parsed = parse_three(cset, k)
        if parsed is None:
            raise MatchingError("3-complement %r has no pair shape" % (cset,))
        return ('A',) + parsed
    if len(cset) == 4:
        parsed = parse_four(cset, k)
        if parsed is None:
            raise MatchingError("4-complement %r has no double-pair shape" % (cset,))
        return ('B',) + parsed
    raise MatchingError(
        "complement %r of size %d contains no stable triple" % (cset, len(cset)))


@lru_cache(maxsize=None)
def _unstable_rank(k: int) -> dict:
    us = [t for t in graphs.all_triples(k) if not graphs.is_stable(t, k)]
    return {v: i for i, v in enumerate(us)}


def label_key(label, k: int) -> tuple:
    """Total order for the family classifier: A > B > C > SG, C-fibers
    decreasing in their vertex, rigid tags inside A and B."""
    if label[0] == 'A':
        return (3, label[1], label[2])
    if label[0] == 'B':
        return (2, label[1], label[2])
    if label[0] == 'C':
        rank = _unstable_rank(k)
        return (1, len(rank) - rank[label[1]])
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
    pivot that becomes uncovered, and the class biject onto the family
    (sub_k, s, t) via sigma -> (sigma - pivot) rotated down by ``shift``.
    """
    n = graphs.ground_size(k)
    if l == 3:
        a, b = 4, 6
        targets = [(1, k - 1, 1, 3), (1, k - 1, 1, 5), (0, k - 1, 1, 3),
                   (2, k - 2, 1, 4), (1, k - 2, 1, 3), (1, k - 2, 1, 5),
                   (2, k - 3, 1, 4)]
    elif l == 4:
        a, b = 3, 5
        targets = [(1, k - 1, 1, 3), (1, k - 1, 3, 1), (0, k - 1, 1, 4),
                   (2, k - 2, 1, 3), (1, k - 2, 1, 3), (1, k - 2, 3, 1),
                   (2, k - 3, 1, 3)]
    elif l == 5:
        a, b = 3, 6
        targets = [(1, k - 1, 1, 4), (1, k - 1, 4, 1), (0, k - 1, 1, 5),
                   (2, k - 2, 3, 1), (1, k - 2, 1, 4), (1, k - 2, 4, 1),
                   (2, k - 3, 3, 1)]
    else:
        a, b = 3, l - 1
        targets = [(1, k - 1, 1, l - 1), (1, k - 1, l - 2, 1), (0, k - 1, 1, l),
                   (2, k - 2, l - 3, 1), (1, k - 2, 1, l - 1), (1, k - 2, l - 2, 1),
                   (2, k - 3, l - 3, 1)]
    extras = [frozenset(e) for e in
              ({a}, {b}, {n}, {a, b}, {a, n}, {b, n}, {a, b, n})]
    rows = []
    for i in range(7):
        shift, sub_k, s, t = targets[i]
        if sub_k >= 2:
            # renormalize the target name: near l = n-1 the written (s, t)
            # can put t on the wrong side of the pair once the ground set
            # shrinks, and the canonical parse swaps it to the wrap pair
            parsed = parse_three(set(pair_of(s, sub_k)) | {t}, sub_k)
            if parsed is None:
                raise AssertionError(
                    "target {%d, %d+1, %d} unparseable at k=%d" % (s, s, t, sub_k))
            s, t = parsed
        rows.append((extras[i], shift, sub_k, s, t))
    return rows


def delta_decompose(k: int, l: int, sigma):
    """Locate a face of the (1, l) family in the pivot decomposition.

    Returns 'pivot-fiber' when the face survives toggling the pivot (so the
    pivot element matching handles it), else the residue class index 1..7.
    """
    key = face_key(sigma)
    p = pivot_vertex(k, l)
    base = frozenset({1, 2, l})
    if p not in key:
        return 'pivot-fiber'
    rest = tuple(v for v in key if v != p)
    cs = frozenset(complement_set(rest, k).complement) if rest else \
        frozenset(range(1, graphs.ground_size(k) + 1))
    if cs == base:
        return 'pivot-fiber'
    extra = cs - base
    for i, (ex, _, _, _, _) in enumerate(_delta_table(k, l), start=1):
        if extra == ex:
            return i
    raise MatchingError(
        "face %r uncovers %r, not a pivot subset" % (sigma, sorted(extra)))


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
    p = pivot_vertex(k, l)
    m0, matched = morse.element_matching(family, p)
    pairs = list(m0.pairs)
    buckets: dict[int, set] = {i: set() for i in range(1, 8)}
    for sigma in family - matched:
        idx = delta_decompose(k, l, sigma)
        if idx == 'pivot-fiber':
            raise MatchingError("face %r escaped the pivot matching" % (sigma,))
        buckets[idx].add(sigma)
    for idx, (extra, shift, sub_k, s, t) in enumerate(_delta_table(k, l), start=1):
        bucket = buckets[idx]
        if sub_k <= 1:
            if bucket:
                raise MatchingError(
                    "class %d nonempty but its target family vanishes" % idx)
            continue
        sub = matching_A(sub_k, s, t)
        pulled = []
        cells = set()
        for lo, hi in sub.pairs:
            plo = face_key(tuple(rotate(v, shift, k) for v in lo) + (p,))
            phi = face_key(tuple(rotate(v, shift, k) for v in hi) + (p,))
            pulled.append((plo, phi))
            cells.add(plo)
            cells.add(phi)
        if cells != bucket:
            raise MatchingError(
                "class %d of (k=%d, l=%d): pullback covers %d faces, class has %d"
                % (idx, k, l, len(cells), len(bucket)))
        pairs.extend(pulled)
    m = Matching(pairs)
    if not morse.is_perfect(m, family):
        raise MatchingError("matching on (1,%d) family at k=%d not perfect" % (l, k))
    return tuple(pairs)


def matching_A(k: int, s: int, t: int) -> Matching:
    """Perfect matching on the all-stable {s, s+1, t}-complement family,
    obtained by rotating the normalized (1, l) matching."""
    n = graphs.ground_size(k)
    if t not in index_I(s, k):
        raise ValueError("t=%d not admissible for s=%d at k=%d" % (t, s, k))
    l = (t - s) % n + 1
    if not 3 <= l <= n - 1:
        raise AssertionError("normalized l=%d out of range" % l)
    base = _matching_a_norm(k, l)
    if s == 1:
        m = Matching(list(base))
    else:
        m = Matching([(rotate(lo, s - 1, k), rotate(hi, s - 1, k))
                      for lo, hi in base])
    family = set(a_family(k, s, t))
    if m.matched() != family:
        raise MatchingError(
            "rotated matching covers %d faces, family (k=%d,s=%d,t=%d) has %d"
            % (len(m.matched()), k, s, t, len(family)))
    return m


# ---------------------------------------------------------------------------
# B-family matchings: rotation down one parameter

def matching_B(k: int, s: int, u: int) -> Matching:
    """Perfect matching on the {s, s+1, u, u+1}-complement family.

    Rotating by k+5-u sends the family bijectively onto a 3-complement
    family one parameter down (the u-pair lands on {k+5, k+6} and drops off
    the smaller ground set); the matching pulls back along that rotation.
    """
    family = set(b_family(k, s, u))
    if k <= 2:
        if family:
            raise MatchingError("expected empty 4-complement family at k=%d" % k)
        return Matching([])
    shift = (k + 5) - u
    target_c = frozenset(rotate((s, s % graphs.ground_size(k) + 1), shift, k)) | {k + 5}
    parsed = parse_three(target_c, k - 1)
    if parsed is None:
        raise AssertionError("image complement %r has no pair shape" % (sorted(target_c),))
    sub = matching_A(k - 1, *parsed)
    pairs = [(rotate(lo, -shift, k), rotate(hi, -shift, k)) for lo, hi in sub.pairs]
    m = Matching(pairs)
    if m.matched() != family:
        raise MatchingError(
            "pulled-back matching covers %d faces, family (k=%d,s=%d,u=%d) has %d"
            % (len(m.matched()), k, s, u, len(family)))
    return m


# ---------------------------------------------------------------------------
# C-family matchings: toggle inside the covering interval

def cover(v) -> set[int]:
    """Integer interval spanned by a vertex: {min v, ..., max v}."""
    return set(range(min(v), max(v) + 1))


def co_set(vs) -> set[int]:
    out: set[int] = set()
    for v in vs:
        out |= cover(v)
    return out


def cover_hull(vs) -> set[int]:
    co = co_set(vs)
    return set(range(min(co), max(co) + 1)) if co else set()


def span_length(vs) -> int:
    return len(cover_hull(vs))


def comp_set(v, l: int) -> set[int]:
    """Candidate toggle elements: inside cover(v), off v, far from l."""
    return {t for t in cover(v) if abs(t - l) > 1 and t not in v}


def toggle_element(v, l: int) -> int:
    c = comp_set(v, l)
    if not c:
        raise MatchingError("no toggle element for %r with l=%d" % (v, l))
    return min(c)


@lru_cache(maxsize=None)
def _s_faces(k: int) -> frozenset:
    return frozenset(complexes.complex_for('s', k).all_faces())


def c_fiber(k: int, v, faces=None) -> list:
    """Faces whose lex-least unstable member is v."""
    vt = tuple(sorted(v))
    if graphs.is_stable(vt, k):
        raise ValueError("%r is stable; C-fibers hang off unstable vertices" % (v,))
    pool = _s_faces(k) if faces is None else faces
    out = []
    for sigma in pool:
        if vt in sigma and all(graphs.is_stable(w, k) for w in sigma if w < vt):
            out.append(sigma)
    return sorted(out)


def c_toggle(k: int, v, sigma) -> tuple:
    """The stable vertex toggled on a face of the fiber of v.

    Everything is computed in the frame where v sits at its {1,2,l} normal
    form: the toggle is {1, l, m} with m the least admissible element in the
    covering interval of the lex-least common neighbor, rotated back.
    """
    l, j = unstable_rep(v, k)
    g = graphs.graph('s', k)
    nb = g.neighborhood(sigma)
    if not nb:
        raise MatchingError("%r is not a face (no common neighbor)" % (sigma,))
    u_star = min(rotate(u, -j, k) for u in nb)
    x = (1, l, toggle_element(u_star, l))
    return rotate(x, j, k)


def matching_C(k: int, v, faces=None) -> Matching:
    """Perfect matching on the fiber of unstable vertex v.

    The toggle rule is validated as it runs: the partner must stay in the
    fiber and must select the same toggle, so the pairing is an involution
    by construction or fails loudly.
    """
    fiber = c_fiber(k, v, faces)
    fiber_set = set(fiber)
    toggles = {}
    for sigma in fiber:
        toggles[sigma] = c_toggle(k, v, sigma)
    pairs = []
    for sigma in fiber:
        x = toggles[sigma]
        if x in sigma:
            continue
        partner = face_key(sigma + (x,))
        if partner not in fiber_set:
            raise MatchingError(
                "partner of %r via %r leaves the fiber of %r" % (sigma, x, v))
        if toggles[partner] != x:
            raise MatchingError(
                "toggle not involutive on %r / %r (got %r vs %r)"
                % (sigma, partner, toggles[partner], x))
        pairs.append((sigma, partner))
    m = Matching(pairs)
    if not morse.is_perfect(m, fiber):
        missing = [s for s in fiber if s not in m.partner][:3]
        raise MatchingError(
            "fiber of %r not perfectly matched; first unmatched: %r" % (v, missing))
    return m


def stratum_length(k: int, sigma) -> int:
    """Span of the common-neighbor set, in the normal-form frame of the
    face's lex-least unstable member."""
    label = classify(sigma, k)
    if label[0] != 'C':
        raise ValueError("%r has no unstable member" % (sigma,))
    _, j = unstable_rep(label[1], k)
    nb = graphs.graph('s', k).neighborhood(sigma)
    return span_length([rotate(u, -j, k) for u in nb])


def b_strata(k: int, l: int) -> dict[int, list]:
    """Fiber of the normal-form vertex {1,2,l}, stratified by neighbor span."""
    v = (1, 2, l)
    strata: dict[int, list] = {}
    for sigma in c_fiber(k, v):
        strata.setdefault(stratum_length(k, sigma), []).append(sigma)
    return strata


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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CollapseReport:
    k: int
    matching: Matching
    records: list[VerificationRecord]
    critical: list
    ok: bool


def _fiber_tag(label) -> str:
    if label[0] == 'C':
        return "C v=%s" % ("".join(map(str, label[1])),)
    if label[0] == 'A':
        return "A s=%d t=%d" % (label[1], label[2])
    if label[0] == 'B':
        return "B s=%d u=%d" % (label[1], label[2])
    return "SG"


def theorem2_matching(k: int) -> CollapseReport:
    """Build and fully verify the collapse matching at parameter k.

    Classifies every face of the ambient complex, builds each fiber matching,
    composes them under the family classifier, and certifies: classifier
    monotone, composition acyclic, critical cells exactly the faces of the
    stable subcomplex.
    """
    faces = sorted(_s_faces(k))
    labels = {sigma: classify(sigma, k) for sigma in faces}
    buckets: dict = {}
    for sigma, label in labels.items():
        buckets.setdefault(label, set()).add(sigma)

    records: list[VerificationRecord] = []
    fibers: dict = {}
    for label in sorted(buckets, key=lambda la: label_key(la, k)):
        members = buckets[label]
        if label[0] == 'A':
            m = matching_A(k, label[1], label[2])
        elif label[0] == 'B':
            m = matching_B(k, label[1], label[2])
        elif label[0] == 'C':
            m = matching_C(k, label[1], faces=members)
        else:
            m = Matching([])
        if label[0] in ('A', 'B') and m.matched() != members:
            raise MatchingError(
                "classifier bucket %r disagrees with enumerated family" % (label,))
        fibers[label] = m
        acyclic, _ = morse.is_acyclic(m, members)
        perfect = morse.is_perfect(m, members) if label[0] != 'SG' else False
        records.append(VerificationRecord(
            lemma="%s-matching" % label[0].lower(), k=k, fiber=_fiber_tag(label),
            cells=len(members), pairs=len(m.pairs), acyclic=acyclic,
            perfect=perfect,
            critical_count=len(members) - 2 * len(m.pairs)))

    def label_of(sigma):
        return label_key(labels[sigma], k)

    keyed = {label_key(la, k): m for la, m in fibers.items()}
    composed = morse.compose_cluster(label_of, keyed)
    mono_ok, mono_witness = morse.verify_poset_map(label_of, faces)
    if not mono_ok:
        raise MatchingError("classifier not order-preserving at %r" % (mono_witness,))
    acyclic, witness = morse.is_acyclic(composed, faces)
    critical = morse.critical_cells(faces, composed)
    sg_faces = complexes.complex_for('sg', k).all_faces()
    crit_ok = set(critical) == sg_faces
    records.append(VerificationRecord(
        lemma="s3k-collapse", k=k, fiber="all",
        cells=len(faces), pairs=len(composed.pairs), acyclic=acyclic,
        perfect=False, critical_count=len(critical)))
    ok = acyclic and crit_ok and all(
        r.acyclic and (r.perfect or r.fiber in ("SG", "all")) for r in records)
    return CollapseReport(k=k, matching=composed, records=records,
                          critical=critical, ok=ok)
