"""The family decomposition and its fiber matchings.

Everything here is checked mechanically: the classifier partitions the
faces, each fiber matching is perfect and acyclic, the pullback maps between
families are bijections, and the composed matching leaves exactly the stable
subcomplex critical.
"""

import functools
import hashlib
import itertools
import json
import re
from collections import Counter

import pytest

from kneser_morse import cli, collapse, graphs, morse, wedge
from kneser_morse.collapse import (
    classify, label_key, matching_A, matching_B, matching_C,
    pivot_vertex, theorem2_matching, _delta_table, _s_faces,
)
from kneser_morse.complexes import complex_for, decode, face_key, remap
from kneser_morse.graphs import (
    ground_size, is_stable, missed_shape, p_complement, q_complement, rotate,
    triple_index, unstable_rep, vertex_mask,
)
from kneser_morse.morse import Matching, MatchingError


def members(sigma, k):
    return decode(sigma, triple_index(k).triples)


def is_perfect(matching, cells):
    """Every cell is matched, and every matched face is a cell."""
    return set(matching.partner) == set(cells)


def rotation_table(src_k, k, shift):
    """Per bit of the index at ``src_k``, the one-bit mask of that triple
    rotated by ``shift`` mod k+6, in the index at k."""
    bit = triple_index(k).bit
    return tuple(1 << bit[rotate(t, shift, k)] for t in triple_index(src_k).triples)


# ---------------------------------------------------------------------------
# enumeration oracles: the all-stable families by depth-first search over the
# stable triples, and the residue class of a face by its missed set; the
# matchings under test build the same families on the subset tables of their
# stable triples

def stable_covers(missed, k):
    """All faces of stable triples that miss exactly the ground elements in
    ``missed``."""
    need = ((1 << ground_size(k)) - 1) & ~vertex_mask(missed)
    ix = triple_index(k)
    pool = [b for b, g in enumerate(ix.ground) if ix.stable >> b & 1 and not g & ~need]
    masks = [ix.ground[b] for b in pool]
    suffix = [0] * (len(pool) + 1)
    for i in range(len(pool) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []

    def walk(i, covered, chosen):
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


def a_family(k, s, t):
    """All-stable faces whose complement is exactly {s, s+1, t}."""
    if t not in index_I(s, k):
        raise ValueError("t=%d not admissible for s=%d at k=%d" % (t, s, k))
    return stable_covers(pair_of(s, k) + (t,), k)


def b_family(k, s, u):
    """All-stable faces whose complement is exactly {s, s+1, u, u+1}."""
    if u not in index_J(s, k):
        raise ValueError("u=%d not admissible for s=%d at k=%d" % (u, s, k))
    return stable_covers(pair_of(s, k) + pair_of(u, k), k)


@functools.lru_cache(maxsize=None)
def c_fibers(k):
    """The faces of ``s`` filed by their lex-least unstable member, read off
    the decoded members."""
    out = {}
    for sigma in sorted(_s_faces(k)):
        unstable = [t for t in members(sigma, k) if not is_stable(t, k)]
        if unstable:
            out.setdefault(min(unstable), []).append(sigma)
    return out


def c_fiber(k, v):
    """Faces whose lex-least unstable member is v, ascending."""
    return list(c_fibers(k).get(tuple(sorted(v)), ()))


def delta_decompose(k, l, sigma):
    """Locate a face of the (1, l) family in the pivot decomposition:
    'pivot-fiber' when the face survives toggling the pivot, else the
    residue class index 1..7 of ``_delta_table``."""
    ix = triple_index(k)
    p = 1 << ix.bit[pivot_vertex(k, l)]
    if not sigma & p:
        return 'pivot-fiber'
    cs = ((1 << ground_size(k)) - 1) & ~remap(sigma ^ p, ix.ground)
    base = vertex_mask((1, 2, l))
    if cs == base:
        return 'pivot-fiber'
    for i, (ex, _, _, _, _) in enumerate(_delta_table(k, l), start=1):
        if cs & ~base == ex:
            return i
    raise AssertionError("face %r uncovers %r, not a pivot subset" % (members(sigma, k), cs))


# ---------------------------------------------------------------------------
# the paper's index sets I_s and J_s: the oracle that the families
# ``wedge.p_indices`` and ``wedge.q_indices`` read off the missed-set lattice
# must match, in report order

def pair_of(s, k):
    """The cyclically adjacent pair {s, s+1} (s = k+6 wraps to {k+6, 1})."""
    n = ground_size(k)
    return (s, s % n + 1)


def index_I(s, k):
    """I_s: the admissible third elements t of missed sets {s, s+1, t}, all
    but the pair and its two flanks."""
    n = ground_size(k)
    if not 1 <= s <= n:
        raise ValueError("s=%d outside 1..%d" % (s, n))
    excluded = {(s - 2) % n + 1, s, s % n + 1}
    return [t for t in range(1, n + 1) if t not in excluded]


def index_J(s, k):
    """J_s: the admissible second pair starts u of missed sets {s, s+1, u,
    u+1}, with s < u."""
    n = ground_size(k)
    if s == 1:
        return list(range(3, n))          # u+1 may not wrap onto 1
    if 1 < s < n - 1:
        return list(range(s + 2, n + 1))  # u > s+1, wrap u = k+6 allowed
    return []


def paper_indices(k):
    """The (i, j) of the P- and Q-families by I_s and J_s, in report order:
    P by i, then j walking the cycle from i+2 round to i-2; Q by (i, j)."""
    n = ground_size(k)

    def walk(i):  # the whole cycle, from i+2 round to i+1
        return [(i + 1 + t) % n + 1 for t in range(n)]

    p = [(i, j) for i in range(1, n + 1) for j in walk(i) if j in index_I(i, k)]
    q = [(i, j) for i in range(1, n + 1) for j in index_J(i, k)]
    return p, q


@pytest.mark.parametrize("k", range(9))
def test_the_paper_index_sets_are_the_lattice_families(k):
    p, q = paper_indices(k)
    assert wedge.p_indices(k) == p
    assert wedge.q_indices(k) == q


@pytest.mark.parametrize("k", range(9))
def test_complements_accept_exactly_the_paper_index_sets(k):
    n = ground_size(k)
    p, q = map(set, paper_indices(k))
    for i, j in itertools.product(range(1, n + 1), range(0, n + 2)):
        if (i, j) in p:
            assert p_complement(k, i, j) == tuple(sorted(pair_of(i, k) + (j,)))
        else:
            with pytest.raises(ValueError, match=r"^j=%d cannot accompany the pair \{%d, %d\}$"
                               % ((j,) + pair_of(i, k))):
                p_complement(k, i, j)
        if (i, j) in q:
            assert q_complement(k, i, j) == tuple(sorted(pair_of(i, k) + pair_of(j, k)))
        elif i <= k + 4:
            with pytest.raises(ValueError, match=r"^second pair start j=%d is not admissible "
                               r"after i=%d$" % (j, i)):
                q_complement(k, i, j)
        else:
            with pytest.raises(ValueError, match=r"^first pair start i=%d must lie in 1\.\.%d$"
                               % (i, k + 4)):
                q_complement(k, i, j)


def test_the_index_oracle_catches_a_dropped_j(monkeypatch):
    # I_1 at k = 2 without 5: the lattice still reads the family (1, 5)
    real = index_I
    monkeypatch.setitem(globals(), 'index_I',
                        lambda s, k: [t for t in real(s, k) if (s, t) != (1, 5)])
    with pytest.raises(AssertionError):
        test_the_paper_index_sets_are_the_lattice_families(2)


def test_pair_of_wraps():
    assert pair_of(3, 0) == (3, 4)
    assert pair_of(6, 0) == (6, 1)
    assert pair_of(7, 1) == (7, 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_index_sizes(k):
    n = ground_size(k)
    for s in range(1, n + 1):
        assert len(index_I(s, k)) == n - 3
    # (k+3)(k+6) three-element shapes, half as many four-element shapes
    assert n * (n - 3) == (k + 3) * (k + 6)
    assert sum(len(index_J(s, k)) for s in range(1, n + 1)) == (k + 3) * (k + 6) // 2


def test_index_I_excludes_the_pair_and_its_flanks():
    assert index_I(1, 0) == [3, 4, 5]
    assert index_I(6, 0) == [2, 3, 4]  # pair is {6,1}; 5 and 2 flank it


# ---------------------------------------------------------------------------
# the brute-force missed-set readers that ``graphs.missed_shape`` replaced,
# kept as its oracles

def parse_three(cset, k):
    """Write a 3-element complement as {s, s+1, t}; None if no such shape.

    The admissibility sets make the parse unique (a run {s, s+1, s+2} reads
    with the lower pair), which is asserted.
    """
    cs = set(cset)
    found = []
    for s in range(1, ground_size(k) + 1):
        p = set(pair_of(s, k))
        if p <= cs:
            (t,) = cs - p if len(cs - p) == 1 else (None,)
            if t is not None and t in index_I(s, k):
                found.append((s, t))
    if len(found) > 1:
        raise AssertionError("ambiguous 3-complement %r: %r" % (cset, found))
    return found[0] if found else None


def parse_four(cset, k):
    """Write a 4-element complement as {s, s+1} + {u, u+1}; None otherwise."""
    cs = set(cset)
    found = []
    for s in range(1, ground_size(k) + 1):
        for u in index_J(s, k):
            if set(pair_of(s, k)) | set(pair_of(u, k)) == cs:
                found.append((s, u))
    if len(found) > 1:
        raise AssertionError("ambiguous 4-complement %r: %r" % (cset, found))
    return found[0] if found else None


def brute_shape(missed, k):
    """``missed_shape`` by the brute-force readers: every 3-subset tested
    for stability, then ``parse_three`` or ``parse_four``."""
    cset = [x for x in range(1, ground_size(k) + 1) if missed >> (x - 1) & 1]
    if any(is_stable(t, k) for t in itertools.combinations(cset, 3)):
        return True
    parse = {3: parse_three, 4: parse_four}.get(len(cset))
    parsed = parse(cset, k) if parse else None
    return (len(cset),) + parsed if parsed else None


def shape_disagreements(reader, k):
    """The ground masks at k on which ``reader`` and ``brute_shape`` differ."""
    return [m for m in range(1 << ground_size(k)) if reader(m, k) != brute_shape(m, k)]


@pytest.mark.parametrize("k", range(6))
def test_missed_shape_agrees_with_the_brute_force_readers(k):
    assert shape_disagreements(missed_shape, k) == []


def test_a_reader_of_runs_from_the_upper_pair_is_caught():
    # a run {s, s+1, s+2} read from {s+1, s+2} with t = s
    def upper(missed, k):
        shape = missed_shape(missed, k)
        if isinstance(shape, tuple) and shape[0] == 3 and shape[2] == rotate(shape[1], 2, k):
            return (3, rotate(shape[1], 1, k), shape[1])
        return shape

    assert shape_disagreements(upper, 2)


def test_parse_three_fixtures():
    assert parse_three({1, 2, 4}, 0) == (1, 4)
    assert parse_three({1, 2, 3}, 0) == (1, 3)   # runs read from the lower pair
    assert parse_three({7, 1, 2}, 1) == (7, 2)   # wrap pair {7,1}
    assert parse_three({1, 3, 5}, 0) is None
    assert parse_three({2, 3, 4}, 1) == (2, 4)


def test_parse_four_fixtures():
    assert parse_four({1, 2, 3, 4}, 0) == (1, 3)
    assert parse_four({1, 2, 4, 5}, 0) == (1, 4)
    assert parse_four({3, 4, 6, 1}, 0) == (3, 6)  # second pair wraps
    assert parse_four({1, 2, 4, 6}, 0) is None


@pytest.mark.parametrize("k", [2, 3])
def test_parse_three_is_a_bijection_on_its_range(k):
    n = ground_size(k)
    seen = {}
    for s in range(1, n + 1):
        for t in index_I(s, k):
            cset = frozenset(pair_of(s, k)) | {t}
            assert parse_three(cset, k) == (s, t)
            assert cset not in seen
            seen[cset] = (s, t)


def test_a_family_fixture():
    # k=2, complement {1,2,4}: stable covers of {3,5,6,7,8}
    fam = a_family(2, 1, 4)
    assert all(all(is_stable(v, 2) for v in members(f, 2)) for f in fam)
    for f in fam:
        used = set().union(*map(set, members(f, 2)))
        assert used == {3, 5, 6, 7, 8}
    with pytest.raises(ValueError):
        a_family(2, 1, 2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_b_family_empty_below_k3(k):
    n = ground_size(k)
    for s in range(1, n + 1):
        for u in index_J(s, k):
            assert b_family(k, s, u) == []
            assert matching_B(k, s, u) == []


def test_b_family_first_appears_at_k3():
    sizes = [len(b_family(3, s, u))
             for s in range(1, 10) for u in index_J(s, 3)]
    assert any(sizes)


# ---------------------------------------------------------------------------
# the classifier partitions the complex

@pytest.mark.parametrize("k", [0, 1, 2])
def test_classifier_buckets_match_enumerated_families(k):
    faces = _s_faces(k)
    buckets = {}
    for sigma in faces:
        buckets.setdefault(classify(sigma, k), set()).add(sigma)
    # SG bucket = the stable subcomplex
    assert buckets.get(('SG',), set()) == complex_for('sg', k).all_faces()
    # A buckets = enumerated families, exactly
    n = ground_size(k)
    for s in range(1, n + 1):
        for t in index_I(s, k):
            fam = set(a_family(k, s, t))
            assert buckets.get(('A', s, t), set()) == fam
    # C buckets = fibers off each unstable vertex
    for label, members in buckets.items():
        if label[0] == 'C':
            assert members == set(c_fiber(k, label[1]))
            assert not is_stable(label[1], k)
        assert label[0] != 'B'  # first seen at k=3
    # and the buckets exhaust the complex (classify is total)
    assert sum(len(m) for m in buckets.values()) == len(faces)


def test_classify_rejects_garbage_complements():
    # a nonface would be the only way to reach an unparseable shape; the
    # classifier itself must never default silently
    # {135, 246} is all stable and misses nothing, so no family fits it
    with pytest.raises(MatchingError, match="contains no stable triple"):
        classify(face_key([(1, 3, 5), (2, 4, 6)], 0), 0)


@pytest.mark.parametrize("mask", [0, 1 << 56])
def test_classify_refuses_what_it_cannot_label(mask):
    # the empty face and a bit past the 56 triples at k = 2 name no face
    with pytest.raises(ValueError, match=r"mask %d is not a nonempty face of the 56 triples "
                                         r"of 1\.\.8" % mask):
        classify(mask, 2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_classifier_is_a_poset_map(k):
    # the face-level walk over every facet agrees with the missed-set check
    ok, witness = morse.verify_poset_map(
        {sigma: label_key(classify(sigma, k), k) for sigma in sorted(_s_faces(k))})
    assert ok, witness
    collapse.check_label_order(k)


def key_b_above_a(monkeypatch):
    real = collapse.label_key
    monkeypatch.setattr(collapse, 'label_key',
                        lambda label, k: (4,) + label[1:] if label[0] == 'B' else real(label, k))


def key_c_rising(monkeypatch):
    real = collapse.label_key
    monkeypatch.setattr(collapse, 'label_key', lambda label, k: (
        (1, triple_index(k).bit[label[1]]) if label[0] == 'C' else real(label, k)))


@pytest.mark.parametrize("plant,match", [
    (key_b_above_a, r"facet shape \(1, 2, 3, 4\) \('B', 1, 3\) keys above face shape "
                    r"\(1, 2, 3\) \('A', 1, 3\)$"),
    (key_c_rising, r"label \('C', \(1, 2, 4\)\) keys above label \('C', \(1, 2, 3\)\)$"),
])
def test_a_label_order_that_rises_to_a_facet_is_refused(plant, match, monkeypatch):
    # at k = 3 on missed sets alone, since theorem2_matching lists every
    # face of s and stops at k = 2
    plant(monkeypatch)
    match = "classifier not order-preserving: " + match
    with pytest.raises(MatchingError, match=match):
        theorem2_matching(2)
    with pytest.raises(MatchingError, match=match):
        collapse.check_label_order(3)


def test_a_label_order_with_ties_is_order_preserving(monkeypatch):
    # a poset map may keep a key on a facet: one key for every C label, and
    # one for every A and B label, still never rises to a facet
    monkeypatch.setattr(collapse, 'label_key', lambda label, k: {'SG': 0, 'C': 1}.get(label[0], 2))
    for k in (2, 3):
        collapse.check_label_order(k)


def test_the_face_level_walk_misses_b_above_a_at_k2(monkeypatch):
    # no face of s is a B-face below k = 3, so the walk over the faces of
    # s at k = 2 never compares a B key with an A key and passes the plant
    # that the missed-set check refuses
    key_b_above_a(monkeypatch)
    ok, _ = morse.verify_poset_map(
        {sigma: collapse.label_key(classify(sigma, 2), 2) for sigma in sorted(_s_faces(2))})
    assert ok
    with pytest.raises(MatchingError, match=r"face shape \(1, 2, 3\)"):
        collapse.check_label_order(2)


def test_theorem2_names_a_five_set_read_as_a_pair(monkeypatch):
    real, mask = graphs.missed_shape, vertex_mask((1, 2, 3, 4, 5))
    monkeypatch.setattr(graphs, 'missed_shape', lambda m, k: (3, 1, 3) if m == mask else real(m, k))
    with pytest.raises(MatchingError, match=r"missed set \(1, 2, 3, 4, 5\) reads \(3, 1, 3\), "
                                            r"but a set of 5 elements must hold a stable triple$"):
        theorem2_matching(2)


def test_theorem2_walks_no_facet_of_the_face_table(monkeypatch):
    def walked(*args, **kwargs):
        raise AssertionError("the face-level poset-map walk ran")

    monkeypatch.setattr(morse, 'verify_poset_map', walked)
    assert theorem2_matching(2).poset_map_route == 'lattice'


# ---------------------------------------------------------------------------
# A-family matchings

@pytest.mark.parametrize("k", [2, 3])
def test_matching_A_perfect_and_acyclic(k):
    n = ground_size(k)
    pairs_seen = 0
    for s in range(1, n + 1):
        for t in index_I(s, k):
            fam = set(a_family(k, s, t))
            m = Matching(matching_A(k, s, t))
            assert is_perfect(m, fam)
            ok, witness = morse.is_acyclic(m)
            assert ok, witness
            pairs_seen += len(m.pairs)
    assert pairs_seen > 0


# per k, the count and sha256 of the sorted (s, t, lower, upper) A pairs and
# (s, u, lower, upper) B pairs over the per-k index, pinned from the
# depth-first pivot recursion that the subset-table engine replaced
AB_PAIRS = {
    2: ((16, '7881d77bbbdad704fed70bcc8da91b4273767f87cdffcd2bae88319ba8a02fc0'),
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945')),
    3: ((972, '0606787643cca3cf288683c614101a19a7c098afa48fc4c5c5bef0677f41fcef'),
        (9, 'adb3969b31baa238442220d9c5a931d0202db61243395bf1ab1bc18261a120ba')),
}


def digest(pairs):
    return len(pairs), hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


@pytest.mark.parametrize("k", [2, 3])
def test_the_a_and_b_pairs_are_pinned(k):
    n = ground_size(k)
    a = [(s, t) + pair for s in range(1, n + 1) for t in index_I(s, k)
         for pair in matching_A(k, s, t)]
    b = [(s, u) + pair for s in range(1, n + 1) for u in index_J(s, k)
         for pair in matching_B(k, s, u)]
    assert (digest(a), digest(b)) == AB_PAIRS[k]


# the count and sha256 of the sorted (v, lower, upper) C pairs at k = 2,
# pinned from the per-face toggle walk that the toggle blocks replaced
C_PAIRS_K2 = (7856, '2ec3eabd5f8bc5396d05c003ea8493a6339586d97169dfbf08f562407ee67664')


def test_the_c_pairs_are_pinned():
    pairs = [(v,) + pair for v in fiber_reps(2) for pair in matching_C(2, v, c_fiber(2, v))]
    assert digest(pairs) == C_PAIRS_K2


@pytest.mark.parametrize("l", range(3, 9))
def test_the_parts_are_the_pivot_fiber_and_the_residue_classes(l):
    # on the per-k index, the pivot stage matches the pivot fiber of the
    # enumerated family and each further part is one residue class
    k = 3
    buckets = {}
    for sigma in a_family(k, 1, l):
        buckets.setdefault(delta_decompose(k, l, sigma), set()).add(sigma)
    parts = []
    for part in collapse._a_base(k, l):
        pairs = []
        wedge._to_index(part, pairs)
        parts.append({f for pair in pairs for f in pair})
    assert parts[0] == buckets.pop('pivot-fiber')
    assert sorted(map(sorted, parts[1:])) == sorted(map(sorted, buckets.values()))


@pytest.fixture
def fresh_bases():
    """Clear the memoized A-bases around a test that plants a defect in
    their recipe, so the defect is built and no broken base outlives it."""
    collapse._a_base.cache_clear()
    yield
    collapse._a_base.cache_clear()


def test_a_rotated_matching_that_misses_its_family_is_refused(fresh_bases, monkeypatch):
    # the (1, 4) base rotated one step too far for the family (k=2, s=2,
    # t=5): the transport certificate sees the support land off the family
    real = wedge.unstable_rep

    def off_by_one(v, k):
        l, j = real(v, k)
        return (l, j + 1) if (tuple(v), k) == ((2, 3, 5), 2) else (l, j)

    monkeypatch.setattr(wedge, 'unstable_rep', off_by_one)
    with pytest.raises(MatchingError, match=r"family \(A, 2, 5\): rotation by 2 sends the support "
                                            r"\[3, 5, 6, 7, 8\] to \[1, 2, 5, 7, 8\], not onto the "
                                            r"complement of \(2, 3, 5\)"):
        matching_A(2, 2, 5)


def plant_delta_rows(monkeypatch, edit):
    """``_delta_table`` at k = 3 with its rows passed through ``edit``."""
    real = collapse._delta_table
    monkeypatch.setattr(collapse, '_delta_table',
                        lambda k, l: edit(real(k, l)) if k == 3 else real(k, l))


def test_a_class_moved_by_the_wrong_shift_is_refused(fresh_bases, monkeypatch):
    # the class {9} of (1, 4) at k = 3 is the (2, 1, 4) family unrotated;
    # rotated by one it lands on other faces, off the class support
    def shifted(rows):
        extra, shift, sub_k, s, t = rows[2]
        return rows[:2] + [(extra, shift + 1, sub_k, s, t)] + rows[3:]

    plant_delta_rows(monkeypatch, shifted)
    with pytest.raises(MatchingError, match=r"family \(A, 1, 4\): rotation by 1 .* not onto "
                                            r"the complement of \(1, 2, 4, 9\)"):
        matching_A(3, 1, 4)


def test_swapped_extra_rows_are_refused(fresh_bases, monkeypatch):
    # the classes {5} and {9} of (1, 4) at k = 3 trade their uncovered
    # sets: each target is then certified against the other's missed set
    def swapped(rows):
        (e1, *r1), (e2, *r2) = rows[1], rows[2]
        return rows[:1] + [(e2, *r1), (e1, *r2)] + rows[3:]

    plant_delta_rows(monkeypatch, swapped)
    with pytest.raises(MatchingError, match=r"family \(A, 1, 4\): rotation by 1 .* not onto "
                                            r"the complement of \(1, 2, 4, 9\)"):
        matching_A(3, 1, 4)


def test_a_pivot_that_misses_its_class_is_refused(fresh_bases, monkeypatch):
    # (1, 4) at k = 3 toggles (3, 6, 9) while its residue table is still
    # the one of its pivot (3, 5, 9): the class {5} moves in as certified,
    # but adding (3, 6, 9) would leave 5 uncovered
    rows, table = _delta_table(3, 4), collapse._delta_table
    real = collapse.pivot_vertex
    monkeypatch.setattr(collapse, 'pivot_vertex',
                        lambda k, l: (3, 6, 9) if (k, l) == (3, 4) else real(k, l))
    monkeypatch.setattr(collapse, '_delta_table',
                        lambda k, l: rows if (k, l) == (3, 4) else table(k, l))
    with pytest.raises(MatchingError, match=r"family \(A, 1, 4\): pivot \(3, 6, 9\) at k=3 is not a "
                                            r"stable triple off \{1, 2, 4\} that holds the uncovered "
                                            r"elements \[5\] of its class"):
        matching_A(3, 1, 4)


def test_a_b_pullback_by_the_wrong_shift_is_refused(fresh_bases, monkeypatch):
    real = wedge.pullback

    def off_by_one(k, s, u):
        sub_s, sub_t, shift = real(k, s, u)
        return sub_s, sub_t, shift + 1

    monkeypatch.setattr(wedge, 'pullback', off_by_one)
    with pytest.raises(MatchingError, match=r"family \(B, 1, 4\): rotation by -5 .* not onto "
                                            r"the complement of \(1, 2, 4, 5\)"):
        matching_B(3, 1, 4)


def test_a_dropped_pivot_stage_fails_the_partition_count(fresh_bases, monkeypatch):
    monkeypatch.setattr(wedge, 'toggle_run', lambda faces, toggles: ([], faces))
    with pytest.raises(MatchingError, match=r"family \(A, 1, 4\) at k=2: 0 pivot pairs and 0 "
                                            r"class faces do not partition its \d+ faces"):
        matching_A(2, 1, 4)


def test_a_pivot_whose_class_reads_no_shape_is_refused(fresh_bases, monkeypatch):
    # (1, 4) at k = 3 pivoting on (3, 6, 9): its rows are derived from the
    # pivot, and the class {6}, rotated down by one, misses {1, 3, 5} at
    # k = 2, which holds a stable triple
    real = collapse.pivot_vertex
    monkeypatch.setattr(collapse, 'pivot_vertex',
                        lambda k, l: (3, 6, 9) if (k, l) == (3, 4) else real(k, l))
    with pytest.raises(MatchingError, match=r"family \(A, 1, 4\) at k=3: the class leaving \[6\] "
                                            r"uncovered, rotated down by 1, has support "
                                            r"\[2, 4, 6, 7, 8\], not the complement of a "
                                            r"pair-plus-one set in 1\.\.8"):
        matching_A(3, 1, 4)


def test_matching_A_empty_at_small_k():
    assert matching_A(1, 1, 3) == []


def stable_cover_count(missed, k):
    """The number of nonempty sets of stable triples that cover exactly the
    ground elements off ``missed``, by inclusion-exclusion over the subsets
    W of the support: the sum of (-1)^|support - W| (2^(stable triples
    inside W) - 1)."""
    support = [x for x in range(1, ground_size(k) + 1) if x not in missed]
    total = 0
    for size in range(len(support) + 1):
        for w in itertools.combinations(support, size):
            inside = sum(is_stable(t, k) for t in itertools.combinations(w, 3))
            total += (-1) ** (len(support) - size) * (2 ** inside - 1)
    return total


# per k, the A and B pairs summed over the families; at k = 4 a (1, l)
# support spans 35 triples, past SCAN_BITS, but at most 14 stable ones,
# which are all an A-family's table holds
AB_COUNTS = {2: (16, 0), 3: (972, 9), 4: (271310, 550)}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_each_a_and_b_family_has_half_its_faces_as_pairs(k):
    n = ground_size(k)
    a = [(stable_cover_count(pair_of(s, k) + (t,), k), len(matching_A(k, s, t)))
         for s in range(1, n + 1) for t in index_I(s, k)]
    b = [(stable_cover_count(pair_of(s, k) + pair_of(u, k), k), len(matching_B(k, s, u)))
         for s in range(1, n + 1) for u in index_J(s, k)]
    assert all(faces == 2 * pairs for faces, pairs in a + b)
    assert (sum(p for _, p in a), sum(p for _, p in b)) == AB_COUNTS[k]


def test_every_a_base_part_is_an_acyclic_matching():
    parts = [part for k in (2, 3, 4) for l in range(3, k + 6) for part in collapse._a_base(k, l)]
    assert len(parts) == 70
    for part in parts:
        ok, cycle = morse.is_acyclic(Matching(part.pairs))
        assert ok, cycle


@pytest.mark.parametrize("l", range(3, 9))
def test_delta_classes_biject_onto_their_targets(l):
    # k=3 normal-form family; drop the pivot faces, send each residue class
    # down by its shift, compare against the literal target family
    k = 3
    family = set(a_family(k, 1, l))
    if not family:
        return
    p = pivot_vertex(k, l)
    matched = {f for pair in morse.element_matching(family, face_key([p], k)) for f in pair}
    buckets = {}
    for sigma in family - matched:
        buckets.setdefault(delta_decompose(k, l, sigma), set()).add(sigma)
    for idx, (extra, shift, sub_k, s, t) in enumerate(_delta_table(k, l), start=1):
        bucket = buckets.get(idx, set())
        if sub_k <= 1:
            assert not bucket
            continue
        target = set(a_family(sub_k, s, t))
        image = {face_key([rotate(v, -shift, k) for v in members(sigma, k) if v != p], sub_k)
                 for sigma in bucket}
        assert len(image) == len(bucket)
        assert image == target


@pytest.mark.parametrize("l", range(3, 9))
def test_delta_class_labels_are_a_poset_map(l):
    k = 3
    family = sorted(a_family(k, 1, l))
    if not family:
        return

    def label(sigma):
        out = delta_decompose(k, l, sigma)
        return 0 if out == 'pivot-fiber' else -out

    ok, witness = morse.verify_poset_map({sigma: label(sigma) for sigma in family})
    assert ok, witness


# ---------------------------------------------------------------------------
# B-family matchings

def test_matching_B_pullback_bijection():
    hit = 0
    for s in range(1, 10):
        for u in index_J(s, 3):
            fam = set(b_family(3, s, u))
            if not fam:
                continue
            hit += 1
            shift = 8 - u  # sends {u, u+1} onto {8, 9}
            target_c = frozenset(rotate(pair_of(s, 3), shift, 3)) | {8}
            parsed = parse_three(target_c, 2)
            assert parsed is not None
            image = {face_key([rotate(v, shift, 3) for v in members(f, 3)], 2) for f in fam}
            assert len(image) == len(fam)
            assert image == set(a_family(2, *parsed))
            m = Matching(matching_B(3, s, u))
            assert is_perfect(m, fam)
            ok, _ = morse.is_acyclic(m)
            assert ok
    assert hit > 0


# ---------------------------------------------------------------------------
# C-fiber matchings

def fiber_reps(k):
    out = []
    for v in graphs.all_triples(k):
        if not is_stable(v, k) and c_fiber(k, v):
            out.append(v)
    return out


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matching_C_perfect_and_acyclic(k):
    for v in fiber_reps(k):
        fiber = c_fiber(k, v)
        m = Matching(matching_C(k, v, fiber))
        assert is_perfect(m, fiber)
        ok, witness = morse.is_acyclic(m)
        assert ok, witness


def test_matching_C_rejects_stable_vertex():
    with pytest.raises(ValueError, match="is stable"):
        matching_C(1, (1, 3, 5), [])


def graph_toggle(k, frame, sigma):
    """The C toggle read face by face: the lex-least common neighbor u of
    the face in the ``s`` graph, moved into v's frame by a rotation table;
    the toggle is {1, l, m}, m the least element of its covering interval
    off u and away from l for which u is still the lex-least stable triple
    inside u + {m}, moved back."""
    l, j = frame
    ix = triple_index(k)
    low = remap(graphs.graph('s', k).common_neighbors(sigma), rotation_table(k, k, -j))
    u = ix.triples[(low & -low).bit_length() - 1]
    m = min(t for t in range(u[0], u[2] + 1) if abs(t - l) > 1 and t not in u
            and min(w for w in itertools.combinations(sorted(u + (t,)), 3) if is_stable(w, k)) == u)
    return rotation_table(k, k, j)[ix.bit[tuple(sorted((1, l, m)))]]


# per k: C faces, (v, missed set) groups and (v, toggle) blocks
C_TOGGLES = {0: (0, 0, 0), 1: (84, 28, 14), 2: (15712, 248, 56), 3: (2, 2, 2)}

# at k = 3, two faces of the fiber of (1, 2, 4) and their toggles; the least
# element of the interval alone reads (1, 4, 6) for the first
K3_TOGGLES = {((1, 2, 4), (1, 4, 6), (2, 5, 8)): (1, 4, 8), ((1, 2, 4), (2, 5, 8)): (1, 4, 7)}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_c_toggle_equals_the_graph_toggle(k):
    ix = triple_index(k)
    full = (1 << ground_size(k)) - 1
    seen, groups, blocks = 0, set(), set()
    for sigma in [face_key(f, k) for f in K3_TOGGLES] if k == 3 else _s_faces(k):
        label = classify(sigma, k)
        if label[0] != 'C':
            continue
        frame = unstable_rep(label[1], k)
        missed = full & ~remap(sigma, ix.ground)
        x = collapse.c_toggle(k, frame, missed)
        assert x == graph_toggle(k, frame, sigma), members(sigma, k)
        if k == 3:
            assert x == face_key([K3_TOGGLES[members(sigma, k)]], k)
        seen += 1
        groups.add((label[1], missed))
        blocks.add((label[1], x))
    assert (seen, len(groups), len(blocks)) == C_TOGGLES[k]


def least_stable(k, elements):
    """The lex-least stable triple inside a set of ground elements, or None."""
    ix = triple_index(k)
    return next((t for t in itertools.combinations(sorted(elements), 3)
                 if ix.stable >> ix.bit[t] & 1), None)


def closure_failures(k, toggle):
    """The (l, M) where a toggle rule, read in the frame of {1, 2, l}, does
    not keep its block closed: for each missed set M off {1, 2, l} that
    holds a stable triple, with u its lex-least one, the rule must give a
    stable {1, l, m}, and if m is not in M, u must stay the lex-least
    stable triple of M + {m} (M - {m} keeps u, as m is off u)."""
    ix = triple_index(k)
    n = ground_size(k)
    failed = []
    for l in range(3, n):
        rest = [x for x in range(3, n + 1) if x != l]
        for size in range(3, len(rest) + 1):
            for missed in itertools.combinations(rest, size):
                u = least_stable(k, missed)
                if u is None:
                    continue
                x = toggle(k, (l, 0), vertex_mask(missed))
                t = None if x is None else ix.triples[x.bit_length() - 1]
                if t is None or not ix.stable & x or not {1, l} <= set(t):
                    failed.append((l, missed))
                    continue
                (m,) = set(t) - {1, l}
                if m not in missed and least_stable(k, missed + (m,)) != u:
                    failed.append((l, missed))
    return failed


def unguarded_toggle(k, frame, missed):
    """The C toggle before the guard, in the frame j = 0: m is the least
    element of ``comp_set(u*, l)``."""
    l, _ = frame
    u = least_stable(k, [x for x in range(1, ground_size(k) + 1) if missed >> (x - 1) & 1])
    m = min(collapse.comp_set(u, l), default=None)
    return None if m is None else 1 << triple_index(k).bit[tuple(sorted((1, l, m)))]


@pytest.mark.parametrize("k", range(7))
def test_the_c_toggle_closes_every_block(k):
    assert closure_failures(k, collapse.c_toggle) == []
    # the unguarded rule breaks the closure from k = 3 on
    assert len(closure_failures(k, unguarded_toggle)) == [0, 0, 0, 2, 14, 52, 148][k]


def test_the_guarded_toggle_pairs_the_k3_witness():
    # {124, 146, 258} misses {3, 7, 9}; unguarded it toggles 146, while
    # its facet {124, 258} misses {3, 6, 7, 9} and toggles 147.  Guarded,
    # 146 is passed over, as (3, 6, 9) is stable and lex-before (3, 7, 9)
    k, v = 3, (1, 2, 4)
    sigma = face_key([(1, 2, 4), (1, 4, 6), (2, 5, 8)], k)
    facet = face_key([(1, 2, 4), (2, 5, 8)], k)
    faces = [sigma, sigma | face_key([(1, 4, 8)], k), facet, facet | face_key([(1, 4, 7)], k)]
    assert sorted(matching_C(k, v, faces)) == sorted([(sigma, faces[1]), (facet, faces[3])])


def stratum_length(k, sigma):
    """Span of the common-neighbor set, in the normal-form frame of the
    face's lex-least unstable member: the length of the integer interval
    that covers every neighbor."""
    label = classify(sigma, k)
    assert label[0] == 'C', members(sigma, k)
    _, j = unstable_rep(label[1], k)
    nb = remap(graphs.graph('s', k).common_neighbors(sigma), rotation_table(k, k, -j))
    ends = [x for v in decode(nb, triple_index(k).triples) for x in (min(v), max(v))]
    return max(ends) - min(ends) + 1 if ends else 0


@pytest.mark.parametrize("l", [3, 4, 5])
def test_stratum_labels_are_a_poset_map(l):
    k = 2
    fiber = c_fiber(k, (1, 2, l))
    if not fiber:
        return
    ok, witness = morse.verify_poset_map({sigma: -stratum_length(k, sigma) for sigma in fiber})
    assert ok, witness


def b_strata(k, l):
    """Fiber of the normal-form vertex {1,2,l}, stratified by neighbor span."""
    strata = {}
    for sigma in c_fiber(k, (1, 2, l)):
        strata.setdefault(stratum_length(k, sigma), []).append(sigma)
    return strata


def test_b_strata_partition_the_fiber():
    strata = b_strata(2, 4)
    total = sum(len(v) for v in strata.values())
    assert total == len(c_fiber(2, (1, 2, 4)))
    for n_span, members in strata.items():
        assert all(stratum_length(2, s) == n_span for s in members)


# ---------------------------------------------------------------------------
# the composed collapse

THEOREM2_EXPECT = {0: (2, 0, 2), 1: (98, 42, 14), 2: (15966, 7872, 222)}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_theorem2_matching(k):
    rep = theorem2_matching(k)
    cells, pairs, crit = THEOREM2_EXPECT[k]
    assert rep.records[-1].cells == cells
    assert len(rep.matching.pairs) == pairs
    assert len(rep.critical) == crit
    assert set(rep.critical) == complex_for('sg', k).all_faces()
    assert all(r.acyclic for r in rep.records)
    assert all(r.perfect for r in rep.records
               if r.fiber not in ('SG', 'all'))


def test_theorem2_critical_size_distribution_k2():
    rep = theorem2_matching(2)
    assert dict(Counter(c.bit_count() for c in rep.critical)) == {
        1: 16, 2: 68, 3: 88, 4: 42, 5: 8}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_theorem2_euler_conservation(k):
    # the matching cancels in +-1 pairs, so the alternating sum of face
    # counts is preserved on the critical complex
    rep = theorem2_matching(k)
    faces = _s_faces(k)
    full = sum((-1) ** (f.bit_count() - 1) for f in faces)
    crit = sum((-1) ** (c.bit_count() - 1) for c in rep.critical)
    assert full == crit
    assert len(faces) == 2 * len(rep.matching.pairs) + len(rep.critical)


@pytest.mark.parametrize("flip", [(1, 2, 4), (1, 3, 5)])
def test_theorem2_catches_a_flipped_stability_bit(flip, monkeypatch):
    # one bit of the per-k stable mask flipped, either way: some face lands
    # in the wrong family, and the error names it decoded
    theorem2_matching(1)  # the graphs and face sets are cached unpatched
    real = graphs.triple_index
    ix = real(1)
    flipped = ix._replace(stable=ix.stable ^ 1 << ix.bit[flip])
    monkeypatch.setattr(graphs, 'triple_index', lambda k: flipped if k == 1 else real(k))
    with pytest.raises(MatchingError, match=r"face \(\(\d+, \d+, \d+\)"):
        theorem2_matching(1)


# ---------------------------------------------------------------------------
# planted defects in the fiber matchings at k = 2: each whole-complex check
# of theorem2_matching, and each fiber's own check, raises with decoded
# faces and the fiber

def planted_cycle_site(k):
    """The first C fiber, with faces a, x, y, z (single bits for x, y, z)
    such that a+x, a+y, a+z and a+x+y, a+y+z, a+z+x all lie in the fiber."""
    width = len(triple_index(k).triples)
    for v in fiber_reps(k):
        fiber = set(c_fiber(k, v))
        for a in sorted(fiber):
            ups = [1 << b for b in range(width) if not a >> b & 1 and a | 1 << b in fiber]
            for x, y, z in itertools.combinations(ups, 3):
                if {a | x | y, a | y | z, a | z | x} <= fiber:
                    return v, a, x, y, z
    raise AssertionError("no C fiber at k=%d holds a three-pair cycle" % k)


def plant_cycle(monkeypatch):
    # pairs (a+x, a+x+y), (a+y, a+y+z), (a+z, a+z+x) replace whatever matched
    # those six faces in one C fiber; each upper face has the next lower face
    # as a facet, so the three pairs close a cycle
    v, a, x, y, z = planted_cycle_site(2)
    planted = [(a | x, a | x | y), (a | y, a | y | z), (a | z, a | z | x)]
    touched = {f for pair in planted for f in pair}
    real = collapse.matching_C

    def matching(k, u, faces):
        pairs = real(k, u, faces)
        if (k, u) != (2, v):
            return pairs
        return [p for p in pairs if not touched & set(p)] + planted

    monkeypatch.setattr(collapse, 'matching_C', matching)
    return r"close a cycle at face \(\(\d+, \d+, \d+\).*\[fiber C v=%s\]" % "".join(map(str, v))


def plant_misfiled_pair(monkeypatch):
    # the pair of fiber A s=1 t=7 is filed under fiber A s=1 t=4 instead
    real = collapse.matching_A

    def matching(k, s, t):
        if k != 2 or (s, t) not in ((1, 4), (1, 7)):
            return real(k, s, t)
        if t == 7:
            return []
        return real(2, 1, 4) + real(2, 1, 7)

    monkeypatch.setattr(collapse, 'matching_A', matching)
    return r"filed under fiber A s=1 t=4 straddles fibers at face \(\(\d+, \d+, \d+\).*\[fiber A s=1 t=7\]"


def plant_dropped_pair(monkeypatch):
    # the first pair of fiber A s=1 t=4 is left out, so both its faces stay critical
    real = collapse.matching_A

    def matching(k, s, t):
        pairs = real(k, s, t)
        return pairs[1:] if (k, s, t) == (2, 1, 4) else pairs

    monkeypatch.setattr(collapse, 'matching_A', matching)
    return r"stable subcomplex differ at face \(\(\d+, \d+, \d+\).*\[fiber A s=1 t=4\]"


def plant_sg_face_in_a_c_fiber(monkeypatch):
    # a maximal face of sg classified into the C fiber that orders lowest
    # among the non-SG fibers, so the classifier stays order-preserving;
    # the face holds no unstable member, and the fiber's own membership
    # check refuses it before any pair is built
    f = min(complex_for('sg', 2).maximal)
    v = [t for t in triple_index(2).triples if not is_stable(t, 2)][-1]
    real = collapse.classify
    monkeypatch.setattr(collapse, 'classify',
                        lambda sigma, k: ('C', v) if (sigma, k) == (f, 2) else real(sigma, k))
    return r"face %s filed under the fiber of %s does not hold it" \
        % (re.escape(repr(members(f, 2))), re.escape(repr(v)))


def plant_largest_toggle_element(monkeypatch):
    # the C toggle built from the largest admissible element instead of the
    # least leaves faces of the fiber of (5, 7, 8) unmatched
    real = collapse.comp_set
    monkeypatch.setattr(collapse, 'comp_set', lambda u_star, l: set(sorted(real(u_star, l))[-1:]))
    return r"fiber of \(5, 7, 8\) not perfectly matched; first unmatched: \[\(\(\d+, \d+, \d+\)"


def plant_partner_in_another_block(monkeypatch):
    # in the first C fiber at k = 2 where a face's partner misses one
    # element less, that partner's missed set is given another toggle: the
    # partner moves to another block and the face is left unmatched.  A
    # face is matched iff its toggle partner lies in the fiber and reads
    # the same toggle; the error names the first three faces that are not
    k, real = 2, collapse.c_toggle
    ix = triple_index(k)
    full = (1 << ground_size(k)) - 1
    for v in fiber_reps(k):
        frame = unstable_rep(v, k)
        fiber = set(c_fiber(k, v))
        for sigma in sorted(fiber):
            missed = full & ~remap(sigma, ix.ground)
            x = real(k, frame, missed)
            moved = full & ~remap(sigma | x, ix.ground)
            if not sigma & x and sigma | x in fiber and moved != missed:
                other = 2 if x == 1 else 1
                monkeypatch.setattr(
                    collapse, 'c_toggle',
                    lambda kk, fr, missed: other if (kk, fr, missed) == (k, frame, moved)
                    else real(kk, fr, missed))

                def toggle(f):
                    return collapse.c_toggle(k, frame, full & ~remap(f, ix.ground))

                unmatched = [f for f in sorted(fiber)
                             if f ^ toggle(f) not in fiber or toggle(f ^ toggle(f)) != toggle(f)]
                return re.escape("fiber of %r not perfectly matched; first unmatched: %r"
                                 % (v, [members(f, k) for f in unmatched[:3]])) + "$"
    raise AssertionError("no C fiber at k=2 has a partner with a smaller missed set")


def plant_face_matched_twice(monkeypatch):
    # the first C fiber at k = 2 gains a second pair on the lower face of
    # one of its pairs, to another cover of that face inside the fiber: both
    # pairs lie in the fiber, so only the union's one Matching refuses them
    k, real = 2, collapse.matching_C
    width = len(triple_index(k).triples)
    v = fiber_reps(k)[0]
    fiber = c_fiber(k, v)
    for sigma, tau in real(k, v, fiber):
        others = [sigma | 1 << b for b in range(width)
                  if not sigma >> b & 1 and sigma | 1 << b in fiber and sigma | 1 << b != tau]
        if others:
            extra = (sigma, others[0])
            monkeypatch.setattr(collapse, 'matching_C', lambda kk, u, faces: real(kk, u, faces)
                                + ([extra] if (kk, u) == (k, v) else []))
            tag = "".join(map(str, v))
            return r"pair filed under fiber C v=%s holds a face matched twice at face %s \[fiber C v=%s\]$" \
                % (tag, re.escape(repr(members(sigma, k))), tag)
    raise AssertionError("no pair of the first C fiber at k=2 has a lower face with another cover")


def plant_face_under_a_later_fiber(monkeypatch):
    # a face of one C fiber that also holds a later unstable triple is filed
    # under that triple's fiber: the fiber's membership check names the
    # earlier unstable member the face holds
    k, real = 2, collapse.classify
    for v in fiber_reps(k):
        for sigma in c_fiber(k, v):
            later = [t for t in members(sigma, k) if not is_stable(t, k) and t > v]
            if later:
                monkeypatch.setattr(collapse, 'classify', lambda f, kk: ('C', later[-1])
                                    if (f, kk) == (sigma, k) else real(f, kk))
                return r"face %s filed under the fiber of %s holds the earlier unstable member %s$" \
                    % tuple(re.escape(repr(x)) for x in (members(sigma, k), later[-1], v))
    raise AssertionError("no C face at k=2 holds two unstable triples")


PLANTS = [plant_cycle, plant_misfiled_pair, plant_dropped_pair, plant_sg_face_in_a_c_fiber,
          plant_largest_toggle_element, plant_partner_in_another_block, plant_face_matched_twice,
          plant_face_under_a_later_fiber]


@pytest.mark.parametrize("plant", PLANTS)
def test_theorem2_names_a_planted_defect(plant, monkeypatch):
    match = plant(monkeypatch)
    with pytest.raises(MatchingError, match=match):
        theorem2_matching(2)


@pytest.mark.parametrize("plant", PLANTS)
def test_the_cli_fails_on_a_planted_defect(plant, monkeypatch, capsys):
    match = plant(monkeypatch)
    code = cli.main(["verify", "theorem2", "--k", "2", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    (result,) = json.loads(out)['results']
    assert result['pass'] is False
    assert result['detail']['error'].startswith("MatchingError: ")
    assert re.search(match, result['detail']['error'])
    assert err.splitlines()[0] == "FAIL theorem2-collapse"
