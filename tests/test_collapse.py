"""The family decomposition and its fiber matchings.

Everything here is checked mechanically: the classifier partitions the
faces, each fiber matching is perfect and acyclic, the pullback maps between
families are bijections, and the composed matching leaves exactly the stable
subcomplex critical.  The face-level oracle lists every face of ``s``: the
parts ``theorem2_matching`` builds must partition them, and their pairs,
composed face by face under the classifier, must be acyclic with ``sg``
critical.
"""

import ast
import dataclasses
import functools
import hashlib
import itertools
import json
import re
from collections import Counter

import pytest

from kneser_morse import cli, collapse, graphs, morse, wedge
from kneser_morse.collapse import (
    classify, label_key, matching_A, matching_B, matching_C, theorem2_matching,
)
from kneser_morse.complexes import complex_for, decode, face_key, remap
from kneser_morse.graphs import (
    ground_size, is_stable, missed_shape, p_complement, q_complement, rotate,
    triple_index, unstable_rep, vertex_mask,
)
from kneser_morse.morse import Matching, MatchingError


def members(sigma, k):
    return decode(sigma, triple_index(k).triples)


@functools.lru_cache(maxsize=None)
def _s_faces(k):
    """Every face of ``s``, listed: the face-level oracle's one table."""
    return frozenset(complex_for('s', k).all_faces())


def index_table(fm):
    """Per bit of a part's dictionary, the one-bit mask of its triple in
    the per-k index."""
    bit = triple_index(fm.k).bit
    return [1 << bit[t] for t in fm.triples]


def index_pairs(fm):
    """The pairs of a part over the per-k index; none for an empty family."""
    if fm is None:
        return []
    table = index_table(fm)
    return [(remap(a, table), remap(b, table)) for a, b in fm.pairs]


def index_faces(fm):
    """The faces of a part over the per-k index."""
    table = index_table(fm)
    return [remap(f, table) for f in fm.faces]


def c_pairs(k, v):
    """The pairs of every block of the fiber of v, over the per-k index."""
    return [pair for block in matching_C(k, v) for pair in index_pairs(block)]


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
# stable triples; the matchings under test build the same families on the
# subset tables of their stable triples

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
            assert matching_B(k, s, u) is None


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


def key_block_rising(monkeypatch):
    # inside a fiber the block keys fall as u* moves on in lex order, so a
    # facet, whose lex-least stable triple is no later, can key above
    real = collapse.label_key
    monkeypatch.setattr(collapse, 'label_key', lambda label, k: (
        real(label[:2], k) + (-triple_index(k).bit[label[2]],) if label[0] == 'C' and label[2:]
        else real(label, k)))


@pytest.mark.parametrize("plant,match", [
    (key_b_above_a, r"facet shape \(1, 2, 3, 4\) \('B', 1, 3\) keys above face shape "
                    r"\(1, 2, 3\) \('A', 1, 3\)$"),
    (key_c_rising, r"label \('C', \(1, 2, 4\)\) keys above label \('C', \(1, 2, 3\)\)$"),
    (key_block_rising, r"facet shape \([\d, ]+\) \('C', \(1, 2, \d\), \(\d, \d, \d\)\) keys above face "
                       r"shape \([\d, ]+\) \('C', \(1, 2, \d\), \(\d, \d, \d\)\)$"),
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


def block_order_witness(message):
    """(l, M, u* of M, M + x, u* of M + x) of a block-order refusal."""
    found = re.fullmatch(r"classifier not order-preserving: facet shape (\(.*?\)) \('C', \(1, 2, (\d+)\), "
                         r"(\(.*?\))\) keys above face shape (\(.*?\)) \('C', \(1, 2, \d+\), (\(.*?\))\)",
                         message)
    grown, l, facet, missed, face = found.groups()
    return (int(l),) + tuple(map(ast.literal_eval, (missed, face, grown, facet)))


@pytest.mark.parametrize("l", range(3, 9))
def test_every_frame_of_the_block_order_is_checked(l, monkeypatch):
    # block keys that fall with u* in the frame of (1, 2, l) alone, at
    # k = 3: the refusal names a missed set off (1, 2, l), a one-element
    # growth, and the lex-least stable triple of each
    real = collapse.label_key
    monkeypatch.setattr(collapse, 'label_key', lambda label, k: (
        real(label[:2], k) + (-triple_index(k).bit[label[2]],) if label[:2] == ('C', (1, 2, l))
        and label[2:] else real(label, k)))
    with pytest.raises(MatchingError) as refused:
        collapse.check_label_order(3)
    at, missed, face, grown, facet = block_order_witness(str(refused.value))
    assert at == l and not set(grown) & {1, 2, l} and set(missed) < set(grown)
    assert len(grown) == len(missed) + 1
    assert (least_stable(3, missed), least_stable(3, grown)) == (face, facet) and facet < face


def block_rises(k, l):
    """The (u*, u* after a one-element growth) that differ, over the missed
    sets off (1, 2, l): the block pairs whose order the check reads."""
    off = [x for x in range(3, ground_size(k) + 1) if x != l]
    rises = set()
    for size in range(3, len(off) + 1):
        for missed in itertools.combinations(off, size):
            face = least_stable(k, missed)
            for x in set(off) - set(missed) if face else ():
                facet = least_stable(k, sorted(missed + (x,)))
                if facet != face:
                    rises.add((face, facet))
    return rises


@pytest.mark.parametrize("k", [2, 3])
def test_every_rise_of_a_block_key_is_caught(k, monkeypatch):
    # for each block pair (a, b) that a growth passes, b's key alone moves
    # just above a's, in one frame: the check must name b
    real = collapse.label_key
    for l in range(3, ground_size(k)):
        for a, b in sorted(block_rises(k, l)):
            monkeypatch.setattr(collapse, 'label_key', lambda label, k: (
                real(label[:2] + (a,), k) + (1,) if label == ('C', (1, 2, l), b) else real(label, k)))
            with pytest.raises(MatchingError) as refused:
                collapse.check_label_order(k)
            at, _, _, _, facet = block_order_witness(str(refused.value))
            assert (at, facet) == (l, b)


def test_every_step_of_the_c_chain_is_checked(monkeypatch):
    # two C fibers next to each other along the per-k index, or the last
    # one and SG, swap their keys: the check names exactly that step
    ix = triple_index(2)
    chain = [('C', t) for b, t in enumerate(ix.triples) if not ix.stable >> b & 1] + [('SG',)]
    real = collapse.label_key
    for above, below in zip(chain, chain[1:]):
        swap = {above: real(below, 2), below: real(above, 2)}
        monkeypatch.setattr(collapse, 'label_key', lambda label, k: swap.get(label) or real(label, k))
        with pytest.raises(MatchingError, match=re.escape("label %r keys above label %r" % (below, above))):
            collapse.check_label_order(2)


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


def test_the_block_order_holds_on_every_frame(monkeypatch):
    # check_label_order reads the block keys in the frames of {1, 2, l}
    # alone; read face by face, in every frame, a facet of a block face
    # that keeps v reads a block key no higher
    for k in (1, 2):
        keys = {}
        for sigma in _s_faces(k):
            label = classify(sigma, k)
            if label[0] == 'C':
                u = rotate(block_of(k, label[1], sigma), -unstable_rep(label[1], k)[1], k)
                keys[sigma] = label_key(label + (u,), k)
        for sigma, key in keys.items():
            for facet, _ in morse.face_facets(sigma):
                assert facet not in keys or keys[facet] <= key, members(sigma, k)


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
            m = Matching(index_pairs(matching_A(k, s, t)))
            assert is_perfect(m, fam)
            ok, witness = morse.is_acyclic(m)
            assert ok, witness
            pairs_seen += len(m.pairs)
    assert pairs_seen > 0


# per k, the count and sha256 of the sorted (s, t, lower, upper) A pairs and
# (s, u, lower, upper) B pairs over the per-k index; k = 2 and 3 are pinned
# from the depth-first pivot recursion that the subset-table engine replaced,
# and the one toggle run, pivot first, keeps them; k = 4 is pinned from that
# run, so another toggle order reads as another digest
AB_PAIRS = {
    2: ((16, '7881d77bbbdad704fed70bcc8da91b4273767f87cdffcd2bae88319ba8a02fc0'),
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945')),
    3: ((972, '0606787643cca3cf288683c614101a19a7c098afa48fc4c5c5bef0677f41fcef'),
        (9, 'adb3969b31baa238442220d9c5a931d0202db61243395bf1ab1bc18261a120ba')),
    4: ((271310, 'b698fe4395ee83ffbefc63f25be94b9376979e87611664c6236891b19d8a4369'),
        (550, '734d0ef0b20446c966cfbcee5280834068b5f7ac4dda4baff676410fab16c144')),
}


def digest(pairs):
    return len(pairs), hashlib.sha256(repr(sorted(pairs)).encode()).hexdigest()


def ab_digests(k):
    """The digests of every A pair and every B pair at k, tagged by family."""
    n = ground_size(k)
    a = [(s, t) + pair for s in range(1, n + 1) for t in index_I(s, k)
         for pair in index_pairs(matching_A(k, s, t))]
    b = [(s, u) + pair for s in range(1, n + 1) for u in index_J(s, k)
         for pair in index_pairs(matching_B(k, s, u))]
    return digest(a), digest(b)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_a_and_b_pairs_are_pinned(k):
    assert ab_digests(k) == AB_PAIRS[k]


# the count and sha256 of the sorted (v, lower, upper) C pairs at k = 2,
# pinned from the per-face toggle walk that the toggle blocks replaced
C_PAIRS_K2 = (7856, '2ec3eabd5f8bc5396d05c003ea8493a6339586d97169dfbf08f562407ee67664')


def test_the_c_pairs_are_pinned():
    pairs = [(v,) + pair for v in fiber_reps(2) for pair in c_pairs(2, v)]
    assert digest(pairs) == C_PAIRS_K2


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


def test_a_b_pullback_by_the_wrong_shift_is_refused(fresh_bases, monkeypatch):
    real = wedge.pullback

    def off_by_one(k, s, u):
        sub_s, sub_t, shift = real(k, s, u)
        return sub_s, sub_t, shift + 1

    monkeypatch.setattr(wedge, 'pullback', off_by_one)
    with pytest.raises(MatchingError, match=r"family \(B, 1, 4\): rotation by -5 .* not onto "
                                            r"the complement of \(1, 2, 4, 5\)"):
        matching_B(3, 1, 4)


def test_a_run_that_skips_the_pivot_stage_leaves_a_survivor(fresh_bases, monkeypatch):
    real = wedge.toggle_run
    monkeypatch.setattr(wedge, 'toggle_run', lambda faces, toggles: real(faces, toggles[1:]))
    for k, face in [(2, r"\(\(3, 5, 7\), \(3, 6, 8\)\)"),
                    (3, r"\(\(3, 5, 7\), \(3, 5, 8\), \(3, 6, 9\)\)")]:
        with pytest.raises(MatchingError, match=r"family \(A, 1, 4\) at k=%d: face %s survives "
                                                r"the toggle run$" % (k, face)):
            matching_A(k, 1, 4)


def test_a_swapped_pivot_changes_the_pinned_pairs(fresh_bases, monkeypatch):
    # (3, 6, 9) for the pivot (3, 5, 9) of (1, 4) at k = 3 still leaves no
    # survivor, so it breaks the toggle order alone, which the pin catches
    real = collapse.pivot_vertex
    monkeypatch.setattr(collapse, 'pivot_vertex',
                        lambda k, l: (3, 6, 9) if (k, l) == (3, 4) else real(k, l))
    a, b = ab_digests(3)
    assert a[0] == AB_PAIRS[3][0][0] and a != AB_PAIRS[3][0]
    assert b == AB_PAIRS[3][1]


def test_no_pivot_is_refused():
    # at k = 0 no stable triple off {1, 2, l} holds 6 and a neighbour of l
    for l in (3, 4, 5):
        with pytest.raises(MatchingError, match=r"family \(A, 1, %d\) at k=0: no stable triple "
                                                r"off \{1, 2, %d\} holds 6" % (l, l)):
            collapse.pivot_vertex(0, l)


def test_matching_A_empty_at_small_k():
    assert matching_A(1, 1, 3) is None


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
    a = [(stable_cover_count(pair_of(s, k) + (t,), k), len(index_pairs(matching_A(k, s, t))))
         for s in range(1, n + 1) for t in index_I(s, k)]
    b = [(stable_cover_count(pair_of(s, k) + pair_of(u, k), k), len(index_pairs(matching_B(k, s, u))))
         for s in range(1, n + 1) for u in index_J(s, k)]
    assert all(faces == 2 * pairs for faces, pairs in a + b)
    assert (sum(p for _, p in a), sum(p for _, p in b)) == AB_COUNTS[k]


def test_every_a_base_is_one_run_with_no_survivor():
    bases = [base for k in (2, 3, 4) for l in range(3, k + 6) if (base := collapse._a_base(k, l))]
    assert len(bases) == 15
    for base in bases:
        low, up = base.pairs.bitsets()
        assert low | up == base.faces.bits
        ok, cycle = morse.is_acyclic(Matching(base.pairs))
        assert ok, cycle


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
            m = Matching(index_pairs(matching_B(3, s, u)))
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
        m = Matching(c_pairs(k, v))
        assert is_perfect(m, fiber)
        ok, witness = morse.is_acyclic(m)
        assert ok, witness


def test_matching_C_rejects_stable_vertex():
    with pytest.raises(ValueError, match="is stable"):
        matching_C(1, (1, 3, 5))


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
    paired = set()
    for block in matching_C(k, v):  # read off the stages: the fiber has 2^20 faces
        local = {t: 1 << b for b, t in enumerate(block.triples)}
        (b, up), = block.pairs.stages
        for lower, upper in zip(faces[::2], faces[1::2]):
            if all(t in local for t in members(upper, k)):
                tau = sum(local[t] for t in members(upper, k))
                if up >> tau & 1 and tau ^ 1 << b == sum(local[t] for t in members(lower, k)):
                    paired.add((lower, upper))
    assert paired == {(sigma, faces[1]), (facet, faces[3])}


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
    assert rep.records[-1].pairs == pairs
    labels = sorted(rep.fibers, key=lambda label: label_key(label, k))
    assert [r.fiber for r in rep.records] == ['SG'] + [collapse._fiber_tag(la) for la in labels] + ['all']
    assert all(r.critical_count == r.cells - 2 * r.pairs for r in rep.records)
    assert (rep.poset_map_route, rep.partition_route) == ('lattice', 'count')
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
    assert len(faces) == 2 * rep.records[-1].pairs + len(rep.critical)


def compose_face_level(k, rep):
    """The whole-complex check that theorem2_matching made before the
    blocks, kept as the oracle: every face of s filed by its classifier
    key, the pairs of each fiber's parts filed under that key and composed
    by ``morse.compose_cluster``, one acyclicity search over the union, and
    the faces it leaves unmatched.  Returns (acyclic, critical)."""
    keys, key_of = {}, {}
    for sigma in sorted(_s_faces(k)):
        label = classify(sigma, k)
        if label not in keys:
            keys[label] = label_key(label, k)
        key_of[sigma] = keys[label]
    composed = morse.compose_cluster(key_of, {
        keys[label]: [pair for fm in parts for pair in index_pairs(fm)]
        for label, parts in rep.fibers.items()})
    ok, _ = morse.is_acyclic(composed)
    return ok, [f for f in key_of if f not in composed.partner]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_parts_and_sg_partition_s(k):
    rep = theorem2_matching(k)
    faces = Counter(rep.critical)
    faces.update(f for parts in rep.fibers.values() for fm in parts for f in index_faces(fm))
    assert set(faces) == _s_faces(k)
    assert set(faces.values()) == {1}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_face_level_composition_agrees(k):
    rep = theorem2_matching(k)
    assert compose_face_level(k, rep) == (True, rep.critical)


def face_counts(k):
    """|s| and |sg| with no face listed: for the triples of a pool, the
    number of nonempty sets of them that cover exactly the ground mask U is
    the Moebius transform over the subsets of U of 2^(triples inside) - 1.
    A face of s misses a stable triple, or is all-stable and misses at
    least three elements; a face of sg is all-stable and misses a stable
    triple."""
    n = ground_size(k)
    full, ix = (1 << n) - 1, triple_index(k)

    def covering(pool):
        f = [2 ** sum(1 for g in pool if not g & ~w) - 1 for w in range(1 << n)]
        for i in range(n):
            for w in range(1 << n):
                if w >> i & 1:
                    f[w] -= f[w ^ 1 << i]
        return f

    every = covering(ix.ground)
    stable = covering([g for b, g in enumerate(ix.ground) if ix.stable >> b & 1])
    holds = [missed_shape(full ^ u, k) is True for u in range(1 << n)]
    s = sum(every[u] if holds[u] else stable[u] * ((full ^ u).bit_count() >= 3) for u in range(1 << n))
    return s, sum(stable[u] for u in range(1 << n) if holds[u])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_face_counts_are_the_listed_sizes(k):
    assert face_counts(k) == (len(_s_faces(k)), len(complex_for('sg', k).all_faces()))


def test_the_blocks_count_the_c_faces_at_k3():
    # theorem2_matching stops at k = 2, where all_faces can still list s;
    # at k = 3 the blocks, the A- and B-families and sg count |s| too
    k, ix = 3, triple_index(3)
    blocks = faces = pairs = 0
    for b, v in enumerate(ix.triples):
        if not ix.stable >> b & 1:
            for fm in matching_C(k, v):
                blocks, faces, pairs = blocks + 1, faces + len(fm.faces), pairs + len(fm.pairs)
    assert (blocks, faces, pairs) == (324, 31360536, 15680268)
    a = sum(len(index_pairs(matching_A(k, s, t))) for s in range(1, 10) for t in index_I(s, k))
    b = sum(len(index_pairs(matching_B(k, s, u))) for s in range(1, 10) for u in index_J(s, k))
    assert face_counts(k) == (31377534, 15036) == (15036 + faces + 2 * a + 2 * b, 15036)


def test_theorem2_classifies_only_sg_and_matches_only_stages(monkeypatch):
    calls, real_classify, real_matching = [], collapse.classify, wedge.Matching

    def matching(pairs):
        assert isinstance(pairs, morse.StagePairs)
        return real_matching(pairs)

    monkeypatch.setattr(collapse, 'classify', lambda sigma, k: calls.append(sigma) or real_classify(sigma, k))
    monkeypatch.setattr(wedge, 'Matching', matching)
    rep = theorem2_matching(2)
    assert sorted(calls) == rep.critical == sorted(complex_for('sg', 2).all_faces())


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
# planted defects at k = 2: each check of a block, of an A-family or of
# theorem2_matching's composition raises with a decoded face, its fiber and,
# for a C-fiber, its block

def block_tag(v, block):
    return "fiber C v=%s, block u*=%s" % ("".join(map(str, v)), "".join(map(str, block.cset)))


def block_of(k, v, sigma):
    """The u* of a face of the fiber of v, read face by face: the lex-least
    stable triple of its missed set in v's frame, rotated back."""
    _, j = unstable_rep(v, k)
    missed = set(range(1, ground_size(k) + 1)) - {x for t in members(sigma, k) for x in t}
    u = least_stable(k, [rotate(x, -j, k) for x in missed])
    return None if u is None else rotate(u, j, k)


def with_stages(monkeypatch, target, edit):
    """``wedge.toggle_run`` with the stages of the block whose faces are
    ``target`` passed through ``edit``; every other run is left alone."""
    real = wedge.toggle_run

    def run(faces, toggles):
        stages, rest = real(faces, toggles)
        return (edit(stages) if faces == target else stages), rest

    monkeypatch.setattr(wedge, 'toggle_run', run)


def planted_cycle_site(k):
    """The first block, with local faces a, x, y, z (single bits for x, y,
    z) such that a+x, a+y, a+z and a+x+y, a+y+z, a+z+x all lie in it."""
    for v in fiber_reps(k):
        for block in matching_C(k, v):
            faces = block.faces.bits
            for a in block.faces:
                ups = [1 << b for b in range(len(block.triples))
                       if not a >> b & 1 and faces >> (a | 1 << b) & 1]
                for x, y, z in itertools.combinations(ups, 3):
                    if all(faces >> f & 1 for f in (a | x | y, a | y | z, a | z | x)):
                        return v, block, a, x, y, z
    raise AssertionError("no block at k=%d holds a three-pair cycle" % k)


def plant_cycle(monkeypatch):
    # pairs (a+x, a+x+y), (a+y, a+y+z), (a+z, a+z+x) replace whatever matched
    # those six faces in one block's stages; each upper face has the next
    # lower face as a facet, so the three pairs close a cycle
    v, block, a, x, y, z = planted_cycle_site(2)
    six = {a | x, a | y, a | z, a | x | y, a | y | z, a | z | x}

    def edit(stages):
        out = []
        for b, up in stages:
            for f in six:
                up &= ~(1 << f | (0 if f >> b & 1 else 1 << (f | 1 << b)))
            out.append((b, up))
        return out + [(w.bit_length() - 1, 1 << (a | u | w)) for u, w in ((x, y), (y, z), (z, x))]

    with_stages(monkeypatch, block.faces.bits, edit)
    return re.escape(block_tag(v, block)) + r": matched pairs close a cycle at face \(\(\d+, \d+, \d+\)"


def plant_dropped_pair(monkeypatch):
    # the first pair of fiber A s=1 t=4 is left out, so both its faces stay
    # unmatched, which the count of matched faces sees
    real = collapse.matching_A

    def matching(k, s, t):
        fm = real(k, s, t)
        if (k, s, t) != (2, 1, 4):
            return fm
        (b, up), *rest = fm.pairs.stages
        return dataclasses.replace(fm, pairs=morse.StagePairs([(b, up & (up - 1))] + rest))

    monkeypatch.setattr(collapse, 'matching_A', matching)
    return r"face \(\(\d+, \d+, \d+\).* of s lies in 0 parts \[fiber A s=1 t=4\]$"


def plant_sg_face_in_a_c_fiber(monkeypatch):
    # a maximal face of sg classified into the C fiber that orders lowest
    # among the non-SG fibers, so the classifier stays order-preserving;
    # the face holds no unstable member, and the check that every face of
    # sg classifies as SG names it with the block its missed set reads
    f = min(complex_for('sg', 2).maximal)
    v = [t for t in triple_index(2).triples if not is_stable(t, 2)][-1]
    real = collapse.classify
    monkeypatch.setattr(collapse, 'classify',
                        lambda sigma, k: ('C', v) if (sigma, k) == (f, 2) else real(sigma, k))
    tag = "fiber C v=%s, block u*=%s" % ("".join(map(str, v)), "".join(map(str, block_of(2, v, f))))
    return re.escape("face %r of sg classifies into [%s], not as SG" % (members(f, 2), tag)) + "$"


def plant_largest_toggle_element(monkeypatch):
    # the C toggle built from the largest admissible element instead of the
    # least: the guard refuses it for a block of the fiber of (1, 2, 4),
    # which is left with no toggle, so none of its faces is matched
    real = collapse.comp_set
    monkeypatch.setattr(collapse, 'comp_set', lambda u_star, l: set(sorted(real(u_star, l))[-1:]))
    return r"fiber C v=124, block u\*=\d+: face \(\(1, 2, 4\).* survives the toggle run$"


def plant_partner_in_another_block(monkeypatch):
    # in the first block at k = 2 that has one, the toggle is replaced by
    # another stable triple of its table under which a face's partner
    # reads another u*: the partner lies in another block of the fiber, so
    # the face survives the block's run
    k, real = 2, collapse.c_toggle
    ix = triple_index(k)
    for v in fiber_reps(k):
        fiber = set(c_fiber(k, v))
        for block in matching_C(k, v):
            table = index_table(block)
            for b, t in enumerate(block.triples[:-1]):
                _, rest = wedge.toggle_run(block.faces.bits, [b])
                if not is_stable(t, k) or not rest:
                    continue
                f = (rest & -rest).bit_length() - 1
                partner = remap(f ^ 1 << b, table)
                if partner in fiber and block_of(k, v, partner) != block.cset:
                    frame, umask = unstable_rep(v, k), vertex_mask(block.cset)
                    monkeypatch.setattr(collapse, 'c_toggle', lambda kk, fr, missed: 1 << ix.bit[t]
                                        if (kk, fr, missed) == (k, frame, umask) else real(kk, fr, missed))
                    return re.escape("%s: face %r survives the toggle run"
                                     % (block_tag(v, block), block.decode(f))) + "$"
    raise AssertionError("no block at k=2 has a toggle whose partner leaves it")


def plant_face_matched_twice(monkeypatch):
    # the first block at k = 2 gains a second pair on the lower face of one
    # of its pairs, to another cover of that face inside the block: both
    # pairs lie in the block, so only the block's Matching refuses them
    v = fiber_reps(2)[0]
    block = matching_C(2, v)[0]
    faces = block.faces.bits
    for sigma, tau in block.pairs:
        others = [b for b in range(len(block.triples))
                  if not sigma >> b & 1 and faces >> (sigma | 1 << b) & 1 and sigma | 1 << b != tau]
        if others:
            extra = (others[0], 1 << (sigma | 1 << others[0]))
            with_stages(monkeypatch, faces, lambda stages: stages + [extra])
            return re.escape("%s: a pair holds a face matched twice at face %r"
                             % (block_tag(v, block), block.decode(sigma))) + "$"
    raise AssertionError("no pair of the first block at k=2 has a lower face with another cover")


def plant_block_drops_a_pair(monkeypatch):
    # one block loses a face and the partner it pairs with: the block is
    # still perfectly matched and acyclic, and only the partition count sees
    # that two faces of s lie in no part
    v = fiber_reps(2)[0]
    real = collapse.matching_C
    block = real(2, v)[0]
    (b, up), = block.pairs.stages
    tau = (up & -up).bit_length() - 1
    sigma = tau ^ 1 << b
    dropped = dataclasses.replace(block, faces=morse.Bits(block.faces.bits ^ 1 << sigma ^ 1 << tau),
                                  pairs=morse.StagePairs([(b, up ^ 1 << tau)]))
    monkeypatch.setattr(collapse, 'matching_C', lambda k, u: [dropped] + real(k, u)[1:]
                        if (k, u) == (2, v) else real(k, u))
    first = min(remap(f, index_table(block)) for f in (sigma, tau))
    return re.escape("sg and the parts' matched faces count 15964 faces, s has 15966: face %r of s "
                     "lies in 0 parts [%s]" % (members(first, 2), block_tag(v, block))) + "$"


def plant_block_admits_an_earlier_unstable_triple(monkeypatch):
    # the table of one block also holds an unstable triple lex-before its
    # vertex: the block stays perfectly matched, and its new faces, which
    # belong to the earlier triple's fiber, are counted twice
    real, target = wedge.subset_table, {}

    def table(k, cset, triples, covered=()):
        extra = target.get((k, tuple(cset), tuple(covered)))
        return real(k, cset, triples + (extra,) if extra else triples, covered)

    monkeypatch.setattr(wedge, 'subset_table', table)
    ix = triple_index(2)
    for v in fiber_reps(2):
        for block in matching_C(2, v):
            for t in ix.triples[:ix.bit[v]]:
                if is_stable(t, 2) or set(t) & set(block.cset):
                    continue
                target[(2, block.cset, v)] = t
                grown = [fm for fm in matching_C(2, v) if fm.cset == block.cset]
                if len(grown[0].faces) > len(block.faces):
                    return (r"face \(\(.*\)\) of s lies in 2 parts \[fiber C v=%s, block u\*=\d+ / %s\]$"
                            % ("".join(map(str, t)), re.escape(block_tag(v, block))))
                del target[(2, block.cset, v)]
    raise AssertionError("no block at k=2 gains a face from an earlier unstable triple")


PLANTS = [plant_cycle, plant_dropped_pair, plant_sg_face_in_a_c_fiber, plant_largest_toggle_element,
          plant_partner_in_another_block, plant_face_matched_twice, plant_block_drops_a_pair,
          plant_block_admits_an_earlier_unstable_triple]


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
