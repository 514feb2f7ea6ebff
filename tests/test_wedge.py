"""The filtration between the stable and ambient complexes, and the layered
matchings that collapse the two outer steps family by family."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from kneser_morse import graphs, morse, wedge
from kneser_morse.morse import MatchingError, members
from kneser_morse.complexes import (
    NbhdComplex, complement_set, complex_for, decode, face_key, remap,
)
from kneser_morse.graphs import (
    all_triples, ground_size, is_stable, missed_shape, p_complement,
    q_complement, rotate, triple_index, vertex_mask,
)
from kneser_morse.wedge import (
    c_set, family_faces, filtration, matching_P, matching_Q, p_indices,
    pq_classify, q_indices, split_fibers, theorem3_counts, toggle_plan,
    toggle_run, transport,
)

from test_collapse import index_I, index_pairs, index_table
from test_morse import matched


# ---------------------------------------------------------------------------
# the filtration

K1_SIZES = (14, 98, 112, 420)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_filtration_nested(k):
    tiers = [filtration(k, lvl).all_faces() for lvl in range(4)]
    for lo, hi in zip(tiers, tiers[1:]):
        assert lo <= hi
    if k == 1:
        assert tuple(len(t) for t in tiers) == K1_SIZES


def test_filtration_ends():
    for k in (0, 1):
        assert filtration(k, 0).all_faces() == complex_for('sg', k).all_faces()
        assert filtration(k, 1).all_faces() == complex_for('s', k).all_faces()
        assert filtration(k, 3).all_faces() == complex_for('kg', k).all_faces()


def test_filtration_middle_collapses_at_k0():
    # no four-element missed set leaves room for a face at k=0
    assert filtration(0, 2).all_faces() == filtration(0, 1).all_faces()


def test_filtration_rejects_bad_level():
    with pytest.raises(ValueError):
        filtration(1, 4)
    with pytest.raises(ValueError):
        filtration(1, -1)


def level1_contains(sigma: int, k: int) -> bool:
    """Membership in the mixed-graph complex, via the missed set.

    A face of the full complex lies in the complex of the mixed graph iff
    all of its members are stable (any triple inside the missed set is then
    a common neighbor there) or some stable triple avoids its support (that
    triple is a common stable neighbor).  Independent of an is_face query;
    the two are compared below.
    """
    if not sigma:
        raise ValueError("the empty face belongs to every stage")
    comp = complement_set(sigma, k)
    if len(comp) < 3:
        raise ValueError("%r misses only %d ground elements; not a face of the full complex"
                         % (decode(sigma, triple_index(k).triples), len(comp)))
    if not sigma & ~triple_index(k).stable:
        return True
    return missed_shape(vertex_mask(comp), k) is True


@pytest.mark.parametrize("k", [0, 1])
def test_level1_membership_law(k):
    ambient = filtration(k, 3).all_faces()
    level1 = filtration(k, 1).all_faces()
    for mask in ambient:
        assert level1_contains(mask, k) == (mask in level1)
        sigma = decode(mask, triple_index(k).triples)
        members = set().union(*map(set, sigma))
        comp = set(range(1, ground_size(k) + 1)) - members
        law = (all(is_stable(v, k) for v in sigma)
               or any(is_stable(t, k) for t in all_triples(k)
                      if set(t) <= comp))
        assert level1_contains(mask, k) == law
        if len(sigma) >= 5:
            assert level1_contains(mask, k)


# ---------------------------------------------------------------------------
# the family classifier on the outside

def test_family_counts():
    for k in (0, 1, 2, 3):
        assert len(p_indices(k)) == (k + 3) * (k + 6)
        assert len(q_indices(k)) == (k + 3) * (k + 6) // 2


def test_pq_classify_fixtures():
    assert pq_classify(face_key([(3, 5, 6), (3, 5, 7)], 1), 1) == ('P', 1, 4, (3, 5, 6))
    # run-of-three missed set {7,1,2} reads from the wrap pair
    rot = [rotate(v, -1, 1) for v in ((3, 5, 6), (3, 5, 7))]
    tag = pq_classify(face_key(rot, 1), 1)
    assert (tag.family, tag.i, tag.j) == ('P', 7, 3)
    with pytest.raises(MatchingError):
        pq_classify(face_key([(1, 3, 5)], 1), 1)  # lies inside the mixed complex


@pytest.mark.parametrize("k", [0, 1, 2])
def test_pq_families_partition_the_outside(k):
    outside = filtration(k, 3).all_faces() - filtration(k, 1).all_faces()
    mid = filtration(k, 2).all_faces()
    buckets = {}
    for sigma in outside:
        tag = pq_classify(sigma, k)
        buckets.setdefault((tag.family, tag.i, tag.j), set()).add(sigma)
        assert (sigma in mid) == (tag.family == 'Q')
    for i, j in p_indices(k):
        m = matching_P(k, i, j)
        assert buckets.pop(('P', i, j), set()) == set(
            face_key(m.decode(f), k) for f in m.faces)
    for i, j in q_indices(k):
        expected = set()
        if k >= 1:
            q = matching_Q(k, i, j)
            expected = set(face_key(q.decode(f), k) for f in q.faces)
        assert buckets.pop(('Q', i, j), set()) == expected
    assert not buckets


def test_missed_set_is_exact():
    m = matching_P(1, 2, 5)
    comp = set(p_complement(1, 2, 5))
    n = ground_size(1)
    for f in m.faces:
        members = set().union(*map(set, m.decode(f)))
        assert set(range(1, n + 1)) - members == comp
    assert set(q_complement(1, 1, 3)) == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# sub-fiber labels and toggle plans, against the paper's closed forms

def nc_set(j, k):
    """The labels of the (1, j) base whose toggle run clears the sub-fiber
    completely, in the paper's form: {q, s-1, s} with q in 4..k+4 and s in
    q+2..k+6, both avoiding {j, j+1}."""
    n = ground_size(k)
    return sorted((q, s - 1, s) for q in range(4, k + 5) if q not in (j, j + 1)
                  for s in range(q + 2, n + 1) if s not in (j, j + 1))


def critical_form(v, j, k):
    """The survivor of the toggle run of unstable label v in the (1, j)
    base, in the paper's closed form: None when v meets {1, 2, j} (an empty
    sub-fiber) or lies in ``nc_set``.  v = {j+1, s, s+1} keeps {t, j+1,
    s+1} for t below j together with {t, s, s+1} for t above j; the other
    labels, {3, s, s+1} and {q, q+1, s} with s > q+2, keep {t, v2, v3} for
    every t off {1, 2, j}.  Always k+1 members, a cell of dimension k."""
    if set(v) & {1, 2, j} or v in nc_set(j, k):
        return None
    n = ground_size(k)
    s1, s2, s3 = v
    if s3 == s2 + 1 and s1 == j + 1:
        cell = [(t, j + 1, s3) for t in range(3, j)]
        cell += [tuple(sorted((t, s2, s3))) for t in range(j + 1, n + 1) if t not in (s2, s3)]
    else:
        cell = [tuple(sorted((t, s2, s3))) for t in range(1, n + 1) if t not in {1, 2, j, s2, s3}]
    assert len(cell) == k + 1, (v, j, k)
    return tuple(sorted(cell))


def labels(j, k):
    """The unstable triples avoiding {1, 2, j}: every label a sub-fiber of
    the (1, j) base can carry."""
    return [v for v in all_triples(k) if not is_stable(v, k) and not set(v) & {1, 2, j}]


def test_c_set_fixtures():
    assert c_set(4, 1) == [(3, 5, 6), (3, 6, 7), (5, 6, 7)]
    assert nc_set(4, 1) == []
    assert nc_set(3, 1) == [(5, 6, 7)]
    assert c_set(3, 1) == [(4, 5, 6), (4, 5, 7), (4, 6, 7)]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_c_set_count(k):
    for j in index_I(1, k):
        assert len(c_set(j, k)) == (k + 1) * (k + 2) // 2
        assert not set(c_set(j, k)) & set(nc_set(j, k))


@pytest.mark.parametrize("k", range(7))
def test_toggle_plan_agrees_with_the_closed_form(k):
    # every label of every base: the plan keeps a cell exactly off nc_set,
    # and the cell it keeps, v with its toggles, is the closed form (read
    # through the module so that a planted plan reaches this test)
    for j in index_I(1, k):
        cleared, every = set(nc_set(j, k)), labels(j, k)
        assert cleared <= set(every)
        for v in every:
            plan, keeps = wedge.toggle_plan(v, j, k)
            assert keeps == (v not in cleared), (j, v)
            assert (tuple(sorted({v, *plan})) if keeps else None) == critical_form(v, j, k), (j, v)


def test_toggle_plan_fixtures():
    assert toggle_plan((3, 5, 6), 4, 1) == (((5, 6, 7),), True)
    assert toggle_plan((3, 6, 7), 4, 1) == (((5, 6, 7),), True)
    assert toggle_plan((5, 6, 7), 4, 1) == (((3, 5, 7),), True)
    assert toggle_plan((5, 6, 7), 3, 1) == ((), False)
    # {6, 7, 8} at j = 4: 5 is not missed, and the arm {3, 6, 8} clears
    assert toggle_plan((6, 7, 8), 4, 2) == (((3, 6, 8),), False)
    # a pair with a far third element keeps whatever j is
    assert toggle_plan((4, 5, 8), 6, 2) == (((3, 5, 8), (5, 7, 8)), True)


def test_critical_form_fixtures():
    assert critical_form((3, 5, 6), 4, 1) == ((3, 5, 6), (5, 6, 7))
    assert critical_form((5, 6, 7), 4, 1) == ((3, 5, 7), (5, 6, 7))
    assert critical_form((1, 5, 6), 4, 1) is None   # blocked
    assert critical_form((6, 7, 8), 4, 2) is None   # cleared


def test_toggle_plan_refuses_stable_and_blocked_labels():
    with pytest.raises(ValueError, match="is stable"):
        toggle_plan((1, 3, 5), 4, 1)
    with pytest.raises(ValueError, match=r"meets the missed set \{1, 2, 4\}"):
        toggle_plan((4, 5, 6), 4, 1)
    # the admissible j are I_1 = 3..k+5; k+6 flanks the pair {1, 2}
    for j in (2, 7, 8):
        with pytest.raises(ValueError, match=r"^j=%d cannot accompany the pair \{1, 2\} at k=1$" % j):
            toggle_plan((3, 4, 6), j, 1)
    assert toggle_plan((3, 4, 6), 5, 1) == (((4, 6, 7),), True)


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_toggle_plan_properties(k, data):
    j = data.draw(st.sampled_from(index_I(1, k)))
    v = data.draw(st.sampled_from(labels(j, k)))
    plan, keeps = toggle_plan(v, j, k)
    assert list(plan) == sorted(set(plan))
    for w in plan:
        # a toggle stays in the support and keeps v the lex-least unstable member
        assert not set(w) & {1, 2, j}
        assert is_stable(w, k) or w > v
    if keeps:
        assert len(plan) == k


# ---------------------------------------------------------------------------
# family matchings

def test_family_faces_rejects_stable_missed_set():
    with pytest.raises(ValueError):
        family_faces(1, frozenset({1, 3, 5}))


def test_a_stable_table_past_seven_support_elements_is_refused():
    # the (1, 2, 3) support at k = 5 has 8 elements and 20 stable triples,
    # within SCAN_BITS, but an eighth position would be the unstable flag
    def stable(k):
        support = range(4, ground_size(k) + 1)
        return tuple(t for t in itertools.combinations(support, 3) if is_stable(t, k))

    assert len(wedge.subset_table(4, (1, 2, 3), stable(4)).triples) == 10
    with pytest.raises(ValueError, match=r"support of 8 elements spans 20 triples; subset scan "
                                         r"beyond 22 bits or 7 elements refused"):
        wedge.subset_table(5, (1, 2, 3), stable(5))


def test_a_subset_table_reads_faces_and_full_once_each_when_asked(monkeypatch):
    calls = []

    def counted(cover, digits):
        calls.append(digits)
        return morse.bitset(cover, digits)

    monkeypatch.setattr(wedge, 'bitset', counted)
    fam = wedge.subset_table(1, (1, 2, 3), tuple(itertools.combinations(range(4, 8), 3)))
    assert len(calls) == 0
    assert fam.faces is fam.faces and len(calls) == 1
    assert fam.full and len(calls) == 2
    assert fam.full and fam.faces and len(calls) == 2


BASE_FAMILIES = [(k, j) for k in (0, 1, 2) for j in index_I(1, k)] + [(3, 4)]


@pytest.mark.parametrize("k,j", BASE_FAMILIES)
def test_family_faces_and_fibers_match_their_definitions(k, j):
    cset = p_complement(k, 1, j)
    fam = family_faces(k, cset)
    support = [x for x in range(1, ground_size(k) + 1) if x not in cset]
    assert fam.triples == tuple(t for t in all_triples(k) if not set(t) & set(cset))
    assert fam.unstable == sum(1 << b for b, t in enumerate(fam.triples) if not is_stable(t, k))
    # cover[s] is the union of the triples of s as support positions, plus
    # bit 7 for an unstable triple, one subset at a time: the lowest bit
    # of s added to the cover of the rest
    elem = [sum(1 << support.index(x) for x in t) | (0 if is_stable(t, k) else 0x80)
            for t in fam.triples]
    cover = [0] * (1 << len(elem))
    for s in range(1, len(cover)):
        low = s & -s
        cover[s] = cover[s ^ low] | elem[low.bit_length() - 1]
    assert fam.cover == bytes(cover)
    whole = (1 << len(support)) - 1
    assert list(members(fam.full)) == [s for s in range(len(cover)) if cover[s] & 0x7F == whole]
    faces = [s for s in range(len(cover)) if cover[s] & 0x7F == whole and s & fam.unstable]
    assert len(fam.faces) == len(faces) and list(fam.faces) == faces
    # each face filed under the bit of its lex-least unstable member
    fibers: dict = {}
    for f in faces:
        u = f & fam.unstable
        fibers.setdefault((u & -u).bit_length() - 1, []).append(f)
    got = split_fibers(fam)
    assert list(got) == sorted(fibers)
    assert {u: list(members(fiber)) for u, fiber in got.items()} == fibers


def bits_of(faces):
    return sum(1 << f for f in set(faces))


def table_bits(faces, slots):
    """``bits_of`` through one byte table over ``slots`` masks, which stays
    linear on the 2^20 masks of a k = 3 family."""
    marks = bytearray(slots)
    for f in faces:
        marks[f] = 1
    return morse.bitset(marks, bytes.maketrans(b"\0\1", b"01"))


def toggle_stages(fiber, toggles):
    """Stage of each face of the bitset ``fiber`` in a toggle run, 1-based,
    survivors getting len(toggles) + 1: one more than the number of toggle
    prefixes it survives."""
    stage = dict.fromkeys(members(fiber), 1)
    for t in range(1, len(toggles) + 1):
        stage.update(dict.fromkeys(members(toggle_run(fiber, toggles[:t])[1]), t + 1))
    return stage


def test_toggle_run_small():
    faces, toggles = bits_of([0b001, 0b011, 0b010, 0b110, 0b100]), [1, 2]
    stages, survivors = toggle_run(faces, toggles)
    assert stages == [(1, 1 << 0b011 | 1 << 0b110), (2, 0)]
    assert list(morse.StagePairs(stages)) == [(0b001, 0b011), (0b100, 0b110)]
    assert survivors == 1 << 0b010
    assert toggle_stages(faces, toggles) == {0b001: 1, 0b011: 1, 0b100: 1, 0b110: 1, 0b010: 3}
    # a toggle bit no face reaches leaves an empty stage
    assert toggle_run(faces, [5]) == ([(5, 0)], faces)
    assert toggle_run(0, [0]) == ([(0, 0)], 0)
    # a top face of one bit still reaches that bit's toggle
    assert toggle_run(1 | 1 << 0b100, [2]) == ([(2, 1 << 0b100)], 0)


def _stagewise_element_matching(faces, wbits):
    """The defining run: one element matching per toggle on the leftovers."""
    remaining = set(faces)
    pairs = set()
    for wb in wbits:
        stage = morse.element_matching(remaining, wb)
        pairs.update(stage)
        remaining -= {f for pair in stage for f in pair}
    return pairs, remaining


def reference_toggle_run(faces, wbits):
    """The list-based run: each stage pairs every leftover face holding the
    toggle with its partner if that is left too, in ascending order, then
    drops both."""
    remaining = set(faces)
    pairs: list = []
    for wb in wbits:
        ups = sorted(f for f in remaining if f & wb and f ^ wb in remaining)
        lows = [f ^ wb for f in ups]
        pairs.extend(zip(lows, ups))
        remaining.difference_update(ups)
        remaining.difference_update(lows)
    return pairs, remaining


def toggle_bits(fam, label, j, k):
    return [fam.triples.index(w) for w in toggle_plan(fam.triples[label], j, k)[0]]


@pytest.mark.parametrize("k,j", BASE_FAMILIES)
def test_toggle_run_matches_the_set_based_run(k, j):
    # every sub-fiber of the family, every prefix of its toggles below k = 3
    fam = family_faces(k, p_complement(k, 1, j))
    for b, fiber in split_fibers(fam).items():
        faces = list(members(fiber))
        toggles = toggle_bits(fam, b, j, k)
        for t in range(len(toggles) + 1) if k <= 2 else [len(toggles)]:
            stages, survivors = toggle_run(fiber, toggles[:t])
            want_pairs, want_survivors = reference_toggle_run(faces, [1 << c for c in toggles[:t]])
            assert [c for c, _ in stages] == toggles[:t]
            assert list(morse.StagePairs(stages)) == want_pairs, (b, t)
            assert set(members(survivors)) == want_survivors, (b, t)


@pytest.mark.parametrize("k,j", BASE_FAMILIES)
def test_the_bitset_build_matches_the_list_build(k, j):
    # the family split by lex-least unstable member and run by the list
    # reference, fiber by fiber, against the bitset build of matching_P
    fm = matching_P(k, 1, j)
    fam = family_faces(k, p_complement(k, 1, j))
    fibers: dict = {}
    for f in fam.faces:
        u = f & fam.unstable
        fibers.setdefault((u & -u).bit_length() - 1, []).append(f)
    pairs, critical = [], []
    for b in sorted(fibers):
        run, left = reference_toggle_run(fibers[b], [1 << c for c in toggle_bits(fam, b, j, k)])
        pairs += run
        critical += sorted(left)
    assert list(fm.pairs) == pairs
    assert fm.critical == critical
    assert len(fm.faces) == len(fam.faces) == 2 * len(pairs) + len(critical)
    assert len(fm.pairs) == len(pairs)
    # the stages on the bitset layout, the same pairs listed on the dict
    # layout: the same bitsets, lookups and acyclicity search, including
    # the k <= 1 families, whose tables hold more than four masks per pair
    staged, listed = morse.Matching(fm.pairs), morse.Matching(list(fm.pairs))
    slots = 1 << len(fam.triples)
    assert fm.pairs.bitsets() == (table_bits([s for s, _ in pairs], slots),
                                  table_bits([t for _, t in pairs], slots))
    assert staged.partner == listed.partner
    assert matched(staged) == matched(listed)
    assert all((f in staged) == (f in listed) for f in range(slots))
    assert morse.is_acyclic(staged) == morse.is_acyclic(listed) == (True, None)


def test_toggle_run_equals_stagewise_element_matching():
    # every prefix of the toggles, so each stage's members are checked too
    k, j = 2, 4
    fam = family_faces(k, frozenset(p_complement(k, 1, j)))
    for idx, fiber in split_fibers(fam).items():
        faces = list(members(fiber))
        toggles = toggle_bits(fam, idx, j, k)
        for t in range(len(toggles) + 1):
            stages, survivors = toggle_run(fiber, toggles[:t])
            want_pairs, want_survivors = _stagewise_element_matching(
                faces, [1 << c for c in toggles[:t]])
            pairs = list(morse.StagePairs(stages))
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == want_pairs, (idx, t)
            assert set(members(survivors)) == want_survivors, (idx, t)


def first_stage(stages):
    """Index of the first nonempty stage, or None."""
    return next((i for i, (_, up) in enumerate(stages) if up), None)


def test_matching_P_catches_a_dropped_toggle_pair(monkeypatch):
    run = toggle_run

    def drop_one(faces, toggles):
        stages, survivors = run(faces, toggles)
        at = first_stage(stages)
        if at is not None:
            b, up = stages[at]
            stages[at] = (b, up & up - 1)
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', drop_one)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: face \(\(\d+, \d+, \d+\).*\) "
                                            r"survives the toggle run$"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_face_matched_twice(monkeypatch):
    run = toggle_run

    def duplicate_one(faces, toggles):
        # the last pair gives way to a stage of its own repeating the first,
        # so every face is still used and only the bulk check of the pairs
        # sees it
        stages, survivors = run(faces, toggles)
        if len(morse.StagePairs(stages)) > 1:
            b, up = stages[first_stage(stages)]
            last = max(i for i, (_, u) in enumerate(stages) if u)
            c, top = stages[last]
            stages[last] = (c, top ^ 1 << top.bit_length() - 1)
            stages.append((b, up & -up))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', duplicate_one)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: a pair holds a face matched "
                                            r"twice at face \(\(\d+, \d+, \d+\)"):
        matching_P(1, 1, 3)


def test_matching_P_catches_an_upper_face_without_its_toggle_bit(monkeypatch):
    run = toggle_run
    swapped = []

    def swap_one(faces, toggles):
        # the first pair's upper face gives way to its lower face, which
        # lacks the stage's bit: the count and the faces used are unchanged
        stages, survivors = run(faces, toggles)
        at = first_stage(stages)
        if at is not None and not swapped:
            b, up = stages[at]
            low = up & -up
            swapped.append(low.bit_length() - 1)
            stages[at] = (b, up ^ low | low >> (1 << b))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', swap_one)
    with pytest.raises(MatchingError) as bad:
        matching_P(1, 1, 3)
    # the pair is named by the face it was meant to have as its upper face
    assert str(bad.value) == "family (P, 1, 3) at k=1: a pair does not cover at face %r" % (
        decode(swapped[0], family_faces(1, (1, 2, 3)).triples),)


def test_matching_P_catches_a_pair_outside_the_family(monkeypatch):
    run = toggle_run
    planted = []

    def plant_outside(faces, toggles):
        # the first nonempty run loses its last pair to a stage pairing the
        # empty face with a single vertex: the planted pair covers, closes
        # no cycle, and is named before the two faces the run now leaves
        stages, survivors = run(faces, toggles)
        if first_stage(stages) is not None and not planted:
            last = max(i for i, (_, u) in enumerate(stages) if u)
            c, top = stages[last]
            planted.append(top)
            stages[last] = (c, top ^ 1 << top.bit_length() - 1)
            stages.append((0, 1 << 0b1))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', plant_outside)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: face \(\) is paired but is "
                                            r"no face$"):
        matching_P(1, 1, 3)


def plant_plan(monkeypatch, label, toggles=None, keeps=None, at_k=None):
    """``wedge.toggle_plan`` answers ``label`` with the given toggles or
    keeps flag instead of its own, at every k or at ``at_k`` alone, and
    every other label as before."""
    real = wedge.toggle_plan

    def planted(v, j, k):
        plan, kept = real(v, j, k)
        if v != label or at_k not in (None, k):
            return plan, kept
        return plan if toggles is None else toggles, kept if keeps is None else keeps

    monkeypatch.setattr(wedge, 'toggle_plan', planted)


def test_matching_P_catches_a_label_that_clears_a_cell_it_should_keep(monkeypatch):
    # (6, 7, 8) clears its sub-fiber in the k = 2 family (1, 4); a plan
    # that keeps a cell there finds none
    plant_plan(monkeypatch, (6, 7, 8), keeps=True)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 4\) at k=2: label \(6, 7, 8\) kept \[\] "
                                            r"instead of itself with its toggles \(\(3, 6, 8\), "
                                            r"\(6, 7, 8\)\)$"):
        matching_P(2, 1, 4)


def test_matching_P_catches_a_label_that_keeps_a_cell_it_should_clear(monkeypatch):
    # (4, 5, 6) keeps a cell in the k = 1 family (1, 3); a plan that clears
    # there reports the survivor by count
    plant_plan(monkeypatch, (4, 5, 6), keeps=False)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: label \(4, 5, 6\) should clear "
                                            r"but kept 1 cells$"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_kept_label_that_owns_no_face(monkeypatch):
    # (5, 6, 7) owns no face in the k = 1 family (1, 3): every face that
    # holds it holds a lex-smaller unstable triple, since (5, 6, 7) alone
    # misses 4; a plan that keeps a cell there has no run to check it on
    plant_plan(monkeypatch, (5, 6, 7), keeps=True)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: labels \[\(5, 6, 7\)\] should "
                                            r"retain a cell but own no face$"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_toggle_off_the_support(monkeypatch):
    plant_plan(monkeypatch, (4, 5, 6), toggles=((3, 5, 6),))
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: toggle \(3, 5, 6\) of label "
                                            r"\(4, 5, 6\) leaves the support of \(1, 2, 3\)$"):
        matching_P(1, 1, 3)


def test_matching_P_acts_on_a_cycle_the_search_reports(monkeypatch):
    # the search itself is checked on planted cycles in test_morse; here its
    # verdict on the real, acyclic pairs is planted, naming the first pair
    fm = matching_P(1, 1, 3)
    (low, up), second = itertools.islice(fm.pairs, 2)
    real = wedge.is_acyclic

    def cyclic(matching):
        assert real(matching) == (True, None)
        return False, [(low, up), second]

    monkeypatch.setattr(wedge, 'is_acyclic', cyclic)
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: matched pairs close a cycle "
                                            r"at face %s$" % re.escape(str(fm.decode(low)))):
        matching_P(1, 1, 3)


def test_a_plant_on_a_q_family_base_names_the_base_one_parameter_down(monkeypatch):
    # the Q-families at k = 2 are carried from P-bases at k = 1: a plant on
    # the k = 1 base (1, 3) names k=1, so it cannot be taken for the k = 2
    # P-base of the same j, which still builds
    plant_plan(monkeypatch, (4, 5, 6), keeps=False, at_k=1)
    match = r"^family \(P, 1, 3\) at k=1: label \(4, 5, 6\) should clear but kept 1 cells$"
    with pytest.raises(MatchingError, match=match):
        matching_Q(2, 1, 3)
    with pytest.raises(MatchingError, match=match):
        theorem3_counts(2)
    assert len(matching_P(2, 1, 3).critical) == 6


def certify_fails_on(fm, how):
    """``wedge.certify`` refuses ``fm``, naming the place, the face and how
    it is stray."""
    match = r"^hand-built \(P, 1, 3\): face %s %s$" % (re.escape(str(fm.decode(how[0]))), how[1])
    with pytest.raises(MatchingError, match=match):
        wedge.certify(fm, "hand-built (P, 1, 3)")


def test_certify_names_every_way_a_face_is_stray():
    fm = matching_P(1, 1, 3)
    wedge.certify(fm, "hand-built (P, 1, 3)")
    low, up = next(iter(fm.pairs))
    first, *rest = fm.critical
    off = 1  # the first triple alone covers 3 of the 4 support elements
    assert not fm.faces.bits >> off & 1 and len(rest) == 2
    certify_fails_on(fm._replace(critical=[up] + fm.critical), (up, "is critical and paired"))
    certify_fails_on(fm._replace(critical=fm.critical + [off]), (off, "is critical but is no face"))
    certify_fails_on(fm._replace(critical=fm.critical + [first]),
                     (first, "is listed critical twice"))
    certify_fails_on(fm._replace(critical=rest), (first, "survives the toggle run"))
    # the pair (0, 0b10) off the family, whose lower face's neighbour mask 1 is unpaired
    outside = morse.StagePairs(fm.pairs.stages + [(1, 1 << 0b10)])
    certify_fails_on(fm._replace(pairs=outside), (0, "is paired but is no face"))


# the first face, in mask order, at which the planted run and the residue
# identity part
SWAPPED_TOGGLE_FACE = {(4, 5, 7): ((4, 5, 7), (4, 6, 7))}


@pytest.mark.parametrize("label,toggle,check", [
    ((4, 5, 7), (4, 5, 6), "disagrees with the residue identity at"),
])
def test_matching_P_catches_a_swapped_toggle(label, toggle, check, monkeypatch):
    # every label of the k = 1 family (1, 3) toggles (5, 6, 7) alone; here
    # one label's toggle is swapped for another triple of the support
    plant_plan(monkeypatch, label, toggles=(toggle,))
    with pytest.raises(MatchingError, match=r"^family \(P, 1, 3\) at k=1: .*label %s %s %s$"
                                            % tuple(map(re.escape, (str(label), check,
                                                                    str(SWAPPED_TOGGLE_FACE[label]))))):
        matching_P(1, 1, 3)


def test_the_closed_form_oracle_catches_a_swapped_toggle(monkeypatch):
    # (4, 5, 6) toggling (4, 5, 7) in the k = 1 family (1, 3) still builds a
    # valid acyclic matching that keeps three 1-cells, its own among them:
    # the recipe breaks, the claim does not, so the plant is the closed
    # form's to catch
    plant_plan(monkeypatch, (4, 5, 6), toggles=((4, 5, 7),))
    fm = matching_P(1, 1, 3)
    assert len(fm.critical) == 3 and all(c.bit_count() == 2 for c in fm.critical)
    assert ((4, 5, 6), (4, 5, 7)) in fm.decoded_critical()
    with pytest.raises(AssertionError, match=r"\(3, \(4, 5, 6\)\)"):
        test_toggle_plan_agrees_with_the_closed_form(1)


@pytest.mark.parametrize("k,i,j", [(0, 1, 3), (1, 1, 4), (1, 4, 6), (2, 1, 4),
                                   (2, 5, 8)])
def test_matching_P_counts(k, i, j):
    m = matching_P(k, i, j)
    assert len(m.critical) == (k + 1) * (k + 2) // 2
    assert all(bin(c).count('1') == k + 1 for c in m.critical)
    assert len(m.faces) == 2 * len(m.pairs) + len(m.critical)
    # the same matching moved onto the per-k index
    table = [1 << triple_index(k).bit[t] for t in m.triples]
    moved = morse.Matching([(remap(a, table), remap(b, table)) for a, b in m.pairs])
    assert matched(moved) <= {remap(f, table) for f in m.faces}
    ok, witness = morse.is_acyclic(moved)
    assert ok, witness


def test_matching_P_rotation_transports_faces():
    base = matching_P(1, 1, 3)
    rot = matching_P(1, 2, 4)
    moved = {face_key([rotate(v, 1, 1) for v in base.decode(f)], 1) for f in base.faces}
    assert moved == {face_key(rot.decode(f), 1) for f in rot.faces}


@pytest.mark.parametrize("k,i,j", [(1, 1, 3), (1, 2, 4), (2, 1, 4), (2, 3, 7)])
def test_matching_Q_counts(k, i, j):
    m = matching_Q(k, i, j)
    assert len(m.critical) == k * (k + 1) // 2
    assert all(bin(c).count('1') == k for c in m.critical)
    assert len(m.faces) == 2 * len(m.pairs) + len(m.critical)


def test_transport_rejects_a_wrong_shift():
    # (P, 3, 6) is the (1, 4) family rotated by i - 1 = 2; a shift of i
    # lands the support one step off the target
    k, i, j = 2, 3, 6
    base = matching_P(k, 1, rotate(j, 1 - i, k))
    cset = p_complement(k, i, j)
    assert transport(base, k, 'P', i, j, cset, i - 1).faces is base.faces
    with pytest.raises(MatchingError, match=r"family \(P, 3, 6\).*not onto"):
        transport(base, k, 'P', i, j, cset, i)


def test_transport_rejects_a_wrap_pair_that_changes_stability():
    # the support {1, 2, 5, 7} of (P, 3, 6) at k = 1 holds the wrap pair
    # {7, 1}; in the k = 2 frame the support lands on the complement of
    # {3, 4, 6, 8} unmoved, but (1, 5, 7) turns stable there
    base = matching_P(1, 3, 6)
    with pytest.raises(MatchingError, match=r"family \(Q, 3, 6\).*\(1, 5, 7\).*stability"):
        transport(base, 2, 'Q', 3, 6, base.cset + (8,), 0)


def test_matching_Q_empty_at_k0():
    with pytest.raises(ValueError):
        matching_Q(0, 1, 3)


def test_residue_identity_recomputed():
    # rebuild each fiber's toggle run from scratch; the lone survivor must
    # be the closed-form critical face
    for k, j in [(1, 4), (2, 4), (2, 6)]:
        m = matching_P(k, 1, j)
        fam = family_faces(k, frozenset(p_complement(k, 1, j)))
        for idx, fiber in split_fibers(fam).items():
            v = fam.triples[idx]
            stages, survivors = toggle_run(fiber, toggle_bits(fam, idx, j, k))
            crit = critical_form(v, j, k)
            if crit is not None:
                assert survivors.bit_count() == 1
                assert {m.decode(s) for s in members(survivors)} == {crit}
            else:
                assert not survivors
            assert fiber.bit_count() == 2 * len(morse.StagePairs(stages)) + survivors.bit_count()


@pytest.mark.parametrize("j", index_I(1, 2))
def test_stage_labels_are_a_poset_map(j):
    k = 2
    fam = family_faces(k, frozenset(p_complement(k, 1, j)))
    for idx, fiber in split_fibers(fam).items():
        v = fam.triples[idx]
        stage = toggle_stages(fiber, toggle_bits(fam, idx, j, k))
        ok, witness = morse.verify_poset_map({f: -stage[f] for f in members(fiber)})
        assert ok, (v, witness)


def test_no_facet_leaves_a_family_sideways():
    # facets of a family face stay in the family or fall into the middle
    # filtration step, never into a sibling family
    k = 1
    mid = filtration(k, 2).all_faces()
    for i, j in p_indices(k):
        m = matching_P(k, i, j)
        for f in m.faces:
            sigma = face_key(m.decode(f), k)
            for tau, _ in morse.face_facets(sigma):
                if not tau:
                    continue
                if tau in mid:
                    continue
                tag = pq_classify(tau, k)
                assert (tag.family, tag.i, tag.j) == ('P', i, j)


# ---------------------------------------------------------------------------
# the census

EXPECT = {0: (18, 0, 19), 1: (84, 14, 71), 2: (240, 60, 181)}


@pytest.mark.parametrize("k", [0, 1, 2])
def test_theorem3_counts(k):
    out = theorem3_counts(k)
    top, mid, total = EXPECT[k]
    assert out['extra_k_cells'] == top == (k + 1) * (k + 2) * (k + 3) * (k + 6) // 2
    assert out['extra_km1_cells'] == mid == k * (k + 1) * (k + 3) * (k + 6) // 4
    assert out['predicted_t'] == total == top - mid + 1
    assert out['censused']
    assert out['observed_k_cells'] == top
    assert out['observed_km1_cells'] == mid
    rows = out['rows']
    assert len(rows) == len(p_indices(k)) + len(q_indices(k))
    for family, i, j, cells, critical, dim in rows:
        if family == 'P':
            assert critical == (k + 1) * (k + 2) // 2 and dim == k
        elif cells:
            assert critical == k * (k + 1) // 2 and dim == k - 1
        else:
            assert critical == 0 and k == 0  # empty four-set families
        assert cells >= critical


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_census_walks_the_missed_set_lattice_once(k, monkeypatch):
    # p_indices and q_indices read the one walk the census makes, and list
    # the same families as from walks of their own
    walks, lattice = [], graphs.missed_lattice
    monkeypatch.setattr(graphs, "missed_lattice", lambda k: (walks.append(k), lattice(k))[1])
    rows = theorem3_counts(k)['rows']
    assert walks == [k]
    assert [row[:3] for row in rows] == (
        [('P', i, j) for i, j in p_indices(k)] + [('Q', i, j) for i, j in q_indices(k)])
    shapes = lattice(k)
    assert (p_indices(k, shapes), q_indices(k, shapes)) == (p_indices(k), q_indices(k))


def test_theorem3_formula_only_path():
    out = theorem3_counts(5, census=False)
    assert not out['censused']
    assert out['extra_k_cells'] == 6 * 7 * 8 * 11 // 2
    assert out['predicted_t'] == out['extra_k_cells'] - out['extra_km1_cells'] + 1
    with pytest.raises(ValueError):
        theorem3_counts(5, census=True)


# ---------------------------------------------------------------------------
# the union of each layer's family matchings: the face-level oracle and the
# missed-set lattice the census certifies it with

def compose_layer(k, fms, upper, lower):
    """The face-level check of one whole layer: the union of the family
    matchings, moved onto the per-k index, stays inside the faces of the
    upper stage and is acyclic, and what it leaves unmatched is the lower
    stage plus the families' critical cells.  Returns the first problem
    found, or None."""
    pairs, crit = [], set()
    for fm in fms:
        pairs += index_pairs(fm)
        crit |= {remap(c, index_table(fm)) for c in fm.critical}
    cells = filtration(k, upper).all_faces()
    m = morse.Matching(pairs)
    if not matched(m) <= cells:
        return "pairs leave stage %d" % upper
    ok, cycle = morse.is_acyclic(m)
    if not ok:
        return "cycle through %r" % ([decode(a, triple_index(k).triples) for a, _ in cycle[:2]],)
    if cells - matched(m) != filtration(k, lower).all_faces() | crit:
        return "survivors are not stage %d plus the counted cells" % lower
    return None


@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_face_level_layer_check_agrees_with_the_lattice(k):
    assert theorem3_counts(k)['union_route'] == 'lattice'
    top = [matching_P(k, i, j) for i, j in p_indices(k)]
    mid = [matching_Q(k, i, j) for i, j in q_indices(k)] if k else []
    assert compose_layer(k, top, 3, 2) is None
    assert compose_layer(k, mid, 2, 1) is None
    # the oracle is not vacuous: a layer short of one family fails it
    assert compose_layer(k, top[1:], 3, 2) == "survivors are not stage 2 plus the counted cells"


@pytest.mark.parametrize("k", [1, 2])
def test_the_census_certifies_every_rotated_family_by_transport(k, monkeypatch):
    # each i = 1 family is checked in full; every other P-family reaches the
    # census only through transport's certificate, and every Q-family too
    # (the P-families one parameter down that a Q-family pulls back from
    # are moved in their own frame, at k - 1)
    moved, real = [], wedge.transport
    monkeypatch.setattr(wedge, 'transport', lambda base, kk, family, i, j, cset, shift: (
        moved.append((kk, family, i, j)) or real(base, kk, family, i, j, cset, shift)))
    theorem3_counts(k)
    assert sorted(m[1:] for m in moved if m[0] == k) == sorted(
        [('P', i, j) for i, j in p_indices(k) if i != 1] + [('Q', i, j) for i, j in q_indices(k)])


@pytest.mark.parametrize("k", [2, 3])
def test_the_census_builds_each_base_once(k, monkeypatch):
    # one build per {1, 2, l} base: the P-bases at k, then the Q-bases one
    # parameter down, however many families each base is carried onto
    # (5 + 4 at k = 2, 6 + 5 at k = 3)
    built, real = [], wedge._matching_p1
    monkeypatch.setattr(wedge, '_matching_p1', lambda kk, l: built.append((kk, l)) or real(kk, l))
    theorem3_counts(k)
    assert built == [(k, l) for l in range(3, k + 6)] + [(k - 1, l) for l in range(3, k + 5)]


def test_the_census_walks_no_face_of_a_stage(monkeypatch):
    def walked(*args, **kwargs):
        raise AssertionError("a face-level walk ran")

    monkeypatch.setattr(NbhdComplex, 'all_faces', walked)
    monkeypatch.setattr(morse, 'verify_poset_map', walked)
    assert theorem3_counts(2)['union_route'] == 'lattice'


def plant_shape(monkeypatch, elements, shape):
    """``graphs.missed_shape`` misreads the one missed set ``elements``."""
    real, mask = graphs.missed_shape, vertex_mask(elements)
    monkeypatch.setattr(graphs, 'missed_shape', lambda m, k: shape if m == mask else real(m, k))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("elements,shape,match", [
    # (a): {1, 3, 5} is stable in this five-set
    ((1, 2, 3, 4, 5), (3, 1, 3),
     r"missed set \(1, 2, 3, 4, 5\) reads \(3, 1, 3\), but a set of 5 elements must hold "
     r"a stable triple$"),
    # (b): a double pair read as a pair shape
    ((1, 2, 4, 5), (3, 1, 4),
     r"missed set \(1, 2, 4, 5\) reads \(3, 1, 4\), but a set of 4 elements must hold a "
     r"stable triple or have the double-pair shape$"),
    # (c): a pair shape read as holding a stable triple, while its growth
    # by 3 is the double pair {1, 2, 3, 4}
    ((1, 2, 4), True,
     r"missed set \(1, 2, 4\) holds a stable triple, but its growth by 3 reads \(4, 1, 3\)$"),
    # (d): facts (a) to (c) hold, but the pair shape names another missed
    # set, so the family (1, 5) would be read twice and (1, 4) never
    ((1, 2, 4), (3, 1, 5),
     r"missed set \(1, 2, 4\) reads \(3, 1, 5\), which names the missed set \(1, 2, 5\)$"),
])
def test_the_census_names_a_misread_missed_set(k, elements, shape, match, monkeypatch):
    plant_shape(monkeypatch, elements, shape)
    with pytest.raises(MatchingError, match=match):
        theorem3_counts(k)
