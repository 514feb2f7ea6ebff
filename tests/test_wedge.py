"""The filtration between the stable and ambient complexes, and the layered
matchings that collapse the two outer steps family by family."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from kneser_morse import morse, wedge
from kneser_morse.morse import MatchingError, members
from kneser_morse.complexes import complex_for, decode, face_key, remap
from kneser_morse.graphs import (
    all_triples, ground_size, index_I, is_stable, p_complement, q_complement,
    rotate, triple_index,
)
from kneser_morse.wedge import (
    c_set, critical_form, family_faces, filtration, level1_contains,
    matching_P, matching_Q, nc_set, p_indices, pq_classify, q_indices,
    split_fibers, theorem3_counts, toggle_run, transport, w_case, w_set,
)


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
# sub-fiber labels and toggle sets

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


@pytest.mark.parametrize("k", [1, 2])
def test_w_case_partitions_unstable_triples(k):
    for j in index_I(1, k):
        cs, ns = set(c_set(j, k)), set(nc_set(j, k))
        for v in all_triples(k):
            if is_stable(v, k):
                continue
            case = w_case(v, j, k)
            if case == 'blocked':
                assert set(v) & {1, 2, j}
            elif case == 'cleared':
                assert v in ns
            else:
                assert case in ('low-run', 'after-j', 'split')
                assert v in cs
        assert len(cs) + len(ns) == sum(
            1 for v in all_triples(k)
            if not is_stable(v, k) and not set(v) & {1, 2, j})


def test_w_set_fixtures():
    assert w_set((3, 5, 6), 4, 1) == ((5, 6, 7),)
    assert w_set((3, 6, 7), 4, 1) == ((5, 6, 7),)
    assert w_set((5, 6, 7), 4, 1) == ((3, 5, 7),)


def test_critical_form_fixtures():
    assert critical_form((3, 5, 6), 4, 1) == ((3, 5, 6), (5, 6, 7))
    assert critical_form((5, 6, 7), 4, 1) == ((3, 5, 7), (5, 6, 7))
    assert critical_form((1, 5, 6), 4, 1) is None   # blocked
    assert critical_form((6, 7, 8), 4, 2) is None   # cleared


def test_w_case_rejects_stable():
    with pytest.raises(ValueError):
        w_case((1, 3, 5), 4, 1)


@given(st.integers(1, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_w_set_properties(k, data):
    j = data.draw(st.sampled_from(index_I(1, k)))
    unstable = [v for v in all_triples(k) if not is_stable(v, k)]
    v = data.draw(st.sampled_from(unstable))
    ws = w_set(v, j, k)
    assert list(ws) == sorted(ws)
    assert len(set(ws)) == len(ws)
    for w in ws:
        assert not set(w) & {1, 2, j}
        assert w != v
    if w_case(v, j, k) in ('low-run', 'after-j', 'split'):
        crit = critical_form(v, j, k)
        assert crit == tuple(sorted({v, *ws}))
        assert len(crit) == k + 1


# ---------------------------------------------------------------------------
# family matchings

def test_family_faces_rejects_stable_missed_set():
    with pytest.raises(ValueError):
        family_faces(1, frozenset({1, 3, 5}))


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


def _stagewise_element_matching(faces, wbits):
    """The defining run: one element matching per toggle on the leftovers."""
    remaining = set(faces)
    pairs = set()
    for wb in wbits:
        m, matched = morse.element_matching(remaining, wb)
        pairs.update(m.pairs)
        remaining -= matched
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
    return [fam.triples.index(w) for w in w_set(fam.triples[label], j, k)]


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
    assert staged.matched() == listed.matched()
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
    with pytest.raises(MatchingError, match="do not partition"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_face_matched_twice(monkeypatch):
    run = toggle_run

    def duplicate_one(faces, toggles):
        # the last pair gives way to a stage of its own repeating the first,
        # so the pair count still partitions the family and only the union
        # check sees it
        stages, survivors = run(faces, toggles)
        if len(morse.StagePairs(stages)) > 1:
            b, up = stages[first_stage(stages)]
            last = max(i for i, (_, u) in enumerate(stages) if u)
            c, top = stages[last]
            stages[last] = (c, top ^ 1 << top.bit_length() - 1)
            stages.append((b, up & -up))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', duplicate_one)
    with pytest.raises(MatchingError, match=r"family \(1, 3\) pairs: face \d+ matched twice, "
                                            r"decoded \[\(\("):
        matching_P(1, 1, 3)


def test_matching_P_catches_an_upper_face_without_its_toggle_bit(monkeypatch):
    run = toggle_run

    def swap_one(faces, toggles):
        # the first pair's upper face gives way to its lower face, which
        # lacks the stage's bit: the count and the faces used are unchanged
        stages, survivors = run(faces, toggles)
        at = first_stage(stages)
        if at is not None:
            b, up = stages[at]
            low = up & -up
            stages[at] = (b, up ^ low | low >> (1 << b))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', swap_one)
    with pytest.raises(MatchingError, match=r"family \(1, 3\) pairs: non-covering pair "
                                            r"\(\d+, \d+\), decoded \[\(\("):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_pair_outside_the_family(monkeypatch):
    run = toggle_run
    planted = []

    def plant_outside(faces, toggles):
        # the first nonempty run loses its last pair to a stage pairing the
        # empty face with a single vertex: the pair count still partitions
        # the family, the planted pair covers, and no other check meets it
        stages, survivors = run(faces, toggles)
        if first_stage(stages) is not None and not planted:
            last = max(i for i, (_, u) in enumerate(stages) if u)
            c, top = stages[last]
            planted.append(top)
            stages[last] = (c, top ^ 1 << top.bit_length() - 1)
            stages.append((0, 1 << 0b1))
        return stages, survivors

    monkeypatch.setattr(wedge, 'toggle_run', plant_outside)
    with pytest.raises(MatchingError, match=r"family \(1, 3\) pairs face \(\), which lies "
                                            r"outside the family"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_perturbed_closed_form(monkeypatch):
    real = critical_form

    def perturbed(v, j, k):
        return ((4, 5, 6), (4, 5, 7)) if v == (4, 5, 6) else real(v, j, k)

    monkeypatch.setattr(wedge, 'critical_form', perturbed)
    with pytest.raises(MatchingError, match=r"label \(4, 5, 6\) kept \[\(\(4, 5, 6\), \(5, 6, 7\)\)\] "
                                            r"instead of its closed form"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_label_that_keeps_a_cell_it_should_clear(monkeypatch):
    # (4, 5, 6) keeps its closed-form cell in the k = 1 family (1, 3); filed
    # among the labels that clear, its survivor is reported by count
    real_c, real_nc = c_set, nc_set
    monkeypatch.setattr(wedge, 'c_set', lambda j, k: [v for v in real_c(j, k) if v != (4, 5, 6)])
    monkeypatch.setattr(wedge, 'nc_set', lambda j, k: real_nc(j, k) + [(4, 5, 6)])
    with pytest.raises(MatchingError, match=r"^label \(4, 5, 6\) should clear but kept 1 cells \(j=3\)$"):
        matching_P(1, 1, 3)


@pytest.mark.parametrize("label,toggle,check", [
    ((4, 5, 7), (4, 5, 6), "disagrees with the residue identity at"),
    ((4, 5, 6), (4, 5, 7), "instead of its closed form"),
])
def test_matching_P_catches_a_swapped_toggle(label, toggle, check, monkeypatch):
    # every label of the k = 1 family (1, 3) toggles (5, 6, 7) alone; here
    # one label's toggle is swapped for another triple of the support
    real = w_set
    monkeypatch.setattr(wedge, 'w_set', lambda v, j, k: (toggle,) if v == label else real(v, j, k))
    with pytest.raises(MatchingError, match=r"label %s .*%s.*\(\(" % (re.escape(str(label)), check)):
        matching_P(1, 1, 3)


@pytest.mark.parametrize("k,i,j", [(0, 1, 3), (1, 1, 4), (1, 4, 6), (2, 1, 4),
                                   (2, 5, 8)])
def test_matching_P_counts(k, i, j):
    m = matching_P(k, i, j)
    assert len(m.critical) == (k + 1) * (k + 2) // 2
    assert all(bin(c).count('1') == k + 1 for c in m.critical)
    assert len(m.faces) == 2 * len(m.pairs) + len(m.critical)
    # the same matching moved onto the per-k index
    table = [1 << triple_index(k).bit[t] for t in m.triples]
    ok, witness = morse.is_acyclic(
        morse.Matching([(remap(a, table), remap(b, table)) for a, b in m.pairs]),
        [remap(f, table) for f in m.faces])
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
            case = w_case(v, j, k)
            if case in ('low-run', 'after-j', 'split'):
                assert survivors.bit_count() == 1
                crit = critical_form(v, j, k)
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
        ok, witness = morse.verify_poset_map(
            lambda f: -stage[f], list(members(fiber)))
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


def test_theorem3_formula_only_path():
    out = theorem3_counts(5, census=False)
    assert not out['censused']
    assert out['extra_k_cells'] == 6 * 7 * 8 * 11 // 2
    assert out['predicted_t'] == out['extra_k_cells'] - out['extra_km1_cells'] + 1
    with pytest.raises(ValueError):
        theorem3_counts(5, census=True)
