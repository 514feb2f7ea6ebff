"""The filtration between the stable and ambient complexes, and the layered
matchings that collapse the two outer steps family by family."""

import pytest
from hypothesis import given, settings, strategies as st

from kneser_morse import morse, wedge
from kneser_morse.collapse import MatchingError, index_I
from kneser_morse.complexes import complex_for, face_key
from kneser_morse.graphs import all_triples, ground_size, is_stable, rotate
from kneser_morse.wedge import (
    c_set, critical_form, family_faces, filtration, level1_contains,
    matching_P, matching_Q, nc_set, p_complement, p_indices, pq_classify,
    q_complement, q_indices, split_fibers, theorem3_counts, toggle_run,
    transport, w_case, w_set,
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
    for sigma in ambient:
        assert level1_contains(sigma, k) == (sigma in level1)
        members = set().union(*map(set, sigma))
        comp = set(range(1, ground_size(k) + 1)) - members
        law = (all(is_stable(v, k) for v in sigma)
               or any(is_stable(t, k) for t in all_triples(k)
                      if set(t) <= comp))
        assert level1_contains(sigma, k) == law
        if len(sigma) >= 5:
            assert level1_contains(sigma, k)


# ---------------------------------------------------------------------------
# the family classifier on the outside

def test_family_counts():
    for k in (0, 1, 2, 3):
        assert len(p_indices(k)) == (k + 3) * (k + 6)
        assert len(q_indices(k)) == (k + 3) * (k + 6) // 2


def test_pq_classify_fixtures():
    assert pq_classify(((3, 5, 6), (3, 5, 7)), 1) == ('P', 1, 4, (3, 5, 6))
    # run-of-three missed set {7,1,2} reads from the wrap pair
    rot = tuple(rotate(v, -1, 1) for v in ((3, 5, 6), (3, 5, 7)))
    tag = pq_classify(face_key(rot), 1)
    assert (tag.family, tag.i, tag.j) == ('P', 7, 3)
    with pytest.raises(MatchingError):
        pq_classify(((1, 3, 5),), 1)  # lies inside the mixed complex


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
            m.decode(f) for f in m.faces)
    for i, j in q_indices(k):
        expected = set()
        if k >= 1:
            q = matching_Q(k, i, j)
            expected = set(q.decode(f) for f in q.faces)
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
        assert crit == face_key((v,) + tuple(ws))
        assert len(crit) == k + 1


# ---------------------------------------------------------------------------
# family matchings

def test_family_faces_rejects_stable_missed_set():
    with pytest.raises(ValueError):
        family_faces(1, frozenset({1, 3, 5}))


def test_toggle_run_small():
    pairs, survivors, stage = toggle_run([0b001, 0b011, 0b010, 0b110, 0b100],
                                         [0b010, 0b100])
    assert pairs == [(0b001, 0b011), (0b100, 0b110)]
    assert survivors == {0b010}
    assert stage == {0b001: 1, 0b011: 1, 0b100: 1, 0b110: 1, 0b010: 3}


def _stagewise_element_matching(faces, wbits):
    """The defining run: one element matching per toggle on the leftovers."""
    remaining = set(faces)
    pairs, stage = set(), {}
    for t, wb in enumerate(wbits, start=1):
        m, matched = morse.element_matching(remaining, wb)
        pairs.update(m.pairs)
        stage.update(dict.fromkeys(matched, t))
        remaining -= matched
    stage.update(dict.fromkeys(remaining, len(wbits) + 1))
    return pairs, remaining, stage


def test_toggle_run_equals_stagewise_element_matching():
    k, j = 2, 4
    fam = family_faces(k, frozenset(p_complement(k, 1, j)))
    for idx, faces in split_fibers(fam).items():
        v = fam.triples[idx]
        wbits = [1 << fam.triples.index(w) for w in w_set(v, j, k)]
        pairs, survivors, stage = toggle_run(faces, wbits)
        want_pairs, want_survivors, want_stage = _stagewise_element_matching(faces, wbits)
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == want_pairs, v
        assert survivors == want_survivors, v
        assert stage == want_stage, v


def test_matching_P_catches_a_dropped_toggle_pair(monkeypatch):
    run = toggle_run

    def drop_one(faces, wbits):
        pairs, survivors, stage = run(faces, wbits)
        return pairs[1:], survivors, stage

    monkeypatch.setattr(wedge, 'toggle_run', drop_one)
    with pytest.raises(MatchingError, match="do not partition"):
        matching_P(1, 1, 3)


def test_matching_P_catches_a_face_matched_twice(monkeypatch):
    run = toggle_run

    def duplicate_one(faces, wbits):
        # the last pair is replaced by a copy of the first, so the pair
        # count still partitions the family and only the union check sees it
        pairs, survivors, stage = run(faces, wbits)
        if len(pairs) > 1:
            pairs = pairs[:-1] + pairs[:1]
        return pairs, survivors, stage

    monkeypatch.setattr(wedge, 'toggle_run', duplicate_one)
    with pytest.raises(ValueError, match="matched twice"):
        matching_P(1, 1, 3)


@pytest.mark.parametrize("k,i,j", [(0, 1, 3), (1, 1, 4), (1, 4, 6), (2, 1, 4),
                                   (2, 5, 8)])
def test_matching_P_counts(k, i, j):
    m = matching_P(k, i, j)
    assert len(m.critical) == (k + 1) * (k + 2) // 2
    assert all(bin(c).count('1') == k + 1 for c in m.critical)
    assert len(m.faces) == 2 * len(m.pairs) + len(m.critical)
    ok, witness = morse.is_acyclic(
        morse.Matching(m.decoded_pairs()), [m.decode(f) for f in m.faces])
    assert ok, witness


def test_matching_P_rotation_transports_faces():
    base = matching_P(1, 1, 3)
    rot = matching_P(1, 2, 4)
    moved = {face_key(rotate(base.decode(f), 1, 1)) for f in base.faces}
    assert moved == {rot.decode(f) for f in rot.faces}


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
        for idx, faces in split_fibers(fam).items():
            v = fam.triples[idx]
            ws = w_set(v, j, k)
            wbits = [1 << fam.triples.index(w) for w in ws]
            pairs, survivors, _ = toggle_run(faces, wbits)
            case = w_case(v, j, k)
            if case in ('low-run', 'after-j', 'split'):
                assert len(survivors) == 1
                crit = critical_form(v, j, k)
                assert {m.decode(s) for s in survivors} == {crit}
            else:
                assert not survivors
            assert len(faces) == 2 * len(pairs) + len(survivors)


@pytest.mark.parametrize("j", index_I(1, 2))
def test_stage_labels_are_a_poset_map(j):
    k = 2
    fam = family_faces(k, frozenset(p_complement(k, 1, j)))
    for idx, faces in split_fibers(fam).items():
        v = fam.triples[idx]
        ws = w_set(v, j, k)
        wbits = [1 << fam.triples.index(w) for w in ws]
        _, _, stage = toggle_run(faces, wbits)
        ok, witness = morse.verify_poset_map(
            lambda f: -stage[f], faces)
        assert ok, (v, witness)


def test_no_facet_leaves_a_family_sideways():
    # facets of a family face stay in the family or fall into the middle
    # filtration step, never into a sibling family
    k = 1
    mid = filtration(k, 2).all_faces()
    for i, j in p_indices(k):
        m = matching_P(k, i, j)
        for f in m.faces:
            sigma = m.decode(f)
            for drop in range(len(sigma)):
                tau = sigma[:drop] + sigma[drop + 1:]
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
