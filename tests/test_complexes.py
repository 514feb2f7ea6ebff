"""Neighborhood complexes: construction, faces, complements."""

import itertools

import pytest
from hypothesis import given, strategies as st

from kneser_morse.complexes import (
    NbhdComplex, complement_set, complex_for, decode, face_key, remap,
)
from kneser_morse.graphs import all_triples, graph, is_stable, rotate, triple_index


def triples_of(k):
    return triple_index(k).triples


def test_face_key_dedup_and_order():
    assert face_key([(3, 1, 2), (1, 2, 3), (4, 5, 6)], 0) == face_key([(1, 2, 3), (4, 5, 6)], 0)
    assert face_key([(1, 2, 3), (4, 5, 6)], 0) == 1 | 1 << all_triples(0).index((4, 5, 6))
    assert face_key([], 0) == 0
    assert decode(face_key([[2, 1, 7]], 1), triples_of(1)) == ((1, 2, 7),)
    with pytest.raises(ValueError):
        face_key([(1, 2, 7)], 0)


@given(st.integers(0, 3), st.data())
def test_decode_inverts_face_key(k, data):
    # members in any order and with repeats
    sigma = data.draw(st.lists(st.sampled_from(all_triples(k)).flatmap(st.permutations),
                               max_size=8))
    want = tuple(sorted({tuple(sorted(v)) for v in sigma}))
    assert decode(face_key(sigma, k), triples_of(k)) == want


def test_remap_rotates_and_covers():
    sigma = face_key([(1, 2, 3), (4, 5, 6)], 0)
    bit0, bit1 = triple_index(0).bit, triple_index(1).bit
    moved = remap(sigma, [1 << bit0[rotate(t, 1, 0)] for t in triples_of(0)])
    want = tuple(sorted(rotate(v, 1, 0) for v in decode(sigma, triples_of(0))))
    assert decode(moved, triples_of(0)) == want
    # the ground masks of the index give the covered ground elements
    assert remap(sigma, triple_index(0).ground) == 0b111111
    # a table from k = 0 into the k = 1 index keeps the triples apart
    assert decode(remap(sigma, [1 << bit1[t] for t in triples_of(0)]), triples_of(1)) == \
        ((1, 2, 3), (4, 5, 6))


def test_complement_set():
    assert complement_set(face_key([(1, 2, 3), (1, 4, 5)], 0), 0) == (6,)
    assert complement_set(face_key([(1, 2, 3)], 1), 1) == (4, 5, 6, 7)
    assert complement_set(0, 0) == tuple(range(1, 7))
    with pytest.raises(ValueError):
        complement_set(1 << 20, 0)  # k = 0 has 20 triples


def test_kg0_complex_is_a_perfect_matching():
    # every triple's complement is a single disjoint triple: 20 maximal edges?
    # no: maximal faces are the single-vertex neighborhoods, each of size 1
    cx = complex_for('kg', 0)
    assert len(cx.faces(0)) == 20
    assert all(f.bit_count() == 1 for f in cx.maximal)
    assert cx.dim() == 0


@pytest.mark.parametrize("kind,k,nverts", [
    # the s complex keeps only non-isolated triples (21 of 35 at k=1)
    ('kg', 1, 35), ('s', 1, 21), ('sg', 1, 7), ('sg', 0, 2),
])
def test_vertex_counts(kind, k, nverts):
    cx = complex_for(kind, k)
    assert len(cx.faces(0)) == nverts


@pytest.mark.parametrize("kind,k", [('kg', 0), ('sg', 1), ('s', 1), ('kg', 1)])
def test_maximal_faces_are_incomparable(kind, k):
    cx = complex_for(kind, k)
    for a, b in itertools.combinations(cx.maximal, 2):
        assert a & ~b and b & ~a


@pytest.mark.parametrize("kind,k", [('kg', 0), ('sg', 1), ('s', 0)])
def test_maximal_faces_are_common_neighborhoods(kind, k):
    g = graph(kind, k)
    cx = complex_for(kind, k)
    for f in cx.maximal:
        assert g.common_neighbors(g.common_neighbors(f)) == f


@pytest.mark.parametrize("kind,k", [('kg', 0), ('sg', 1), ('s', 1)])
def test_is_face_matches_enumeration(kind, k):
    cx = complex_for(kind, k)
    faces = set(cx.all_faces())
    verts = cx.faces(0)

    def is_face(sigma):  # nonempty and inside a maximal face
        return sigma != 0 and any(sigma & ~m == 0 for m in cx.maximal)

    for r in range(1, 4):
        for sub in itertools.combinations(verts, r):
            assert is_face(sum(sub)) == (sum(sub) in faces)
    assert 0 not in faces


def test_all_faces_nonempty_and_closed():
    cx = complex_for('sg', 1)
    faces = set(cx.all_faces())
    assert len(faces) == 14  # 7 vertices + 7 edges: the 7-cycle's complex
    for f in faces:
        members = [1 << b for b in range(f.bit_length()) if f >> b & 1]
        for g_ in itertools.combinations(members, len(members) - 1):
            assert len(g_) == 0 or sum(g_) in faces


def test_explicit_generators_roundtrip():
    cx = complex_for('kg', 1)
    assert cx.maximal == NbhdComplex(1, graph('kg', 1).adj).maximal
    rebuilt = NbhdComplex(1, cx.maximal)
    assert rebuilt.maximal == cx.maximal
    assert set(rebuilt.all_faces()) == set(cx.all_faces())


def test_explicit_generators_filter_dominated_and_empty_faces():
    a, ab = face_key([(1, 2, 3)], 0), face_key([(1, 2, 3), (4, 5, 6)], 0)
    cx = NbhdComplex(0, [a, 0, ab, ab])
    assert cx.maximal == [ab]
    assert cx.all_faces() == {a, ab, face_key([(4, 5, 6)], 0)}


def test_all_faces_budget_guard():
    # kg at k = 3: 84 maximal faces of 20 triples each, 84 * 2^20 candidates
    cx = complex_for('kg', 3)
    assert sorted({m.bit_count() for m in cx.maximal}) == [20] and len(cx.maximal) == 84
    with pytest.raises(ValueError, match="refusing to expand %d powerset candidates" % (84 << 20)):
        cx.all_faces()


def test_stable_vertices_only_in_sg():
    cx = complex_for('sg', 1)
    for f in cx.maximal:
        assert all(is_stable(v, 1) for v in decode(f, triples_of(1)))
        assert not f & ~triple_index(1).stable
