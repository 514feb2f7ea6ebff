"""Ground-set basics: triples, stability, rotation, the three graphs."""

import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from kneser_morse.complexes import decode
from kneser_morse.graphs import (
    all_triples, check_vertex, graph, ground_size, is_stable, rotate,
    triple_index, unstable_rep, vertex_mask,
)


def brute_stable(v, k):
    n = ground_size(k)
    pairs = {(x, x % n + 1) for x in range(1, n + 1)}
    return not any((a, b) in pairs or (b, a) in pairs
                   for a, b in itertools.combinations(sorted(v), 2))


def test_check_vertex_normalizes_and_validates():
    assert check_vertex([6, 1, 3], 0) == (1, 3, 6)
    with pytest.raises(ValueError):
        check_vertex((1, 2), 0)
    with pytest.raises(ValueError):
        check_vertex((1, 2, 7), 0)
    with pytest.raises(ValueError):
        check_vertex((1, 1, 3), 0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_triple_count(k):
    assert len(all_triples(k)) == comb(k + 6, 3)
    assert all_triples(k) == sorted(all_triples(k))


def test_stability_fixtures():
    assert is_stable((1, 3, 5), 0)
    assert not is_stable((1, 2, 4), 0)
    # the wrap pair {k+6, 1} counts as adjacent
    assert not is_stable((1, 4, 6), 0)
    assert is_stable((2, 4, 6), 0)
    assert is_stable((1, 3, 5), 1)
    assert not is_stable((1, 3, 7), 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_stable_count_closed_form(k):
    # circular choices of 3 pairwise non-adjacent out of n: n/(n-3) * C(n-3, 3)
    n = k + 6
    found = sum(1 for v in all_triples(k) if is_stable(v, k))
    assert found == n * comb(n - 3, 3) // (n - 3)
    assert all(is_stable(v, k) == brute_stable(v, k) for v in all_triples(k))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_rotate_is_a_group_action(k):
    n = ground_size(k)
    for v in all_triples(k):
        assert rotate(v, n, k) == v
        assert rotate(rotate(v, 2, k), -2, k) == v
        assert rotate(v, 3, k) == rotate(rotate(v, 1, k), 2, k)


def test_rotate_dispatch():
    assert rotate(6, 1, 0) == 1
    assert rotate((5, 6), 2, 0) == (1, 2)
    assert rotate([1, 2, 3], 1, 0) == (2, 3, 4)


@given(st.integers(0, 3), st.integers(-10, 10), st.data())
def test_rotation_preserves_stability(k, j, data):
    v = data.draw(st.sampled_from(all_triples(k)))
    assert is_stable(v, k) == is_stable(rotate(v, j, k), k)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_unstable_rep_roundtrip(k):
    for v in all_triples(k):
        if is_stable(v, k):
            continue
        l, j = unstable_rep(v, k)
        assert rotate((1, 2, l), j, k) == v
        assert 3 <= l <= ground_size(k) - 1


def test_vertex_mask():
    assert vertex_mask((1, 2, 3)) == 0b111
    assert vertex_mask((6,)) == 0b100000


@pytest.mark.parametrize("k,kind,verts,edges", [
    (0, 'kg', 20, 10),   # complement pairing is a perfect matching at k=0
    (0, 'sg', 2, 1),
    (1, 's', 35, 21),
    (1, 'sg', 7, 7),     # the stable triples form a 7-cycle
])
def test_graph_sizes(k, kind, verts, edges):
    g = graph(kind, k)
    assert len(g.verts) == verts
    assert sum(1 for _ in g.edges()) == edges


@pytest.mark.parametrize("k", [0, 1, 2])
def test_kneser_degree(k):
    g = graph('kg', k)
    for v in g.verts[:10]:
        assert g.adj[triple_index(k).bit[v]].bit_count() == comb(k + 3, 3)


@pytest.mark.parametrize("k", [0, 1])
def test_adjacency_definitions(k):
    kg = graph('kg', k)
    s = graph('s', k)
    sg = graph('sg', k)
    kg_edges = {frozenset(e) for e in kg.edges()}
    s_edges = {frozenset(e) for e in s.edges()}
    sg_edges = {frozenset(e) for e in sg.edges()}
    # disjointness everywhere; at least one stable endpoint for s; both for sg
    for a, b in kg_edges:
        assert not set(a) & set(b)
    assert s_edges == {e for e in kg_edges
                       if any(is_stable(v, k) for v in e)}
    assert sg_edges == {e for e in kg_edges
                        if all(is_stable(v, k) for v in e)}


@pytest.mark.parametrize("k", [0, 1])
def test_rotation_is_an_automorphism(k):
    g = graph('kg', k)
    edges = {frozenset(e) for e in g.edges()}
    for a, b in list(edges)[:50]:
        assert frozenset((rotate(a, 1, k), rotate(b, 1, k))) in edges


def test_neighborhood_common():
    # N of a set is the intersection of the members' neighborhoods
    g = graph('kg', 2)
    ix = triple_index(2)
    a, b = (1, 2, 3), (2, 4, 5)
    both = g.adj[ix.bit[a]] & g.adj[ix.bit[b]]
    assert g.common_neighbors(1 << ix.bit[a] | 1 << ix.bit[b]) == both
    assert decode(both, ix.triples) == ((6, 7, 8),)
    assert g.common_neighbors(0) == -1


@pytest.mark.parametrize("kind", ['kg', 's', 'sg'])
@pytest.mark.parametrize("k", [0, 1])
def test_adjacency_rows_are_face_masks_over_the_triple_index(kind, k):
    # every kind, sg included, numbers its rows and their bits by the per-k
    # index; a triple that is no vertex has row 0 and lies in no row
    g = graph(kind, k)
    triples = triple_index(k).triples
    vertex = [kind != 'sg' or is_stable(t, k) for t in triples]
    assert g.verts == [t for t, keep in zip(triples, vertex) if keep]
    assert len(g.adj) == len(triples)
    for b, t in enumerate(triples):
        want = sum(1 << c for c, u in enumerate(triples)
                   if vertex[b] and vertex[c] and not set(t) & set(u)
                   and (kind != 's' or is_stable(t, k) or is_stable(u, k)))
        assert g.adj[b] == want, t
