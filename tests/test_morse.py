"""Matching machinery: covers, acyclicity, poset-map checks.

The acyclicity test is cross-checked against a straightforward cycle search
on the modified Hasse diagram (cover arcs point down, matched arcs point up),
which is the textbook definition.
"""

import random

import networkx as nx
import pytest

from kneser_morse.morse import (
    Matching, compose_cluster, critical_cells, element_matching, face_dim,
    face_facets, is_acyclic, is_cover, is_perfect, verify_poset_map,
)


def test_face_dim_both_reps():
    assert face_dim(((1, 2, 3),)) == 0
    assert face_dim(((1, 2, 3), (4, 5, 6))) == 1
    assert face_dim(0b1) == 0
    assert face_dim(0b10110) == 2


def test_face_facets_both_reps():
    assert set(face_facets(((1, 2, 3), (4, 5, 6)))) == {((1, 2, 3),), ((4, 5, 6),)}
    assert set(face_facets(0b1011)) == {0b1010, 0b1001, 0b0011}
    assert list(face_facets(0b1)) == [0]


def test_is_cover_both_reps():
    assert is_cover(0b001, 0b011)
    assert not is_cover(0b001, 0b111)
    assert not is_cover(0b011, 0b001)
    assert not is_cover(0b011, 0b011)
    assert is_cover(((1, 2, 3),), ((1, 2, 3), (4, 5, 6)))
    assert not is_cover(((1, 2, 3),), ((1, 2, 4), (4, 5, 6)))


def test_matching_rejects_bad_pairs():
    with pytest.raises(ValueError, match="non-covering"):
        Matching([(0b001, 0b010)])
    with pytest.raises(ValueError, match="matched twice"):
        Matching([(0b001, 0b011), (0b001, 0b101)])
    with pytest.raises(ValueError, match="matched twice"):
        Matching([(0b001, 0b011), (0b010, 0b011)])


def test_matching_partner_lookup():
    m = Matching([(0b001, 0b011), (0b100, 0b110)])
    assert m.partner[0b001] == 0b011
    assert m.partner[0b011] == 0b001
    assert m.matched() == {0b001, 0b011, 0b100, 0b110}
    assert len(m) == 2
    assert 0b001 in m and 0b111 not in m


def test_element_matching_is_perfect_on_its_subfamily():
    delta = [0b010, 0b011, 0b110, 0b111, 0b100]
    m, sub = element_matching(delta, 0b001)
    assert sub == {0b010, 0b011, 0b110, 0b111}
    assert is_perfect(m, sub)
    assert not is_perfect(m, delta)
    assert critical_cells(delta, m) == [0b100]
    ok, _ = is_acyclic(m)
    assert ok


def test_element_matching_tuple_faces():
    delta = [((1, 2, 3),), ((1, 2, 3), (4, 5, 6))]
    m, sub = element_matching(delta, (4, 5, 6))
    assert len(m) == 1 and sub == set(delta)


def test_element_matching_rejects_wide_mask():
    with pytest.raises(ValueError):
        element_matching([0b001, 0b011], 0b011)


def assert_witness_closes(matching, witness):
    """Each next lower face is a facet of the current upper face, other
    than the current lower face, and the last pair leads back to the first."""
    assert witness is not None and len(witness) >= 2
    assert all(pair in matching.pairs for pair in witness)
    for (sigma, tau), (nxt, _) in zip(witness, witness[1:] + witness[:1]):
        assert nxt != sigma
        assert nxt in set(face_facets(tau))


def test_planted_three_cycle_is_caught():
    m = Matching([(0b001, 0b011), (0b010, 0b110), (0b100, 0b101)])
    ok, witness = is_acyclic(m)
    assert not ok
    assert_witness_closes(m, witness)
    assert len(witness) == 3


def test_planted_three_cycle_on_tuple_faces_is_caught():
    a, b, c = (1, 2, 3), (4, 5, 6), (7, 8, 9)
    m = Matching([((a,), (a, b)), ((b,), (b, c)), ((c,), (a, c))])
    ok, witness = is_acyclic(m, cells=[(a,), (b,), (c,), (a, b), (b, c), (a, c)])
    assert not ok
    assert_witness_closes(m, witness)
    assert len(witness) == 3


def test_acyclic_chain():
    m = Matching([(0b001, 0b011), (0b010, 0b110)])
    ok, witness = is_acyclic(m)
    assert ok and witness is None


def test_long_acyclic_chain_needs_no_recursion():
    # pair i is ({i}, {i, i+1}); its upper face leads only to pair i+1, so
    # the search runs one path 20,000 pairs deep
    n = 20_000
    m = Matching([(1 << i, 3 << i) for i in range(n)])
    assert is_acyclic(m) == (True, None)


def test_is_acyclic_enforces_cells():
    m = Matching([(0b001, 0b011)])
    with pytest.raises(ValueError):
        is_acyclic(m, cells=[0b001])


def oracle_acyclic(matching, cells):
    """Modified Hasse diagram: down arcs, matched arcs flipped upward."""
    dg = nx.DiGraph()
    dg.add_nodes_from(cells)
    cs = set(cells)
    for tau in cells:
        for sigma in face_facets(tau):
            if sigma not in cs:
                continue
            if matching.partner.get(sigma) == tau:
                dg.add_edge(sigma, tau)
            else:
                dg.add_edge(tau, sigma)
    return nx.is_directed_acyclic_graph(dg)


def random_matching(rng, cells):
    pool = [(s, t) for t in cells for s in face_facets(t) if s in set(cells)]
    rng.shuffle(pool)
    used, pairs = set(), []
    for s, t in pool:
        if s not in used and t not in used:
            pairs.append((s, t))
            used.update((s, t))
    return Matching(pairs)


@pytest.mark.parametrize("seed", range(40))
def test_is_acyclic_agrees_with_hasse_oracle(seed):
    rng = random.Random(seed)
    universe = list(range(1, 2 ** rng.choice([4, 5])))
    cells = sorted(rng.sample(universe, min(len(universe), 20)))
    m = random_matching(rng, cells)
    got, witness = is_acyclic(m, cells=cells)
    assert got == oracle_acyclic(m, cells)
    if got:
        assert witness is None
    else:
        assert_witness_closes(m, witness)


def test_verify_poset_map():
    cells = [0b001, 0b011, 0b111]
    ok, bad = verify_poset_map(face_dim, cells)
    assert ok and bad is None
    ok, bad = verify_poset_map(lambda f: -face_dim(f), cells)
    assert not ok
    assert bad == (0b001, 0b011)


def test_verify_poset_map_ignores_missing_facets():
    # facets outside the family put no constraint on the labels
    ok, _ = verify_poset_map(lambda f: 0, [0b011, 0b110])
    assert ok


def test_compose_cluster():
    label = lambda f: face_dim(f) // 2
    fibers = {
        0: Matching([(0b001, 0b011)]),
        1: Matching([(0b111, 0b1111)]),
    }
    merged = compose_cluster(label, fibers)
    assert len(merged) == 2
    with pytest.raises(ValueError, match="straddles"):
        compose_cluster(lambda f: face_dim(f), fibers)


def test_critical_cells_order_and_content():
    cells = [0b001, 0b010, 0b011]
    m = Matching([(0b001, 0b011)])
    assert critical_cells(cells, m) == [0b010]
    assert critical_cells(cells, Matching([])) == cells
