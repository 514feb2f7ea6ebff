"""Matching machinery: covers, acyclicity, poset-map checks.

The acyclicity test is cross-checked against a straightforward cycle search
on the modified Hasse diagram (cover arcs point down, matched arcs point up),
which is the textbook definition, and against a reference search that walks
the facets through a generator, for the exact witness.
"""

import itertools
import random
import sys

import networkx as nx
import pytest

from kneser_morse import morse
from kneser_morse.morse import (
    Matching, PairError, compose_cluster, element_matching,
    StagePairs, face_facets, is_acyclic, is_cover, verify_poset_map,
)
from kneser_morse.wedge import matching_P

from test_collapse import index_I


def matched(m):
    """Every face of a pair of the matching ``m``."""
    return {f for pair in m.pairs for f in pair}


def test_face_facets_both_reps():
    # low bit first; dropping a bit with i set bits below it carries (-1)^i
    assert list(face_facets(0b1011)) == [(0b1010, 1), (0b1001, -1), (0b0011, 1)]
    assert list(face_facets(0b10100)) == [(0b10000, 1), (0b00100, -1)]
    assert list(face_facets(0b1)) == [(0, 1)]
    assert list(face_facets(0)) == []


def test_is_cover_both_reps():
    assert is_cover(0b001, 0b011)
    assert not is_cover(0b001, 0b111)
    assert not is_cover(0b011, 0b001)
    assert not is_cover(0b011, 0b011)


def test_matching_rejects_bad_pairs():
    with pytest.raises(ValueError, match="non-covering") as bad:
        Matching([(0b001, 0b010)])
    assert bad.value.faces == (0b001, 0b010)
    with pytest.raises(ValueError, match="matched twice"):
        Matching([(0b001, 0b011), (0b001, 0b101)])
    with pytest.raises(ValueError, match="matched twice"):
        Matching([(0b001, 0b011), (0b010, 0b011)])


def test_matching_partner_lookup():
    m = Matching([(0b001, 0b011), (0b100, 0b110)])
    assert m.partner[0b001] == 0b011
    assert m.partner[0b011] == 0b001
    assert matched(m) == {0b001, 0b011, 0b100, 0b110}
    assert len(m) == 2
    assert 0b001 in m and 0b111 not in m


def test_element_matching_is_perfect_on_its_subfamily():
    delta = [0b010, 0b011, 0b110, 0b111, 0b100]
    pairs = element_matching(delta, 0b001)
    assert sorted(pairs) == [(0b010, 0b011), (0b110, 0b111)]
    m = Matching(pairs)
    sub = matched(m)
    assert sub == {0b010, 0b011, 0b110, 0b111}
    assert all(f in m for f in sub)
    assert not all(f in m for f in delta)
    assert [f for f in delta if f not in m] == [0b100]
    ok, _ = is_acyclic(m)
    assert ok


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
        assert nxt in {f for f, _ in face_facets(tau)}


def test_planted_three_cycle_is_caught():
    m = Matching([(0b001, 0b011), (0b010, 0b110), (0b100, 0b101)])
    ok, witness = is_acyclic(m)
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


def oracle_acyclic(matching, cells):
    """Modified Hasse diagram: down arcs, matched arcs flipped upward."""
    dg = nx.DiGraph()
    dg.add_nodes_from(cells)
    cs = set(cells)
    for tau in cells:
        for sigma, _ in face_facets(tau):
            if sigma not in cs:
                continue
            if matching.partner.get(sigma) == tau:
                dg.add_edge(sigma, tau)
            else:
                dg.add_edge(tau, sigma)
    return nx.is_directed_acyclic_graph(dg)


def random_matching(rng, cells):
    pool = [(s, t) for t in cells for s, _ in face_facets(t) if s in set(cells)]
    rng.shuffle(pool)
    used, pairs = set(), []
    for s, t in pool:
        if s not in used and t not in used:
            pairs.append((s, t))
            used.update((s, t))
    return Matching(pairs)


def reference_is_acyclic(matching):
    """The same depth-first search with every facet of an upper face drawn
    from ``face_facets``, its own lower face skipped: the visit order, and
    so the witness, that ``is_acyclic`` must reproduce."""
    up = dict(matching.pairs)
    for root, _ in matching.pairs:
        if root not in up:
            continue
        trail = [root]
        on_trail = {root}
        stack = [face_facets(up[root])]
        while stack:
            sigma = trail[-1]
            for f, _ in stack[-1]:
                if f == sigma or f not in up:
                    continue
                if f in on_trail:
                    return False, [(s, up[s]) for s in trail[trail.index(f):]]
                trail.append(f)
                on_trail.add(f)
                stack.append(face_facets(up[f]))
                break
            else:
                stack.pop()
                done = trail.pop()
                on_trail.remove(done)
                del up[done]
    return True, None


def random_case(seed):
    """Twenty random cells on 4 or 5 bits and a random matching on them."""
    rng = random.Random(seed)
    universe = list(range(1, 2 ** rng.choice([4, 5])))
    cells = sorted(rng.sample(universe, min(len(universe), 20)))
    return cells, random_matching(rng, cells)


@pytest.mark.parametrize("seed", range(40))
def test_is_acyclic_agrees_with_hasse_oracle(seed):
    cells, m = random_case(seed)
    got, witness = is_acyclic(m)
    assert got == oracle_acyclic(m, cells)
    assert (got, witness) == reference_is_acyclic(m)
    if got:
        assert witness is None
    else:
        assert_witness_closes(m, witness)
    assert_layouts_agree(stage_each(m.pairs))


def test_the_witness_follows_ascending_bits():
    # the root (1+8, 1+8+64) leads through facet 64+8 into one three-cycle
    # and through facet 64+1 into another; the lower bit of the root is
    # probed first, so the witness is the cycle through 64+8
    low = [(64 | 1, 64 | 1 | 2), (64 | 2, 64 | 2 | 4), (64 | 4, 64 | 4 | 1)]
    high = [(64 | 8, 64 | 8 | 16), (64 | 16, 64 | 16 | 32), (64 | 32, 64 | 32 | 8)]
    m = Matching([(1 | 8, 1 | 8 | 64)] + low + high)
    assert is_acyclic(m) == reference_is_acyclic(m) == (False, high)


def planted_cycle(fm):
    """The pairs of family ``fm`` with (A+x, A+x+y), (A+y, A+y+z) and
    (A+z, A+z+x) in place of whatever matched those six faces; each upper
    face has the next lower face as a facet, so the three close a cycle."""
    faces = set(fm.faces)
    width = len(fm.triples)
    a, x, y, z = next((a, x, y, z) for a in fm.faces
                      for x, y, z in itertools.combinations([1 << b for b in range(width)], 3)
                      if not a & (x | y | z) and {a | x, a | y, a | z} <= faces)
    planted = [(a | x, a | x | y), (a | y, a | y | z), (a | z, a | z | x)]
    touched = {f for pair in planted for f in pair}
    return [p for p in fm.pairs if not touched & set(p)] + planted


def test_a_cycle_planted_in_a_base_family_is_caught():
    fm = matching_P(2, 1, 4)
    pairs = planted_cycle(fm)
    m = Matching(StagePairs(planted_stages(fm, pairs)))
    assert list(m.pairs) == pairs
    assert is_acyclic(Matching(fm.pairs)) == (True, None)
    ok, witness = is_acyclic(m)
    assert not ok
    assert_witness_closes(m, witness)
    assert set(witness) & set(pairs[-3:])  # the pairs left in place are acyclic
    assert (ok, witness) == reference_is_acyclic(Matching(pairs))
    assert_layouts_agree(m.pairs)


# ---------------------------------------------------------------------------
# the two layouts: stages on bitsets, any other pairs on a dict

def stage_each(pairs):
    """``pairs`` as ``StagePairs``, one pair per stage and in order, as
    ``planted_stages`` stages its planted pairs: the stage of a pair is the
    one bit by which its faces differ."""
    staged = StagePairs(((sigma ^ tau).bit_length() - 1, 1 << tau) for sigma, tau in pairs)
    assert list(staged) == list(pairs)
    return staged


def width(pairs):
    return max(f for pair in pairs for f in pair).bit_length()


def assert_layouts_agree(staged):
    """The stages ``staged``, on the bitset layout, and the same pairs
    listed, on the dict layout, give the reference search and witness and
    the same lookups."""
    m, listed = Matching(staged), Matching(list(staged))
    assert m.pairs is staged and isinstance(listed.pairs, list)
    assert is_acyclic(m) == is_acyclic(listed) == reference_is_acyclic(listed)
    assert m.partner == listed.partner
    assert matched(m) == matched(listed)
    assert -1 not in m and -1 not in listed
    partner = m.partner
    for f in range(2 << width(listed.pairs)):
        assert (f in m) == (f in partner) == (f in listed)


def test_the_pairs_pick_the_layout(monkeypatch):
    # stages keep their bitsets, are peeled before the search and build the
    # partner dict on first use; any other iterable is listed once into a
    # partner dict and searched in full, however narrow its masks
    fm = matching_P(2, 1, 4)
    real, peeled_up = morse._peel, []
    monkeypatch.setattr(morse, "_peel", lambda low, up: peeled_up.append(up) or real(low, up))
    listed = Matching(iter([(0b001, 0b011)]))
    assert listed.pairs == [(0b001, 0b011)] and listed._partner == {0b001: 0b011, 0b011: 0b001}
    assert is_acyclic(listed) == (True, None) and peeled_up == []
    staged = Matching(fm.pairs)
    assert staged.pairs is fm.pairs and staged._partner is None
    assert is_acyclic(staged) == (True, None) and peeled_up == [fm.pairs.bitsets()[1]]
    assert is_acyclic(Matching(list(fm.pairs))) == (True, None) and len(peeled_up) == 1
    assert is_acyclic(Matching(StagePairs([]))) == (True, None) and peeled_up[1:] == [0]
    assert is_acyclic(Matching([])) == (True, None) and len(peeled_up) == 2


def test_both_layouts_follow_the_reference_on_dense_matchings():
    # every nonempty face on 6 bits: with this many pairs the probe order
    # decides which cycle the witness names, which the sparse cases of the
    # Hasse oracle test rarely show
    for seed in range(40):
        m = random_matching(random.Random(seed), list(range(1, 64)))
        assert_layouts_agree(stage_each(m.pairs))


def test_the_random_cases_cover_both_layouts():
    # every random case runs on both layouts (assert_layouts_agree), and
    # the cases hold acyclic and cyclic matchings, so each layout meets both
    verdicts = {is_acyclic(Matching(stage_each(random_case(seed)[1].pairs)))[0]
                for seed in range(40)}
    assert verdicts == {False, True}


def test_the_table_marks_lower_and_upper_faces():
    m = Matching(stage_each([(0b001, 0b011), (0b100, 0b110)]))
    assert m.pairs.bitsets() == (1 << 0b001 | 1 << 0b100, 1 << 0b011 | 1 << 0b110)
    assert all(f in m for f in (0b001, 0b011, 0b100, 0b110))
    assert 0b010 not in m and 0b101 not in m and 7 not in m
    assert m.partner == {0b001: 0b011, 0b011: 0b001, 0b100: 0b110, 0b110: 0b100}
    assert matched(m) == {0b001, 0b011, 0b100, 0b110}


@pytest.mark.parametrize("pairs", [
    [(0b001, 0b011), (0b011, 0b111)],  # upper face, then lower face
    [(0b011, 0b111), (0b001, 0b011)],  # lower face, then upper face
])
def test_a_face_in_both_roles_is_named_in_both_layouts(pairs):
    with pytest.raises(PairError) as staged:
        Matching(stage_each(pairs))
    with pytest.raises(PairError) as listed:
        Matching(pairs)
    assert staged.value.faces == listed.value.faces == (0b011,)
    assert str(staged.value) == str(listed.value) == "face 3 matched twice"


# ---------------------------------------------------------------------------
# sink peeling on the bitset layout, and the search of the pairs it leaves

def walk_pairs(walk):
    """A gradient path along the vertex sequence ``walk``: pair i is the
    edge {v_i, v_i+1} under the triangle {v_i, v_i+1, v_i+2}, whose facet
    {v_i+1, v_i+2} is the next pair's edge."""
    mask = lambda vs: sum(1 << v for v in vs)
    return [(mask(walk[i:i + 2]), mask(walk[i:i + 3])) for i in range(len(walk) - 2)]


# each set of six or more of the vertices 0..10 under itself plus vertex 11:
# 1,024 sinks, none with an arc to or from the edges and triangles of a
# walk, that widen the table to 4,096 masks (64 words)
FILLER = [(s, s | 1 << 11) for s in range(1 << 11) if s.bit_count() >= 6]

# steps of 1, 2 and 3 around 11 vertices: 32 distinct edges and triangles
LONG_PATH = walk_pairs([d * i % 11 for d in (1, 2, 3) for i in range(11)] + [0])

# steps of 1 around 11 vertices and back to the first edge: an 11-pair cycle
LONG_CYCLE = walk_pairs(list(range(11)) + [0, 1])


def peeled(m):
    """The pairs peeling leaves, in pair order, and the pairs per round."""
    low, rounds = morse._peel(*m.pairs.bitsets())
    return m.pairs.select(low), rounds


def table_width(m):
    """The masks of the table of ``m``: up to its largest upper face."""
    return m.pairs.bitsets()[1].bit_length()


def assert_peeling_stops_in_linear_rounds(m, rounds):
    """At most pairs // words + 1 rounds, each removing at least one pair,
    so the rounds cost no more than a pass per pair."""
    words = -(-table_width(m) // 64)
    assert len(rounds) <= len(m) // words + 1
    assert all(rounds)


def test_peeling_stops_on_a_long_acyclic_path():
    # round 1 takes the filler and the path's last pair, and every later
    # round one more pair: the budget of 1,056 // 64 + 1 = 17 rounds is
    # spent with the path's first 15 pairs left, and the search finishes it
    m = Matching(stage_each(LONG_PATH + FILLER))
    assert table_width(m) == 4096 and len(m) == 1056
    rest, rounds = peeled(m)
    assert rounds == [1025] + [1] * 16
    assert rest == LONG_PATH[:15]
    assert_peeling_stops_in_linear_rounds(m, rounds)
    assert is_acyclic(m) == reference_is_acyclic(m) == (True, None)
    assert_layouts_agree(m.pairs)


def test_peeling_stops_on_a_long_cycle():
    # round 1 takes the filler; the next finds no sink, a stall with the
    # whole cycle left for the search
    m = Matching(stage_each(LONG_CYCLE + FILLER))
    rest, rounds = peeled(m)
    assert rounds == [1024]
    assert rest == LONG_CYCLE
    assert_peeling_stops_in_linear_rounds(m, rounds)
    assert is_acyclic(m) == reference_is_acyclic(m) == (False, LONG_CYCLE)
    assert_layouts_agree(m.pairs)


def test_peeling_a_base_family_stops_in_linear_rounds():
    # every P-base at k = 2 and 3 is acyclic, so removing sinks empties it,
    # within the round budget
    for k in (2, 3):
        for j in index_I(1, k):
            m = Matching(matching_P(k, 1, j).pairs)
            low, rounds = morse._peel(*m.pairs.bitsets())
            assert low == 0 and sum(rounds) == len(m), (k, j)
            assert_peeling_stops_in_linear_rounds(m, rounds)


def test_peeling_empties_3_1_4_in_twelve_rounds():
    pairs = matching_P(3, 1, 4).pairs
    low, rounds = morse._peel(*pairs.bitsets())
    assert low == 0
    assert rounds == [325945, 97370, 47985, 23277, 11918, 5984,
                      3906, 2490, 1446, 635, 258, 69]
    assert len(pairs) // ((1 << 20) // 64) + 1 == 32  # the budget


def test_an_acyclic_family_is_neither_listed_nor_searched(monkeypatch):
    # the build of (3, 1, 4) runs is_acyclic on its stages, and so does the
    # check below: peeling empties them, and neither lists nor searches
    def spy(*args):
        raise AssertionError("called on an acyclic family")

    monkeypatch.setattr(morse, "_search_dict", spy)
    monkeypatch.setattr(StagePairs, "select", spy)
    assert is_acyclic(Matching(matching_P(3, 1, 4).pairs)) == (True, None)


def test_peeling_empties_exactly_the_acyclic_stage_cases():
    # the random and dense cases one pair per stage: a case peels to empty
    # within its budget iff the reference search finds no cycle
    cases = [random_case(seed)[1] for seed in range(40)]
    cases += [random_matching(random.Random(seed), list(range(1, 64))) for seed in range(40)]
    for m in cases:
        staged = Matching(stage_each(m.pairs))
        low, rounds = morse._peel(*staged.pairs.bitsets())
        assert_peeling_stops_in_linear_rounds(staged, rounds)
        assert (low == 0) == reference_is_acyclic(m)[0]


def test_a_cycle_planted_in_a_k3_base_family_is_caught_in_both_layouts():
    # as at k = 2 above, on the 2^20-mask table of (3, 1, 4): peeling stalls
    # with pairs left, and their search names the cycle that the same pairs
    # listed, searched in full on the dict layout, name
    fm = matching_P(3, 1, 4)
    m = Matching(StagePairs(planted_stages(fm, planted_cycle(fm))))
    assert table_width(m) == 1 << 20
    # more masks than the int string-digit limit allows digits (4300 by
    # default): the bitsets are listed through base 2, which it exempts
    assert table_width(m) > getattr(sys, "get_int_max_str_digits", lambda: 0)()
    rest, rounds = peeled(m)
    assert rest and len(rest) == len(m) - sum(rounds)
    assert_peeling_stops_in_linear_rounds(m, rounds)
    ok, witness = is_acyclic(m)
    assert not ok
    assert_witness_closes(m, witness)
    assert is_acyclic(Matching(list(m.pairs))) == (False, witness)


def planted_stages(fm, pairs):
    """``pairs``, the ``planted_cycle`` of ``fm``, in stage form: every
    stage of ``fm`` without the pairs that touch the six planted faces,
    then one stage per planted pair, so it iterates as ``pairs``."""
    planted = pairs[-3:]
    touched = {f for pair in planted for f in pair}
    drop = sum(1 << tau for sigma, tau in fm.pairs if touched & {sigma, tau})
    return [(b, up & ~drop) for b, up in fm.pairs.stages] + stage_each(planted).stages


def test_a_cycle_planted_in_stage_form_is_caught_in_every_layout():
    # the stages of (3, 1, 4) with a three-cycle planted: validated in bulk,
    # peeled, and searched stage by stage, they give the witness and the
    # lookups of the same pairs listed on the dict layout
    fm = matching_P(3, 1, 4)
    pairs = planted_cycle(fm)
    staged = StagePairs(planted_stages(fm, pairs))
    assert list(staged) == pairs
    m = Matching(staged)
    assert m.pairs is staged
    rest, rounds = peeled(m)
    assert rest and len(rest) == len(m) - sum(rounds)
    ok, witness = is_acyclic(m)
    assert not ok
    assert_witness_closes(m, witness)
    assert set(witness) & set(pairs[-3:])
    assert_layouts_agree(staged)


def bad_pair_cases(fm):
    """Pair lists that break the matching of a base family, each with the
    faces ``PairError`` must name: a pair upside down, which does not
    cover, a lower face matched again, and an upper face matched again
    from a critical cell.  Each pair's faces differ in one bit, so every
    list also runs one pair per stage."""
    pairs = list(fm.pairs)
    s0, t0 = pairs[0]
    extra = next(1 << b for b in range(len(fm.triples)) if not t0 >> b & 1)
    c, t = next((c, t) for c in fm.critical for _, t in pairs if is_cover(c, t))
    return [
        (pairs[:3] + [(t0 | extra, t0)] + pairs[3:], (t0 | extra, t0)),
        (pairs + [(s0, s0 | extra)], (s0,)),
        (pairs + [(c, t)], (t,)),
    ]


def test_both_layouts_name_the_same_bad_pairs():
    for pairs, faces in bad_pair_cases(matching_P(2, 1, 4)):
        staged = stage_each(pairs)
        assert not morse._staged(staged)
        with pytest.raises(PairError) as bulk:
            Matching(staged)
        with pytest.raises(PairError) as listed:
            Matching(pairs)
        assert bulk.value.faces == listed.value.faces == faces
        assert str(bulk.value) == str(listed.value)


def test_stage_pairs_is_a_sized_view():
    # stage 1 pairs 0b011 and 0b110 with their facets without bit 1, stage
    # 0 pairs 0b1001 with 0b1000; iteration is stage by stage, ascending
    staged = StagePairs([(1, 1 << 0b110 | 1 << 0b011), (0, 1 << 0b1001)])
    assert len(staged) == 3
    assert list(staged) == [(0b001, 0b011), (0b100, 0b110), (0b1000, 0b1001)]
    low, up = staged.bitsets()
    assert low == 1 << 0b001 | 1 << 0b100 | 1 << 0b1000
    assert up == 1 << 0b011 | 1 << 0b110 | 1 << 0b1001
    assert staged.select(1 << 0b100 | 1 << 0b1000) == [(0b100, 0b110), (0b1000, 0b1001)]
    m = Matching(staged)
    assert m.pairs is staged and m._partner is None
    assert m.partner == Matching(list(staged)).partner
    assert 0b1000 in m and 0b010 not in m
    assert len(StagePairs([(0, 0)])) == 0 and list(StagePairs([(0, 0)])) == []


def staged_defects(fm):
    """The stages of base family ``fm`` with one planted defect each, and
    the faces ``PairError`` must name: an upper face t replaced by its
    lower face s (so it lacks its toggle bit), the pair (s, t) again in a
    stage of its own, and t as the lower face of a pair of its own."""
    stages = fm.pairs.stages
    at = next(i for i, (_, up) in enumerate(stages) if up)
    b, up = stages[at]
    t = (up & -up).bit_length() - 1
    s = t ^ 1 << b
    c = next(c for c in range(len(fm.triples)) if not t >> c & 1)
    return [
        (stages[:at] + [(b, up ^ 1 << t | 1 << s)] + stages[at + 1:], (t, s)),
        (stages + [(b, 1 << t)], (s,)),
        (stages + [(c, 1 << (t | 1 << c))], (t,)),
    ]


def test_staged_defects_raise_as_the_listed_pairs_do():
    # each defect fails the bulk check, and the pair-by-pair fallback names
    # the first bad pair in iteration order, as the same pairs listed do
    for k, j in [(1, 3), (2, 4), (2, 6)]:
        for stages, faces in staged_defects(matching_P(k, 1, j)):
            staged = StagePairs(stages)
            assert not morse._staged(staged)
            with pytest.raises(PairError) as bulk:
                Matching(staged)
            with pytest.raises(PairError) as listed:
                Matching(list(staged))
            assert bulk.value.faces == listed.value.faces == faces
            assert str(bulk.value) == str(listed.value)


def test_a_stage_bit_past_its_upper_faces_is_a_pair_error():
    # stage 1 holds the upper face 1, which lacks bit 1: the pair (3, 1)
    # does not cover, and the bit lies past the one-bit table of the stage
    with pytest.raises(PairError) as bad:
        Matching(StagePairs([(1, 0b10)]))
    assert bad.value.faces == (3, 1)
    assert bad.value.what == "does not cover"


def test_a_pair_from_the_empty_face_passes_the_bulk_check():
    # the upper face of (0, 2^b) is the single bit b, the one face whose
    # index needs the mask table to reach exactly bit b
    for b in range(4):
        assert morse._staged(StagePairs([(b, 1 << (1 << b))]))
        assert Matching(StagePairs([(b, 1 << (1 << b))])).partner == {0: 1 << b, 1 << b: 0}


def test_stages_that_fail_only_the_bulk_check_are_never_accepted(monkeypatch):
    # a bulk check that fails valid stages: the replay finds no bad pair,
    # and Matching raises rather than accept stages the bulk check refused
    pairs = matching_P(2, 1, 4).pairs
    monkeypatch.setattr(morse, "_staged", lambda staged: None)
    with pytest.raises(AssertionError, match="bulk check"):
        Matching(pairs)


def test_verify_poset_map():
    cells = [0b001, 0b011, 0b111]
    ok, bad = verify_poset_map({f: f.bit_count() - 1 for f in cells})
    assert ok and bad is None
    ok, bad = verify_poset_map({f: 1 - f.bit_count() for f in cells})
    assert not ok
    assert bad == (0b001, 0b011)


def test_verify_poset_map_ignores_missing_facets():
    # facets outside the family put no constraint on the labels
    ok, _ = verify_poset_map({0b011: 0, 0b110: 0})
    assert ok


def test_compose_cluster():
    fibers = {
        0: [(0b001, 0b011)],
        1: [(0b111, 0b1111)],
    }
    faces = [0b001, 0b011, 0b111, 0b1111]
    merged = compose_cluster({f: (f.bit_count() - 1) // 2 for f in faces}, fibers)
    assert len(merged) == 2
    assert merged.partner[0b011] == 0b001 and merged.partner[0b111] == 0b1111
    with pytest.raises(ValueError, match="straddles") as bad:
        compose_cluster({f: f.bit_count() - 1 for f in faces}, fibers)
    assert bad.value.faces == (0b001, 0b011)
    assert (bad.value.what, bad.value.key) == ("straddles fibers", 0)


def test_compose_cluster_refuses_a_face_outside_the_table():
    with pytest.raises(PairError, match="straddles") as bad:
        compose_cluster({0b001: 0}, {0: [(0b001, 0b011)]})
    assert bad.value.faces == (0b001, 0b011)
    assert bad.value.key == 0


def test_compose_cluster_names_the_fiber_of_a_face_matched_twice():
    # both pairs lie in fiber 1, so the face reused is filed under 1
    key_of = {0b001: 0, 0b010: 1, 0b011: 1, 0b110: 1}
    with pytest.raises(PairError, match="matched twice") as bad:
        compose_cluster(key_of, {0: [], 1: [(0b010, 0b011), (0b010, 0b110)]})
    assert bad.value.faces == (0b010,)
    assert (bad.value.what, bad.value.key) == ("holds a face matched twice", 1)
    with pytest.raises(PairError, match="non-covering") as bad:
        compose_cluster(key_of, {1: [(0b011, 0b110)]})
    assert (bad.value.what, bad.value.key) == ("does not cover", 1)


def test_compose_cluster_leaves_the_critical_cells():
    # the cells of the table that the union leaves unmatched, in table order
    key_of = {0b001: 0, 0b010: 0, 0b011: 0}
    composed = compose_cluster(key_of, {0: [(0b001, 0b011)]})
    assert [c for c in key_of if c not in composed.partner] == [0b010]
    composed = compose_cluster(key_of, {0: []})
    assert [c for c in key_of if c not in composed.partner] == list(key_of)
