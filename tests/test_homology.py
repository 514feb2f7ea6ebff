"""Exact homology: Smith normal form, Betti numbers, relative pairs.

Rank results are cross-checked against an independent Gaussian elimination
over the rationals, done here with Fraction arithmetic and no pivot tricks,
and the torsion of the top-down, cleared walk against the Smith form of
each whole boundary matrix.
"""

from fractions import Fraction

import pytest

from kneser_morse import homology
from kneser_morse.complexes import complex_for
from kneser_morse.homology import (
    CHECK_PRIMES, FaceFamily, SparseIntMatrix, betti, boundary_matrix,
    rank_mod_p, relative_betti, smith_normal_form,
)


def dense(matrix):
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for i, j, v in matrix.triples:
        rows[i][j] += v
    return rows


def fraction_rank(matrix):
    rows = [[Fraction(v) for v in row] for row in dense(matrix)]
    rank = 0
    for col in range(matrix.ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_det(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def test_snf_diagonal_fixture():
    m = SparseIntMatrix(3, 3, [(0, 0, 2), (1, 1, 6), (2, 2, 0)])
    s = smith_normal_form(m)
    assert s.rank == 2
    assert s.diagonal == (2, 6)
    assert s.torsion == (2, 6)


def test_snf_unit_matrix():
    m = SparseIntMatrix(2, 3, [(0, 0, 1), (1, 2, -1)])
    s = smith_normal_form(m)
    assert s.rank == 2 and s.torsion == ()


def test_snf_two_by_two_with_torsion():
    # [[2, 4], [4, 2]] ~ diag(2, 6)
    m = SparseIntMatrix(2, 2, [(0, 0, 2), (0, 1, 4), (1, 0, 4), (1, 1, 2)])
    s = smith_normal_form(m)
    assert s.diagonal == (2, 6)


def test_snf_empty():
    s = smith_normal_form(SparseIntMatrix(4, 5, []))
    assert s.rank == 0 and s.diagonal == ()


def simplicial(maximal):
    """Close a list of vertex tuples under subsets, as a FaceFamily of
    masks (bit v-1 for vertex v)."""
    import itertools
    bands = {}
    seen = set()
    for m in maximal:
        for r in range(1, len(m) + 1):
            for f in itertools.combinations(sorted(m), r):
                mask = sum(1 << (v - 1) for v in f)
                if mask not in seen:
                    seen.add(mask)
                    bands.setdefault(r - 1, []).append(mask)
    return FaceFamily(bands)


def test_sphere_fixtures():
    s0 = simplicial([(1,), (2,)])
    assert betti(s0, 1).numbers == (1, 0)
    circle = simplicial([(1, 2), (2, 3), (1, 3)])
    assert betti(circle, 2).numbers == (0, 1, 0)
    import itertools
    sphere = simplicial(list(itertools.combinations(range(1, 5), 3)))
    assert betti(sphere, 3).numbers == (0, 0, 1, 0)
    assert betti(sphere, 3, reduced=False).numbers == (1, 0, 1, 0)


RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]


def test_projective_plane_torsion():
    # the 6-vertex triangulation (antipodal quotient of the icosahedron)
    rp2 = simplicial(RP2_FACETS)
    assert len(rp2.faces(2)) == 10 and len(rp2.faces(1)) == 15
    b = betti(rp2, 2)
    assert b.numbers == (0, 0, 0)
    assert b.torsion[1] == (2,)


def test_only_unit_pivots_are_reported_over_the_integers():
    # d_2 of RP^2 has invariant factors 1^9, 2: the 2 comes from the dense
    # residual, whose rows must never be used to clear d_1
    m = boundary_matrix(simplicial(RP2_FACETS), 2)
    units, modp = {}, {}
    s = smith_normal_form(m, pivots=units)
    assert s.diagonal == (1,) * 9 + (2,)
    assert len(units) == 9
    assert rank_mod_p(m, CHECK_PRIMES[0], pivots=modp) == 10 and len(modp) == 10
    entries = dense(m)
    blocks = [[[entries[i][j] for j in piv.values()] for i in piv] for piv in (units, modp)]
    assert abs(fraction_det(blocks[0])) == 1  # unimodular over Z
    assert fraction_det(blocks[1]) % CHECK_PRIMES[0]


def named_complex(name):
    return simplicial(RP2_FACETS) if name == 'rp2' else complex_for(name[:-1], int(name[-1]))


def test_betti_against_fraction_ranks():
    for name in ('s0', 'kg0', 'sg1', 'sg0', 's1', 'rp2'):
        cx = named_complex(name)
        top = max(d for d in range(8) if cx.faces(d))
        b = betti(cx, top)
        for d in range(top + 2):
            m = boundary_matrix(cx, d, reduced=True)
            assert b.ranks[d] == fraction_rank(m), (name, d)
            if d:  # the cleared walk keeps the torsion of the whole matrix
                assert b.torsion[d - 1] == smith_normal_form(m).torsion, (name, d)
        # reduced Euler relation: sum (-1)^d cells_d - 1 == sum (-1)^d betti_d
        euler = sum((-1) ** d * len(cx.faces(d)) for d in range(top + 1)) - 1
        assert euler == sum((-1) ** d * x for d, x in enumerate(b.numbers))


@pytest.mark.parametrize("name", ['s1', 'rp2'])
def test_each_arithmetic_clears_with_its_own_pivots(name, monkeypatch):
    # per arithmetic, record the columns each elimination saw and the pivots
    # it found: the next boundary down must lack exactly those pivot rows.
    # On RP^2 the integer pass has one pivot fewer in d_2 than GF(p).
    cx = named_complex(name)
    seen = {}
    snf, rank = homology.smith_normal_form, homology.rank_mod_p

    def spy_snf(m, precheck=True, pivots=None):
        out = snf(m, precheck, pivots)
        seen.setdefault(0, []).append(({j for _, j, _ in m.triples}, dict(pivots)))
        return out

    def spy_rank(m, p, pivots=None):
        out = rank(m, p, pivots)
        seen.setdefault(p, []).append(({j for _, j, _ in m.triples}, dict(pivots)))
        return out

    monkeypatch.setattr(homology, 'smith_normal_form', spy_snf)
    monkeypatch.setattr(homology, 'rank_mod_p', spy_rank)
    top = max(d for d in range(8) if cx.faces(d))
    b = betti(cx, top)
    assert set(seen) == {0, *CHECK_PRIMES}
    dims = range(top, -1, -1)  # d_{top+1} is empty and never eliminated
    for key, runs in seen.items():
        assert len(runs) == len(dims)
        for d, (_, above), (cols, _) in zip(dims[1:], runs, runs[1:]):
            whole = {j for _, j, _ in boundary_matrix(cx, d, reduced=True).triples}
            assert cols == whole - set(above), (key, d)
        if key:
            assert [len(piv) for _, piv in runs] == [b.ranks[d] for d in dims]


def test_a_flipped_boundary_sign_breaks_the_certificate(monkeypatch):
    build = homology.boundary_matrix

    def flipped(X, d, reduced=False):
        m = build(X, d, reduced=reduced)
        if d == 1:
            i, j, v = m.triples[0]
            m = SparseIntMatrix(m.nrows, m.ncols, [(i, j, -v)] + m.triples[1:])
        return m

    monkeypatch.setattr(homology, 'boundary_matrix', flipped)
    with pytest.raises(AssertionError, match=r"d_1 d_2 is nonzero on column \d+ of d_2"):
        betti(complex_for('s', 1), 3)


def test_a_mod_p_rank_off_by_one_is_caught(monkeypatch):
    rank = homology.rank_mod_p

    def off_by_one(m, p, pivots=None):
        return rank(m, p, pivots) + 1

    monkeypatch.setattr(homology, 'rank_mod_p', off_by_one)
    with pytest.raises(AssertionError, match="disagrees with invariant factors"):
        betti(complex_for('s', 1), 3)


@pytest.mark.parametrize("kind,k,where,rank", [
    ('sg', 0, 0, 1),   # two isolated stable triples
    ('kg', 0, 0, 19),  # 10 disjoint pairs
    ('sg', 1, 1, 1),   # a 7-cycle
    ('s', 0, 0, 1),
])
def test_reduced_betti_small_complexes(kind, k, where, rank):
    cx = complex_for(kind, k)
    b = betti(cx, cx.dim() + 1)
    for d, val in enumerate(b.numbers):
        assert val == (rank if d == where else 0)
    assert all(t == () for t in b.torsion)


def test_mod_p_rank_matches_exact_everywhere():
    for kind, k in [('s', 0), ('sg', 1), ('kg', 0)]:
        cx = complex_for(kind, k)
        for d in range(cx.dim() + 2):
            m = boundary_matrix(cx, d, reduced=True)
            exact = smith_normal_form(m, precheck=False).rank
            for p in CHECK_PRIMES:
                assert rank_mod_p(m, p) <= exact
            assert rank_mod_p(m, 2 ** 31 - 1) == exact or fraction_rank(m) == exact


def test_boundary_matrix_shape_and_squares_to_zero():
    cx = complex_for('sg', 1)
    d1 = boundary_matrix(cx, 1, reduced=False)
    assert (d1.nrows, d1.ncols) == (7, 7)
    d0 = boundary_matrix(cx, 0, reduced=False)
    assert d0.nnz() == 0
    # reduced d0 maps vertices onto the empty face
    d0r = boundary_matrix(cx, 0, reduced=True)
    assert (d0r.nrows, d0r.ncols) == (1, 7)
    a, b = dense(boundary_matrix(cx, 1, reduced=True)), dense(d0r)
    prod = [[sum(b[i][t] * a[t][j] for t in range(7)) for j in range(7)]
            for i in range(1)]
    assert all(v == 0 for row in prod for v in row)


def test_boundary_sign_counts_the_bits_below():
    # d{1,2,3} = {2,3} - {1,3} + {1,2}: dropping a bit with i set bits
    # below it carries (-1)^i
    m = boundary_matrix(simplicial([(1, 2, 3)]), 2)
    rows = simplicial([(1, 2, 3)]).faces(1)  # 0b011, 0b101, 0b110
    assert {rows[i]: v for i, _, v in m.triples} == {0b110: 1, 0b101: -1, 0b011: 1}


def test_relative_betti_disc_mod_boundary():
    disc = simplicial([(1, 2, 3)])
    boundary = simplicial([(1, 2), (2, 3), (1, 3)])
    r = relative_betti(disc, boundary, 2)
    assert r.numbers == (0, 0, 1)
    assert r.reduced is False


def test_relative_betti_pair_of_complexes():
    # (cone, base): contractible relative to a point in it
    cone = simplicial([(1, 2), (1, 3)])
    base = simplicial([(2,), (3,)])
    r = relative_betti(cone, base, 1)
    assert r.numbers == (0, 1)


def test_face_family_protocol():
    fam = FaceFamily({0: [0b10, 0b01], 2: []})
    assert fam.faces(0) == [0b01, 0b10]
    assert fam.faces(5) == []
    assert fam.dims() == [0]
