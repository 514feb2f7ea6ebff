"""Exact homology: Smith normal form, Betti numbers, relative pairs.

Rank results are cross-checked against an independent Gaussian elimination
over the rationals, done here with Fraction arithmetic and no pivot tricks,
and the ranks and torsion of the coreduced (Morse) path against the Smith
form of each whole boundary matrix.  The facet table that the certificate
and the coreduction read is checked against ``boundary_matrix``, and both
against reference versions that build matrices and dicts instead.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from kneser_morse import homology, morse
from kneser_morse.complexes import complex_for
from kneser_morse.homology import (
    CHECK_PRIMES, FaceFamily, SparseIntMatrix, betti, boundary_matrix,
    rank_mod_p, relative_betti, relative_family, smith_normal_form,
)
from kneser_morse.wedge import filtration


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


def test_snf_torsion_keeps_the_factors_above_one():
    s = homology.SNFResult((1, 1, 2, 6), 4)
    assert s.torsion == (2, 6) and s.diagonal == (1, 1, 2, 6) and s.rank == 4
    assert homology.SNFResult((1,), 1).torsion == ()


@pytest.mark.parametrize("result,field", [
    (homology.SNFResult((2,), 1), 'rank'),
    (homology.BettiResult((0, 1), ((), ()), (2, 1), (1, 0, 0), True), 'numbers'),
])
def test_homology_results_are_immutable(result, field):
    with pytest.raises(AttributeError):
        setattr(result, field, getattr(result, field))


P, Q = CHECK_PRIMES


@pytest.mark.parametrize("nrows,ncols,triples,diagonal", [
    # duplicate coordinates add up: the (0, 0) entries cancel, (1, 1) reads 4
    (2, 2, [(0, 0, 3), (1, 1, 2), (0, 0, -3), (1, 1, 2)], (4,)),
    # an entry divisible by a check prime: invariant factor p, mod-p rank 0
    (1, 2, [(0, 1, P)], (P,)),
    (2, 1, [(0, 0, 2 * Q), (1, 0, 3 * Q)], (Q,)),
    (0, 3, [], ()),
    (3, 0, [], ()),
])
def test_dense_edge_cases_and_their_rechecks(nrows, ncols, triples, diagonal):
    m = SparseIntMatrix(nrows, ncols, triples)
    assert smith_normal_form(m).diagonal == diagonal  # the mod-p rechecks agreed
    for p in CHECK_PRIMES:
        assert rank_mod_p(m, p) == sum(1 for d in diagonal if d % p), p


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


def determinantal_factors(rows):
    """Invariant factors d_t / d_(t-1), d_t the gcd of the t x t minors."""
    divisors = [1]
    for t in range(1, min(len(rows), len(rows[0])) + 1):
        g = 0
        for rs in itertools.combinations(range(len(rows)), t):
            for cs in itertools.combinations(range(len(rows[0])), t):
                g = math.gcd(g, int(fraction_det([[rows[r][c] for c in cs] for r in rs])))
        if not g:
            break
        divisors.append(g)
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


# a residual block on which the earlier row-swapping dense SNF never ended
CYCLING_BLOCK = [[-3, -3, 0, 0, 8, -3], [-1, 7, 7, -9, 8, 10], [8, 4, 11, -4, 12, 0],
                 [-6, 1, 3, -6, 0, 1], [-10, 0, -10, -4, -2, 5], [-4, 8, -1, -2, -9, 0]]


def test_snf_matches_determinantal_divisors():
    rng = random.Random(0)
    blocks = [CYCLING_BLOCK] + [
        [[rng.choice([0, 0, 1, -1, 2, -3, 4, 6, -9]) for _ in range(n)] for _ in range(m)]
        for m, n in ((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(100))]
    for rows in blocks:
        m = SparseIntMatrix(len(rows), len(rows[0]),
                            [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)])
        assert smith_normal_form(m).diagonal == determinantal_factors(rows), rows


def simplicial(maximal):
    """Close a list of vertex tuples under subsets, as a FaceFamily of
    masks (bit v-1 for vertex v)."""
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
    # max_dim 1 ranks d_2 as the top boundary, with no cells above it
    low = betti(rp2, 1)
    assert low.torsion == ((), (2,)) and low.ranks == (1, 5, 10)
    for d in range(3):
        whole = smith_normal_form(boundary_matrix(rp2, d, reduced=True))
        assert low.ranks[d] == whole.rank and (not d or low.torsion[d - 1] == whole.torsion)


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
            if d:  # the Morse path keeps the torsion of the whole matrix
                assert b.torsion[d - 1] == smith_normal_form(m).torsion, (name, d)
        # reduced Euler relation: sum (-1)^d cells_d - 1 == sum (-1)^d betti_d
        euler = sum((-1) ** d * len(cx.faces(d)) for d in range(top + 1)) - 1
        assert euler == sum((-1) ** d * x for d, x in enumerate(b.numbers))


def reference_table(cells):
    """``morse.facet_table`` walked with ``morse.face_facets``: per cell one
    row of facet indices, its facets of incidence +1, then -1, then any
    other, each group in ``face_facets`` order; the +1 count (the cut) per
    cell; and the record, cell -> its row's incidences, of the cells with
    an incidence other than +-1.  Under the real sign rule it equals the
    table; under a planted ``face_facets`` it carries the plant."""
    index = {c: i for i, c in enumerate(cells)}
    rows, cut, odd = [], bytearray(len(cells)), {}
    for n, c in enumerate(cells):
        plus, minus, other, signs = [], [], [], []
        for g, s in morse.face_facets(c):
            i = index.get(g)
            if i is None:
                continue
            if s == 1:
                plus.append(i)
            elif s == -1:
                minus.append(i)
            else:
                other.append(i)
                signs.append(s)
        cut[n] = len(plus)
        if other:
            odd[n] = (1,) * len(plus) + (-1,) * len(minus) + tuple(signs)
            minus += other
        plus += minus
        rows.append(tuple(plus))
    return rows, cut, odd


def plant_facets(monkeypatch, walk):
    """Plant ``walk`` as ``morse.face_facets`` and build every facet table
    with ``reference_table``, which reads it: the table applies the sign
    rule itself, so only then does the plant reach ``_certify``,
    ``coreduce`` and ``_morse_boundaries`` as well as the face-level
    oracles."""
    monkeypatch.setattr(morse, 'face_facets', walk)
    monkeypatch.setattr(morse, 'facet_table', reference_table)


def flip_a_sign(monkeypatch, X, flip):
    """Negate the first sign ``morse.face_facets`` gives for the first face
    of X.faces(flip): the first entry of column 0 of d_flip."""
    face, facets = X.faces(flip)[0], morse.face_facets

    def flipped(f):
        out = list(facets(f))
        if f == face:
            out[0] = (out[0][0], -out[0][1])
        return iter(out)

    plant_facets(monkeypatch, flipped)


def test_a_flipped_boundary_sign_breaks_the_certificate(monkeypatch):
    cx = complex_for('s', 1)
    flip_a_sign(monkeypatch, cx, 1)
    with pytest.raises(AssertionError, match=r"d_1 d_2 is nonzero on column \d+ of d_2"):
        betti(cx, 3)


def test_a_flipped_sign_in_the_top_boundary_breaks_the_certificate(monkeypatch):
    # d_4 is the top boundary max_dim 3 ranks: no band above it checks it
    cx = complex_for('s', 2)
    flip_a_sign(monkeypatch, cx, 4)
    with pytest.raises(AssertionError, match=r"d_3 d_4 is nonzero on column \d+ of d_4"):
        betti(cx, 3)


def test_a_mod_p_rank_off_by_one_is_caught(monkeypatch):
    rank = homology.rank_mod_p

    def off_by_one(m, p):
        return rank(m, p) + 1

    monkeypatch.setattr(homology, 'rank_mod_p', off_by_one)
    with pytest.raises(AssertionError, match="disagrees with invariant factors"):
        betti(complex_for('s', 1), 3)


def relative_step(k, level, max_dim):
    return filtration(k, level), filtration(k, level - 1), max_dim


# name -> (X, A or None for an absolute complex, max_dim)
MORSE_FIXTURES = {
    **{'%s%d' % (kind, k): (complex_for(kind, k), None, k + 1)
       for kind in ('kg', 's', 'sg') for k in (0, 1)},
    'rp2': (simplicial(RP2_FACETS), None, 2),
    'top0': relative_step(0, 3, 1), 'top1': relative_step(1, 3, 2),
    'mid0': relative_step(0, 2, 1), 'mid1': relative_step(1, 2, 1),
}


def morse_fixture(name):
    """(BettiResult, the family it ranks, max_dim, reduced) for a fixture."""
    X, A, max_dim = MORSE_FIXTURES[name]
    if A is None:
        return betti(X, max_dim), X, max_dim, True
    return relative_betti(X, A, max_dim), relative_family(X, A, max_dim), max_dim, False


def spy_coreduce(monkeypatch):
    """The critical cells of each coreduction ``betti`` runs, in call order."""
    runs, real = [], morse.coreduce

    def spy(cells, table):
        pairs, critical = real(cells, table)
        runs.append(critical)
        return pairs, critical

    monkeypatch.setattr(morse, 'coreduce', spy)
    return runs


def assert_wedge_shape(critical, k, max_dim):
    # betti's descending order leaves kg exactly t = (k+1)(k+3)(k+4)(k+6)/4 + 1
    # critical k-cells below the top band
    t = (k + 1) * (k + 3) * (k + 4) * (k + 6) // 4 + 1
    assert sorted(c.bit_count() - 1 for c in critical if c.bit_count() <= max_dim + 1) == [k] * t


@pytest.mark.parametrize("name", sorted(MORSE_FIXTURES))
def test_morse_path_matches_the_full_smith_form(name, monkeypatch):
    runs = spy_coreduce(monkeypatch)
    b, family, max_dim, reduced = morse_fixture(name)
    if name.startswith('kg'):
        assert_wedge_shape(runs[-1], int(name[-1]), max_dim)
    for d in range(max_dim + 2):
        whole = smith_normal_form(boundary_matrix(family, d, reduced=reduced))
        assert b.ranks[d] == whole.rank, (name, d)
        if d:
            assert b.torsion[d - 1] == whole.torsion, (name, d)
    if name == 'rp2':
        assert b.torsion[1] == (2,)  # survives the reduction


def test_k2_ranks_are_pinned(monkeypatch):
    # rank d_d for d = 0..max_dim+1, as the full-matrix elimination found them
    runs = spy_coreduce(monkeypatch)
    assert betti(complex_for('kg', 2), 3).ranks == (1, 55, 1205, 4494, 7056)
    assert_wedge_shape(runs[-1], 2, 3)
    assert relative_betti(*relative_step(2, 3, 3)).ranks == (0, 0, 584, 3160, 5040)
    assert relative_betti(*relative_step(2, 2, 2)).ranks == (0, 0, 60, 20)


def coreduce(family, max_dim, reduced, order):
    """``morse.coreduce`` on the cells ``betti`` ranks, each dimension's
    cells in ascending or descending mask order: its pairs and critical
    cells, then the cells and their facet table."""
    cells = betti_cells(family, max_dim, reduced, order)
    table = morse.facet_table(cells)
    return morse.coreduce(cells, table) + (cells, table)


def dense_product(a, b):
    left, right = dense(a), dense(b)
    return [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(b.ncols)]
            for row in left]


@pytest.mark.parametrize("name,order", [
    pytest.param(name, order, id=name if order == 'ascending' else name + '-descending')
    for order in ('ascending', 'descending') for name in ('kg1', 's1', 'rp2', 'top1', 'mid1')])
@pytest.mark.parametrize("thin", [None, 2, 3])
def test_morse_complex_squares_to_zero_and_keeps_the_ranks(name, order, thin):
    # with thin = t, every t-th pair is split back into two critical cells:
    # a smaller acyclic matching in the same removal order, whose Morse
    # complex is bigger but must still be a chain complex of the same ranks
    b, family, max_dim, reduced = morse_fixture(name)
    pairs, critical, cells, table = coreduce(family, max_dim, reduced, order)
    assert morse.is_acyclic(morse.Matching(pairs.items())) == (True, None)
    if thin:
        split = set(list(pairs)[::thin])
        critical = critical + [c for lo in split for c in (lo, pairs[lo])]
        pairs = {lo: up for lo, up in pairs.items() if lo not in split}
    boundaries = homology._morse_boundaries(pairs, critical, max_dim + 1, cells, table)
    for d in range(1, max_dim + 2):
        assert not any(map(any, dense_product(boundaries[d - 1], boundaries[d]))), (name, d)
    for d, m in enumerate(boundaries):
        uppers = sum(1 for up in pairs.values() if up.bit_count() == d + 1)
        s = smith_normal_form(m)
        assert s.rank + uppers == b.ranks[d], (name, d)
        if d:
            assert s.torsion == b.torsion[d - 1], (name, d)
    if thin == 2 and name == 'kg1':  # the split pairs leave a nontrivial composite
        assert boundaries[1].nnz() and boundaries[2].nnz()


def test_a_non_unit_pair_incidence_is_named(monkeypatch):
    # every incidence doubled: d d = 0 still holds, but no pair may form
    facets = morse.face_facets
    plant_facets(monkeypatch, lambda f: ((g, 2 * s) for g, s in facets(f)))
    with pytest.raises(AssertionError, match=r"face \d+ pairs with its facet \d+ at incidence "):
        betti(complex_for('s', 1), 2)


def test_a_rewrite_out_of_removal_order_is_named(monkeypatch):
    # the pairs handed to the rewrite in reverse removal order
    coreduce_ = morse.coreduce

    def reversed_order(cells, table):
        pairs, critical = coreduce_(cells, table)
        return dict(reversed(pairs.items())), critical

    monkeypatch.setattr(morse, 'coreduce', reversed_order)
    with pytest.raises(AssertionError, match=r"rewriting face \d+ through \d+ meets facet "
                                             r"\d+, removed no earlier"):
        betti(simplicial(RP2_FACETS), 2)


def test_a_dropped_facet_is_named(monkeypatch):
    # one facet of one triangle lost by the shared facet rule: the
    # certificate names a face that contains the triangle
    cx = complex_for('s', 1)
    tri = cx.faces(2)[0]
    facets = morse.face_facets
    plant_facets(monkeypatch, lambda f: (
        (g, s) for g, s in facets(f) if (f, g) != (tri, tri & (tri - 1))))
    with pytest.raises(AssertionError) as e:
        betti(cx, 3)
    named = re.search(r"is nonzero on column \d+ of d_\d \(face (\d+)\)", str(e.value))
    assert named and int(named.group(1)) & tri == tri


# ---------------------------------------------------------------------------
# the facet table against the seams it replaced: the matrix-product
# certificate and the dict coreduction, kept here as oracles

def oracle_certify(X, top, reduced):
    """d_{d-1} d_d = 0 on every column of d_d, walking down from d = top,
    as products of ``boundary_matrix`` columns."""
    upper = boundary_matrix(X, top, reduced=reduced)
    for d in range(top, 0, -1):
        lower = boundary_matrix(X, d - 1, reduced=reduced)
        below = {}
        for i, j, v in lower.triples:
            below.setdefault(j, []).append((i, v))
        for j, col in itertools.groupby(sorted(upper.triples, key=lambda t: t[1]),
                                        lambda t: t[1]):
            image = {}
            for i, _, a in col:
                for r, b in below.get(i, ()):
                    image[r] = image.get(r, 0) + a * b
            if any(image.values()):
                raise AssertionError(
                    "d_%d d_%d is nonzero on column %d of d_%d (face %r); "
                    "the Morse reduction needs it zero" % (d - 1, d, j, d, X.faces(d)[j]))
        upper = lower


def oracle_coreduce(cells):
    """Coreduction of ``cells`` on dicts keyed by mask, every facet read
    from ``morse.face_facets`` when it is needed."""
    alive, up = {}, {}
    for f in cells:
        alive[f] = up[f] = 0
        for g, _ in morse.face_facets(f):
            if g in alive:
                alive[f] += 1
                up[g] |= f ^ g
    ready = [f for f, n in alive.items() if n == 1]
    pairs, critical = {}, []

    def remove(f):
        del alive[f]
        rest = up.pop(f)
        while rest:
            low = rest & -rest
            rest ^= low
            if f | low in alive:
                alive[f | low] -= 1
                if alive[f | low] == 1:
                    ready.append(f | low)

    for c in cells:
        while ready:
            a = ready.pop()
            if alive.get(a) != 1:
                continue
            (b, e), = ((g, s) for g, s in morse.face_facets(a) if g in alive)
            if e not in (1, -1):
                raise AssertionError("face %r pairs with its facet %r at incidence %d, "
                                     "not +-1" % (a, b, e))
            pairs[b] = a
            remove(a)
            remove(b)
        if c in alive:
            critical.append(c)
            remove(c)
    return pairs, critical


def reference_case(name):
    """(family, max_dim, reduced) as the CLI ranks it: ``kg``, ``s`` and
    ``sg`` at k <= 2, the top and middle relative steps, and RP2."""
    if name == 'rp2':
        return simplicial(RP2_FACETS), 2, True
    k = int(name[-1])
    if name[:-1] in ('top', 'mid'):
        X, A, max_dim = relative_step(k, 3, k + 1) if name[:-1] == 'top' \
            else relative_step(k, 2, max(k, 1))
        return relative_family(X, A, max_dim), max_dim, False
    return complex_for(name[:-1], k), k + 1, True


REFERENCE = ['rp2'] + ['%s%d' % (kind, k) for kind in ('kg', 's', 'sg', 'top', 'mid')
                       for k in (0, 1, 2)]


def betti_cells(family, max_dim, reduced, order='descending'):
    """The cells ``betti`` lists, each dimension's in descending mask order,
    or in ascending order when ``order`` says so."""
    return ([0] if reduced else []) + [
        f for d in range(max_dim + 2)
        for f in (family.faces(d) if order == 'ascending' else reversed(family.faces(d)))]


@pytest.mark.parametrize("name", REFERENCE)
def test_the_facet_table_reads_as_the_boundary_matrices(name):
    # each row is its boundary_matrix column as a multiset of (face,
    # incidence): first the +1 facets, then the -1 facets, each group in
    # face_facets order, with the cut at the +1 count; the real sign rule
    # leaves the record of other incidences empty
    family, max_dim, reduced = reference_case(name)
    cells = betti_cells(family, max_dim, reduced)
    rows, cut, odd = morse.facet_table(cells)
    assert odd == {} and len(rows) == len(cut) == len(cells)
    at = {c: i for i, c in enumerate(cells)}
    for d in range(max_dim + 2):
        m = boundary_matrix(family, d, reduced=reduced)
        faces = family.faces(d - 1) if d else [0] if reduced else []
        columns = [[] for _ in range(m.ncols)]
        for i, j, v in m.triples:
            columns[j].append((faces[i], v))
        for f, column in zip(family.faces(d), columns):
            i = at[f]
            row = [(cells[g], 1 if n < cut[i] else -1) for n, g in enumerate(rows[i])]
            assert sorted(row) == sorted(column), (name, d, f)
            for sign in (1, -1):
                assert [g for g, s in row if s == sign] == [g for g, s in column if s == sign]
    assert not reduced or rows[0] == ()  # the empty face has no facet


@pytest.mark.parametrize("order", ['descending', 'ascending'])
@pytest.mark.parametrize("name", REFERENCE)
def test_the_facet_table_applies_the_sign_rule_of_face_facets(name, order):
    family, max_dim, reduced = reference_case(name)
    cells = betti_cells(family, max_dim, reduced, order)
    assert morse.facet_table(cells) == reference_table(cells)


@pytest.mark.parametrize("name", ['rp2', 's1', 'kg2', 'top1', 'mid2'])
def test_betti_walks_the_facets_of_each_cell_once(name, monkeypatch):
    # one table, on exactly the cells betti lists, and no face-level walk
    family, max_dim, reduced = reference_case(name)
    tables, walked = [], []
    table, facets = morse.facet_table, morse.face_facets
    monkeypatch.setattr(morse, 'facet_table',
                        lambda cells: (tables.append(list(cells)), table(cells))[1])
    monkeypatch.setattr(morse, 'face_facets', lambda f: (walked.append(f), facets(f))[1])
    betti(family, max_dim, reduced=reduced)
    assert tables == [betti_cells(family, max_dim, reduced)]
    assert walked == []


@pytest.mark.parametrize("order", ['descending', 'ascending'])
@pytest.mark.parametrize("name", REFERENCE)
def test_the_coreduction_matches_the_dict_oracle(name, order):
    family, max_dim, reduced = reference_case(name)
    pairs, critical, cells, _ = coreduce(family, max_dim, reduced, order)
    want_pairs, want_critical = oracle_coreduce(cells)
    assert list(pairs.items()) == list(want_pairs.items())  # in removal order
    assert critical == want_critical


def perturbed(how, cells):
    """A ``face_facets`` with every incidence doubled, or with one incidence
    between two of ``cells`` flipped, tripled or dropped: the first one of
    the first face, in the lowest band above the vertices that has one (or
    else of the vertices).  A tripled incidence among +-1 ones runs the
    certificate's path for other incidences.  Or, swapped, with the
    incidences of the first two such facets of opposite sign exchanged, on
    the first face that has two: each sign keeps its count, and only which
    facets carry it changes."""
    facets = morse.face_facets
    if how == 'doubled':
        return lambda f: ((g, 2 * s) for g, s in facets(f))
    among = set(cells)
    bands = sorted(among, key=lambda f: (f.bit_count() < 2, f.bit_count(), f))
    if how == 'swapped':
        face, hit = next(((f, {g, h}) for f in bands
                          for (g, s), (h, t) in itertools.combinations(facets(f), 2)
                          if s != t and g in among and h in among), (None, None))
    else:
        face, hit = next(((f, g) for f in bands for g, _ in facets(f) if g in among),
                         (None, None))

    def walk(f):
        out = list(facets(f))
        if f == face and how == 'swapped':
            (a, s), (b, t) = [(at, s) for at, (g, s) in enumerate(out) if g in hit]
            out[a], out[b] = (out[a][0], t), (out[b][0], s)
        elif f == face:
            at = [g for g, _ in out].index(hit)
            s = out[at][1]
            out[at:at + 1] = {'flipped': [(hit, -s)], 'tripled': [(hit, 3 * s)], 'dropped': []}[how]
        return iter(out)

    return walk


def outcome(run):
    try:
        return run()
    except AssertionError as e:
        return str(e)


@pytest.mark.parametrize("how", ['flipped', 'dropped', 'doubled', 'swapped', 'tripled'])
@pytest.mark.parametrize("name", REFERENCE)
def test_a_perturbed_table_fails_as_the_oracles_do(name, how, monkeypatch):
    family, max_dim, reduced = reference_case(name)
    top, cells = max_dim + 1, betti_cells(family, max_dim, reduced)
    plant_facets(monkeypatch, perturbed(how, cells))

    def on_the_table():
        table = morse.facet_table(cells)
        homology._certify(family, top, table)
        return morse.coreduce(cells, table)

    def by_the_oracles():
        oracle_certify(family, top, reduced)
        return oracle_coreduce(cells)

    got, want = outcome(on_the_table), outcome(by_the_oracles)
    assert got == want
    if isinstance(want, str):  # betti fails with the same message and face
        with pytest.raises(AssertionError) as e:
            betti(family, max_dim, reduced=reduced)
        assert str(e.value) == want


@pytest.mark.parametrize("name,order,sign", [('rp2', 'ascending', -1), ('top1', 'descending', 1)])
def test_a_recorded_row_still_pairs_at_a_unit_incidence(name, order, sign, monkeypatch):
    # one tripled incidence puts its face's row in the table's record of
    # other incidences; the face still pairs through a facet at +-1, as the
    # dict oracle pairs it
    family, max_dim, reduced = reference_case(name)
    plant_facets(monkeypatch, perturbed('tripled', betti_cells(family, max_dim, reduced)))
    pairs, critical, cells, (rows, _, odd) = coreduce(family, max_dim, reduced, order)
    want_pairs, want_critical = oracle_coreduce(cells)
    assert list(pairs.items()) == list(want_pairs.items()) and critical == want_critical
    at = {c: i for i, c in enumerate(cells)}
    assert [odd[at[up]][rows[at[up]].index(at[lo])]
            for lo, up in pairs.items() if at[up] in odd] == [sign]


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
            exact = smith_normal_form(m).rank
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


@pytest.mark.parametrize("max_dim", [-1, -3])
def test_a_negative_max_dim_is_refused(max_dim):
    disc = simplicial([(1, 2, 3)])
    boundary = simplicial([(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="max_dim must be nonnegative"):
        betti(disc, max_dim)
    with pytest.raises(ValueError, match="max_dim must be nonnegative"):
        relative_betti(disc, boundary, max_dim)


def test_face_family_protocol():
    fam = FaceFamily({0: [0b10, 0b01], 2: []})
    assert fam.faces(0) == [0b01, 0b10]
    assert fam.faces(2) == fam.faces(5) == []
