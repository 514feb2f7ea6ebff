"""Exact homology of the face complexes: coreduction, then the Smith form.

Faces are integer bitmasks.  ``betti`` lists the cells of dimension
-1..max_dim + 1 and walks their facets once, into ``morse.facet_table``:
per cell, the indices of its facets among the cells grouped by sign, the
+1 facets up to the cell's cut and the -1 facets after it.  The table
applies the sign rule itself; ``boundary_matrix`` reads the same rule face
by face from ``morse.face_facets``, the rule the tests hold the table to.
A facet outside the cells is dropped, so relative homology of a pair
(X, A) runs the same machinery on the quotient cells (faces of X not in
A).  Betti numbers in dimension d are b_d = n_d - rank d_d - rank
d_{d+1}; the reduced variant augments with the empty face.
``boundary_matrix`` gives the same boundaries as matrices, with the faces
in increasing mask order as bases.

A family is coreduced by ``morse.coreduce`` through its top boundary on
that table: the cells of dimension -1..max_dim + 1 form a chain complex of
their own.  Removal order makes the matching acyclic, so the critical
cells span a chain-equivalent Morse complex (Skoldberg, Trans. AMS 358,
2006): the boundary of a critical cell with the lower cell of each pair
rewritten away and the upper cells dropped.  Then rank d_d is the Morse
rank plus one per pair whose upper cell has dimension d, and the torsion
is the Morse torsion.  The equivalence needs d d = 0, so that is
certified exactly first, on every column of every boundary the ranks
read, from the same table: a column's image is zero iff the facets of its
facets that enter at +1 and at -1 form equal lists once both are sorted.
A nonzero image raises ``AssertionError`` naming d, the column and the
face.

``betti`` lists each dimension's cells in descending mask order: ``kg`` at
k <= 2 keeps exactly t critical k-cells below the top band, and the only
nonzero Morse boundary of the complexes here is 2 x 3 (``s``, k = 2).  So
one dense elimination per matrix suffices: a textbook Smith form over Z,
rechecked by a row reduction modulo two large primes p, whose rank must
equal the number of invariant factors not divisible by p.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import morse

CHECK_PRIMES = (1000003, 998244353)


class SparseIntMatrix:
    """Immutable coordinate-form integer matrix."""

    __slots__ = ("nrows", "ncols", "triples")

    def __init__(self, nrows: int, ncols: int, triples: Iterable[tuple[int, int, int]]):
        self.nrows = nrows
        self.ncols = ncols
        self.triples = [(i, j, v) for (i, j, v) in triples if v]

    def nnz(self) -> int:
        return len(self.triples)

    def dense(self) -> list[list[int]]:
        """Row lists of the entries; duplicate coordinates add up."""
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.triples:
            rows[i][j] += v
        return rows


class SNFResult(NamedTuple):
    diagonal: tuple[int, ...]  # positive invariant factors, each dividing the next
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _dense_snf(a: list[list[int]]) -> list[int]:
    """Textbook SNF diagonal of the row lists ``a`` (exact integers; ``a``
    is consumed).

    A least nonzero entry moves to the corner and reduces its row and
    column by division.  A remainder is a smaller least entry for the next
    round; a block entry the corner does not divide is first added into the
    corner's row.  Otherwise the corner is the next invariant factor.
    """
    diag: list[int] = []
    while any(map(any, a)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, a[0])]
        qs = [x // p for x in a[0]]
        for row in a:
            row[1:] = [x - q * row[0] for x, q in zip(row[1:], qs[1:])]
        if any(a[0][1:]) or any(row[0] for row in a[1:]):
            continue
        bad = next((row for row in a[1:] if any(x % p for x in row)), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], bad)]
            continue
        diag.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return diag


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over GF(p): each row in turn pivots on its first nonzero entry
    and clears that column from the rows still left."""
    rows = [[x % p for x in row] for row in matrix.dense()]
    rank = 0
    while rows:
        pivot = rows.pop()
        j = next((j for j, x in enumerate(pivot) if x), None)
        if j is None:
            continue
        rank += 1
        inv = pow(pivot[j], -1, p)
        for row in rows:
            if row[j]:
                f = row[j] * inv % p
                row[:] = [(x - f * y) % p for x, y in zip(row, pivot)]
    return rank


def smith_normal_form(matrix: SparseIntMatrix) -> SNFResult:
    """Invariant factors over Z, rechecked modulo each ``CHECK_PRIMES``
    prime: the mod-p rank must equal the number of invariant factors that p
    does not divide."""
    diag = _dense_snf(matrix.dense())
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise AssertionError("invariant factors out of divisibility order: %r" % (diag,))
    for p in CHECK_PRIMES:
        got, expected = rank_mod_p(matrix, p), sum(1 for d in diag if d % p)
        if got != expected:
            raise AssertionError("mod-%d rank %d disagrees with invariant factors (%d)"
                                 % (p, got, expected))
    return SNFResult(tuple(diag), len(diag))


def boundary_matrix(X, d: int, reduced: bool = False) -> SparseIntMatrix:
    """Boundary from d-faces to (d-1)-faces in the bases X.faces(d-1), X.faces(d).

    The signs are those of ``morse.face_facets``.  A facet absent from
    X.faces(d-1) contributes nothing, so the same function serves quotient
    (relative) families.  For d = 0 the reduced flag adds the augmentation
    row onto the empty face.
    """
    cols = X.faces(d)
    rows = X.faces(d - 1) if d else [0] if reduced else []
    rindex = {f: i for i, f in enumerate(rows)}
    return SparseIntMatrix(len(rows), len(cols), (
        (rindex[g], j, s) for j, f in enumerate(cols)
        for g, s in morse.face_facets(f) if g in rindex))


class FaceFamily:
    """A graded family of cells exposing the same faces(d) protocol as a
    complex; used for relative (quotient) chain groups."""

    def __init__(self, bands: dict[int, list]):
        self._bands = {d: sorted(fs) for d, fs in bands.items() if fs}

    def faces(self, d: int) -> list:
        return self._bands.get(d, [])


def relative_family(X, A, max_dim: int) -> FaceFamily:
    """The cells of X not in A, through dimension max_dim + 1 (the top
    boundary that ``relative_betti`` ranks)."""
    bands = {}
    for d in range(max_dim + 2):
        asub = set(A.faces(d))
        bands[d] = [f for f in X.faces(d) if f not in asub]
    return FaceFamily(bands)


class BettiResult(NamedTuple):
    numbers: tuple[int, ...]          # index d = dimension
    torsion: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    ranks: tuple[int, ...]            # rank of d_d for d = 0..max_dim+1
    reduced: bool


def _signed_image(table: tuple[list, bytearray, dict], i: int) -> tuple[list, list]:
    """The +1 and -1 lists of column i's image, from explicit incidences:
    a facet r of a facet of i, at incidences a and b, goes |a b| times into
    the list of the sign of a b."""
    plus, minus = [], []
    for f, a in zip(table[0][i], morse.incidences(table, i)):
        for r, b in zip(table[0][f], morse.incidences(table, f)):
            (plus if a * b > 0 else minus).extend([r] * abs(a * b))
    return plus, minus


def _certify(X, top: int, table: tuple[list, bytearray, dict]) -> None:
    """Check d_{d-1} d_d = 0 exactly on every column of d_d, one column at
    a time, walking down from d = top and through each d's columns in
    ascending mask order.  ``table`` is the ``morse.facet_table`` of the
    cells ``betti`` lists, whose last bands are X.faces(top), ..., X.faces(1),
    each in descending mask order; a column's image is read off it.

    The image of a column is zero iff the facets of its facets entered at
    incidence +1 and at -1 are equal lists once both are sorted.  With +-1
    incidences a facet's row splits at its cut into the two lists, swapped
    for a facet at -1; a table with other incidences enters each with
    multiplicity |a b| (``_signed_image``)."""
    rows, cut, odd = table
    end = len(rows)
    for d in range(top, 0, -1):
        band = X.faces(d)
        for j in range(len(band)):
            i = end - 1 - j
            if odd:
                plus, minus = _signed_image(table, i)
            else:
                plus, minus = [], []
                row, c = rows[i], cut[i]
                for f in row[:c]:
                    r, b = rows[f], cut[f]
                    plus += r[:b]
                    minus += r[b:]
                for f in row[c:]:
                    r, b = rows[f], cut[f]
                    plus += r[b:]
                    minus += r[:b]
            plus.sort()
            minus.sort()
            if plus != minus:
                raise AssertionError(
                    "d_%d d_%d is nonzero on column %d of d_%d (face %r); "
                    "the Morse reduction needs it zero" % (d - 1, d, j, d, band[j]))
        end -= len(band)


def _morse_boundaries(pairs: dict, critical: list, top: int,
                      cells: list, table: tuple[list, bytearray, dict]) -> list[SparseIntMatrix]:
    """The Morse boundaries d = 0..top between the critical cells, each
    dimension's critical cells in removal order as its basis.

    One pass over the pairs (b, a) in removal order tables the image
    pi(b) = -[a:b] sum [a:g] pi(g) over the facets g != b of a, where a
    critical cell is its own image and an upper or absent cell maps to 0.
    Every lower g must have left before b, which makes the matching
    acyclic; one that did not raises.  Only the dimensions that feed a
    boundary with both rows and columns are tabled.  The column of a
    critical cell c is then sum [c:g] pi(g) over its facets g.  Facets and
    signs are read off ``table``, the ``morse.facet_table`` of ``cells``.
    """
    bands: dict[int, list[int]] = {}
    for c in critical:
        bands.setdefault(c.bit_count() - 1, []).append(c)
    feed = {d - 1 for d in range(top + 1) if bands.get(d - 1) and bands.get(d)}
    image = {c: {i: 1} for d in feed for i, c in enumerate(bands[d])}
    index = {c: i for i, c in enumerate(cells) if c.bit_count() - 2 in feed} if feed else {}

    def project(f: int, b: int | None = None) -> tuple[dict[int, int], int]:
        """sum [f:g] pi(g) over the facets g != b of f, and [f:b]."""
        chain, e = {}, 0
        at = index[f]
        for g, s in zip(map(cells.__getitem__, table[0][at]), morse.incidences(table, at)):
            if g == b:
                e = s
            elif g in image:
                for i, v in image[g].items():
                    chain[i] = chain.get(i, 0) + s * v
            elif g in pairs:
                raise AssertionError(
                    "rewriting face %r through %r meets facet %r, removed no earlier"
                    % (b, f, g))
        return chain, e

    for b, a in pairs.items():
        if b.bit_count() - 1 in feed:
            chain, e = project(a, b)
            image[b] = {i: -e * v for i, v in chain.items() if v}
    out = []
    for d in range(top + 1):
        rows, cols = bands.get(d - 1, []), bands.get(d, [])
        triples = [(i, j, v) for j, c in enumerate(cols) if d - 1 in feed
                   for i, v in project(c)[0].items()]
        out.append(SparseIntMatrix(len(rows), len(cols), triples))
    return out


def betti(X, max_dim: int, reduced: bool = True) -> BettiResult:
    """Betti numbers and torsion of X through max_dim.

    The cells of dimension -1..max_dim+1 are listed by dimension, in
    descending mask order inside each, and ``morse.facet_table`` walks
    their facets once.  On that table d d = 0 is certified on every column
    of d_1..d_{max_dim+1} (``_certify``), ``morse.coreduce`` runs, and the
    Smith forms of its Morse boundaries give the rest.  A negative
    ``max_dim`` raises ``ValueError``: there is no table to give."""
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative, got %r" % (max_dim,))
    top = max_dim + 1
    cells = ([0] if reduced else []) + [f for d in range(top + 1) for f in reversed(X.faces(d))]
    table = morse.facet_table(cells)
    _certify(X, top, table)
    pairs, critical = morse.coreduce(cells, table)
    uppers = [a.bit_count() - 1 for a in pairs.values()]
    ranks = [uppers.count(d) for d in range(top + 1)]  # one per pair
    torsion = [()] * (top + 1)
    for d, m in enumerate(_morse_boundaries(pairs, critical, top, cells, table)):
        s = smith_normal_form(m)
        ranks[d] += s.rank
        torsion[d] = s.torsion
    counts = [len(X.faces(d)) for d in range(max_dim + 1)]
    numbers = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))
    return BettiResult(numbers, tuple(torsion[1:]), tuple(counts), tuple(ranks), reduced)


def relative_betti(X, A, max_dim: int) -> BettiResult:
    """Homology of (X, A) through max_dim: unreduced ``betti``, with its
    certificate, cell order and ``ValueError`` for a negative max_dim, on
    the cells of X not in A."""
    return betti(relative_family(X, A, max_dim), max_dim, reduced=False)
