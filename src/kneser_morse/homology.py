"""Exact homology of the face complexes via integer Smith normal form.

Boundary matrices of the complexes here are sparse with entries +-1, so the
Smith form is computed by eliminating unit pivots chosen Markowitz-style
(least fill), which usually empties the matrix; whatever residual survives
without a unit entry goes through a small dense textbook SNF.  Ranks are
double-checked modulo two large primes: the mod-p rank must equal the number
of invariant factors not divisible by p.

Faces are integer bitmasks, one bit per vertex, and each dimension's basis
is its faces in increasing mask order.  The boundary drops one bit at a
time with sign (-1)^i, where i is the number of set bits below the dropped
one: the usual alternating sign with the vertices ordered by bit.

Betti numbers in dimension d come from b_d = n_d - rank d_d - rank d_{d+1};
the reduced variant augments with the empty-face row.  Relative homology of
a pair (X, A) uses the same machinery on the quotient cells (faces of X not
in A), where boundary entries landing in A are simply dropped.

A family's boundaries are eliminated top down, d = max_dim + 1 to 0, and
each elimination clears the next one ("clearing", or the twist of Chen and
Kerber): if rows P and columns Q were the pivots of d_{d+1}, then
C_d = d_{d+1}(span Q) + span{e_i : i not in P} as a direct sum, and d_d
vanishes on the first summand because d_d d_{d+1} = 0.  So the columns P of
d_d can be dropped without changing its rank or its nonzero invariant
factors.  The direct sum needs the block P x Q to be invertible in the
arithmetic at hand.  Over GF(p) any pivot block is.  Over Z only the unit
pivots qualify: their block has determinant +-1, while a pivot taken in the
dense residual can leave a determinant other than +-1, a block that is not
invertible over Z, so those rows are never cleared.
Each arithmetic (Z and each check prime) clears with its own pivots only,
which keeps the mod-p rechecks independent of the integer pass.

Clearing relies on d_d d_{d+1} = 0, so that is certified exactly over Z
before any column is dropped: d_d is applied, column by column, to every
column of d_{d+1} that some arithmetic pivoted in.  A nonzero image raises
``AssertionError`` naming d and the column.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

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

    def build_rows(self, mod: int | None = None) -> dict[int, dict[int, int]]:
        rows: dict[int, dict[int, int]] = {}
        for i, j, v in self.triples:
            r = rows.setdefault(i, {})
            w = r.get(j, 0) + v
            if mod is not None:
                w %= mod
            if w:
                r[j] = w
            elif j in r:
                del r[j]
        return {i: r for i, r in rows.items() if r}

    def columns(self, keep=None) -> dict[int, list[tuple[int, int]]]:
        """Column -> [(row, entry)], for the columns in ``keep`` (all if None)."""
        cols: dict[int, list[tuple[int, int]]] = {}
        for i, j, v in self.triples:
            if keep is None or j in keep:
                cols.setdefault(j, []).append((i, v))
        return cols

    def without_columns(self, drop) -> "SparseIntMatrix":
        if not drop:
            return self
        return SparseIntMatrix(self.nrows, self.ncols,
                               (t for t in self.triples if t[1] not in drop))


@dataclass(frozen=True)
class SNFResult:
    diagonal: tuple[int, ...]  # positive invariant factors, each dividing the next
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _eliminate(matrix: SparseIntMatrix, mod: int | None = None) -> tuple[dict, dict]:
    """Pivot away entries; returns (pivots, residual rows).

    ``pivots`` maps each pivot row to its pivot column, so its size is the
    pivot count.  With ``mod`` set, works in GF(mod) where every nonzero
    entry can pivot, so the residual is always empty and the count is the
    rank.  Without it, only +-1 entries pivot (exact integer Schur updates)
    and the residual holds whatever has no unit entry left.
    """
    rows = matrix.build_rows(mod)
    cols: dict[int, set[int]] = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    def usable(v: int) -> bool:
        return mod is not None or v in (1, -1)

    heap: list[tuple[int, int, int]] = []
    for i, r in rows.items():
        for j, v in r.items():
            if usable(v):
                heap.append(((len(r) - 1) * (len(cols[j]) - 1), i, j))
    heapq.heapify(heap)

    pivots: dict[int, int] = {}
    while heap:
        c, i, j = heapq.heappop(heap)
        r = rows.get(i)
        if r is None:
            continue
        v = r.get(j)
        if v is None or not usable(v):
            continue
        cc = (len(r) - 1) * (len(cols[j]) - 1)
        if cc > c:
            heapq.heappush(heap, (cc, i, j))
            continue
        pivots[i] = j
        del rows[i]
        for jj in r:
            cols[jj].discard(i)
        inv = v if mod is None else pow(v, -1, mod)
        for ii in list(cols[j]):
            rr = rows[ii]
            a = rr.pop(j)
            f = a * inv if mod is None else a * inv % mod
            for jj, pv in r.items():
                if jj == j:
                    continue
                w = rr.get(jj, 0) - f * pv
                if mod is not None:
                    w %= mod
                if w:
                    if jj not in rr:
                        cols.setdefault(jj, set()).add(ii)
                    rr[jj] = w
                    if usable(w):
                        heapq.heappush(
                            heap, ((len(rr) - 1) * (len(cols[jj]) - 1), ii, jj))
                elif jj in rr:
                    del rr[jj]
                    cols[jj].discard(ii)
            if not rr:
                del rows[ii]
        cols[j].clear()
        del cols[j]
    return pivots, rows


def _dense_snf(rows: dict[int, dict[int, int]]) -> list[int]:
    """Textbook SNF diagonal of a small residual block (exact integers)."""
    row_ids = sorted(rows)
    col_ids = sorted({j for r in rows.values() for j in r})
    a = [[rows[i].get(j, 0) for j in col_ids] for i in row_ids]
    m, n = len(a), len(col_ids)
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        bi, bj = pivot
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                a[t][j] += a[offender][j]
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def rank_mod_p(matrix: SparseIntMatrix, p: int, pivots: dict | None = None) -> int:
    """Rank over GF(p).  A dict passed as ``pivots`` receives the pivot
    row -> column map of the elimination."""
    found, residual = _eliminate(matrix, mod=p)
    if residual:
        raise AssertionError("mod-p elimination left a residual")
    if pivots is not None:
        pivots.update(found)
    return len(found)


def _check_mod_p(diag, p: int, got: int) -> None:
    expected = sum(1 for d in diag if d % p)
    if got != expected:
        raise AssertionError(
            "mod-%d rank %d disagrees with invariant factors (%d)" % (p, got, expected))


def smith_normal_form(matrix: SparseIntMatrix, precheck: bool = True,
                      pivots: dict | None = None) -> SNFResult:
    """Invariant factors over Z, rechecked modulo each ``CHECK_PRIMES`` prime
    when ``precheck`` is set.  A dict passed as ``pivots`` receives the
    row -> column map of the unit pivots only, never the dense residual's."""
    units, residual = _eliminate(matrix)
    diag = [1] * len(units) + _dense_snf(residual)
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise AssertionError("invariant factors out of divisibility order: %r" % (diag,))
    result = SNFResult(tuple(diag), len(diag))
    if precheck:
        for p in CHECK_PRIMES:
            _check_mod_p(diag, p, rank_mod_p(matrix, p))
    if pivots is not None:
        pivots.update(units)
    return result


def boundary_matrix(X, d: int, reduced: bool = False) -> SparseIntMatrix:
    """Boundary from d-faces to (d-1)-faces in the bases X.faces(d-1), X.faces(d).

    Dropping a bit with i set bits below it carries sign (-1)^i.  A facet
    absent from X.faces(d-1) contributes nothing; that convention makes the
    same builder serve quotient (relative) families.  For d = 0 the reduced
    flag adds the augmentation row onto the empty face.
    """
    cols = X.faces(d)
    if d == 0:
        if reduced:
            return SparseIntMatrix(1, len(cols), [(0, j, 1) for j in range(len(cols))])
        return SparseIntMatrix(0, len(cols), [])
    rows = X.faces(d - 1)
    rindex = {f: i for i, f in enumerate(rows)}
    triples = []
    for j, f in enumerate(cols):
        rest, sign = f, 1
        while rest:
            low = rest & -rest
            i = rindex.get(f ^ low)
            if i is not None:
                triples.append((i, j, sign))
            rest ^= low
            sign = -sign
    return SparseIntMatrix(len(rows), len(cols), triples)


class FaceFamily:
    """A graded family of cells exposing the same faces(d) protocol as a
    complex; used for relative (quotient) chain groups."""

    def __init__(self, bands: dict[int, list]):
        self._bands = {d: sorted(fs) for d, fs in bands.items() if fs}

    def faces(self, d: int) -> list:
        return self._bands.get(d, [])

    def dims(self) -> list[int]:
        return sorted(self._bands)


def relative_family(X, A, max_dim: int) -> FaceFamily:
    bands = {}
    for d in range(max_dim + 2):
        xs = X.faces(d)
        if not xs:
            continue
        asub = set(A.faces(d))
        bands[d] = [f for f in xs if f not in asub]
    return FaceFamily(bands)


@dataclass(frozen=True)
class BettiResult:
    numbers: tuple[int, ...]          # index d = dimension
    torsion: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    ranks: tuple[int, ...]            # rank of d_d for d = 0..max_dim+1
    reduced: bool


def _certify_cleared(X, upper: dict, lower: SparseIntMatrix, d: int) -> None:
    """Check d_d d_{d+1} = 0 exactly on every column of d_{d+1} in ``upper``
    (column -> [(row, entry)]), one column at a time."""
    if not upper:
        return
    below = lower.columns()
    for j, col in upper.items():
        image: dict[int, int] = {}
        for i, a in col:
            for r, b in below.get(i, ()):
                image[r] = image.get(r, 0) + a * b
        if any(image.values()):
            raise AssertionError(
                "d_%d d_%d is nonzero on column %d of d_%d (face %r); clearing needs it zero"
                % (d, d + 1, j, d + 1, X.faces(d + 1)[j]))


def _betti_of_family(X, max_dim: int, reduced: bool) -> BettiResult:
    top = max_dim + 1
    counts = [len(X.faces(d)) for d in range(top + 1)]
    ranks = [0] * (top + 1)
    torsion = [()] * (top + 1)
    arithmetics = (0,) + CHECK_PRIMES  # 0 stands for Z
    # per arithmetic: pivot row -> column of d_{d+1}
    cleared: dict[int, dict[int, int]] = {a: {} for a in arithmetics}
    upper: dict = {}  # the columns of d_{d+1} that some arithmetic pivoted in
    for d in range(top, -1, -1):
        M = boundary_matrix(X, d, reduced=reduced)
        _certify_cleared(X, upper, M, d)
        upper = {}  # freed before the eliminations
        pivots: dict[int, dict[int, int]] = {a: {} for a in arithmetics}
        if M.triples:
            s = smith_normal_form(M.without_columns(cleared[0]), precheck=False,
                                  pivots=pivots[0])
            for p in CHECK_PRIMES:
                got = rank_mod_p(M.without_columns(cleared[p]), p, pivots=pivots[p])
                _check_mod_p(s.diagonal, p, got)
            ranks[d], torsion[d] = s.rank, s.torsion
        cleared = pivots
        upper = M.columns(set().union(*(piv.values() for piv in pivots.values())))
    numbers = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))
    return BettiResult(numbers, tuple(torsion[1:]), tuple(counts[: max_dim + 1]),
                       tuple(ranks), reduced)


def betti(X, max_dim: int, reduced: bool = True) -> BettiResult:
    return _betti_of_family(X, max_dim, reduced)


def relative_betti(X, A, max_dim: int) -> BettiResult:
    return _betti_of_family(relative_family(X, A, max_dim), max_dim, reduced=False)

