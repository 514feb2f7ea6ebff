"""Exact homology of the face complexes via integer Smith normal form.

Boundary matrices of the complexes here are sparse with entries +-1, so the
Smith form is computed by eliminating unit pivots chosen Markowitz-style
(least fill), which usually empties the matrix; whatever residual survives
without a unit entry goes through a small dense textbook SNF.  Ranks are
double-checked modulo two large primes: the mod-p rank must equal the number
of invariant factors not divisible by p.

Betti numbers in dimension d come from b_d = n_d - rank d_d - rank d_{d+1};
the reduced variant augments with the empty-face row.  Relative homology of
a pair (X, A) uses the same machinery on the quotient cells (faces of X not
in A), where boundary entries landing in A are simply dropped.
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


@dataclass(frozen=True)
class SNFResult:
    diagonal: tuple[int, ...]  # positive invariant factors, each dividing the next
    rank: int

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _eliminate(matrix: SparseIntMatrix, mod: int | None = None) -> tuple[int, dict]:
    """Pivot away entries; returns (pivot count, residual rows).

    With ``mod`` set, works in GF(mod) where every nonzero entry can pivot,
    so the residual is always empty and the count is the rank.  Without it,
    only +-1 entries pivot (exact integer Schur updates) and the residual
    holds whatever has no unit entry left.
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

    rank = 0
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
        rank += 1
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
    return rank, rows


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


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    rank, residual = _eliminate(matrix, mod=p)
    if residual:
        raise AssertionError("mod-p elimination left a residual")
    return rank


def smith_normal_form(matrix: SparseIntMatrix, precheck: bool = True) -> SNFResult:
    unit_rank, residual = _eliminate(matrix)
    diag = [1] * unit_rank + _dense_snf(residual)
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise AssertionError("invariant factors out of divisibility order: %r" % (diag,))
    result = SNFResult(tuple(diag), len(diag))
    if precheck:
        for p in CHECK_PRIMES:
            expected = sum(1 for d in diag if d % p)
            got = rank_mod_p(matrix, p)
            if got != expected:
                raise AssertionError(
                    "mod-%d rank %d disagrees with invariant factors (%d)" % (p, got, expected))
    return result


def boundary_matrix(X, d: int, reduced: bool = False) -> SparseIntMatrix:
    """Boundary from d-faces to (d-1)-faces in the bases X.faces(d-1), X.faces(d).

    Faces are sorted tuples, so dropping index i carries sign (-1)^i.  A facet
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
        for idx in range(len(f)):
            i = rindex.get(f[:idx] + f[idx + 1:])
            if i is not None:
                triples.append((i, j, -1 if idx & 1 else 1))
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


def _betti_of_family(X, max_dim: int, reduced: bool) -> BettiResult:
    counts = [len(X.faces(d)) for d in range(max_dim + 2)]
    ranks = []
    snfs = []
    for d in range(max_dim + 2):
        M = boundary_matrix(X, d, reduced=reduced)
        if not M.triples:
            snfs.append(SNFResult((), 0))
            ranks.append(0)
        else:
            s = smith_normal_form(M)
            snfs.append(s)
            ranks.append(s.rank)
    numbers = tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))
    torsion = tuple(snfs[d + 1].torsion for d in range(max_dim + 1))
    return BettiResult(numbers, torsion, tuple(counts[: max_dim + 1]),
                       tuple(ranks), reduced)


def betti(X, max_dim: int, reduced: bool = True) -> BettiResult:
    return _betti_of_family(X, max_dim, reduced)


def relative_betti(X, A, max_dim: int) -> BettiResult:
    return _betti_of_family(relative_family(X, A, max_dim), max_dim, reduced=False)

