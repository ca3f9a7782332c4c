"""Exact integer matrix computations: determinants, Smith invariant factors,
lattice spanning tests, and the odd-determinant 0/1 matrix scans.

The lattice questions the verifiers ask (do these rows span Z^k, which
primes divide the index of the lattice they span, what completes these
columns to a unimodular matrix) are answered by one column-by-column gcd
elimination, `_eliminate`; none of them needs the invariant factors. The
Smith reduction stays for the invariant factors themselves.

Everything runs on Python ints; no floating point anywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

Matrix = list[list[int]]


def _copy(mat: Sequence[Sequence[int]]) -> Matrix:
    rows = [list(r) for r in mat]
    if rows:
        c = len(rows[0])
        if any(len(r) != c for r in rows):
            raise ValueError("matrix rows have unequal lengths")
    return rows


def det_exact(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = _copy(mat)
    n = len(a)
    if n == 0:
        return 1
    if len(a[0]) != n:
        raise ValueError(f"determinant needs a square matrix, got {n}x{len(a[0])}")
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for l in range(i + 1, n):
                a[j][l] = (a[j][l] * a[i][i] - a[j][i] * a[i][l]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def _smith(mat: Sequence[Sequence[int]], track_rows: bool) -> tuple[list[int], Matrix | None]:
    """Diagonalize by unimodular row/column operations.

    Pivot choice is the smallest absolute nonzero entry, ties broken in
    row-major order, which makes the reduction (and the tracked row
    transform) deterministic. Returns the invariant factors padded with
    zeros to min(r, c), plus the accumulated row transform U when requested
    (U @ mat @ V = diag for some untracked unimodular V).
    """
    a = _copy(mat)
    r = len(a)
    c = len(a[0]) if a else 0
    u: Matrix | None = None
    if track_rows:
        u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    factors: list[int] = []
    t = 0
    while t < min(r, c):
        # locate pivot
        best = None
        pos = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pos = (i, j)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            if u is not None:
                u[t] = [-x for x in u[t]]
        p = a[t][t]
        # clear one offending entry per pass, then re-select the pivot
        dirty = False
        for i in range(t + 1, r):
            if a[i][t]:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if u is not None:
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, c):
            if a[t][j]:
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # row and column are clear; enforce divisibility over the rest
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        factors.append(p)
        t += 1
    factors.extend(0 for _ in range(min(r, c) - len(factors)))
    return factors, u


def smith_invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d1 | d2 | ... of the matrix, zeros trailing."""
    return _smith(mat, track_rows=False)[0]


def smith_row_transform(mat: Sequence[Sequence[int]]) -> tuple[list[int], Matrix]:
    """Invariant factors plus the unimodular row transform that produced them."""
    factors, u = _smith(mat, track_rows=True)
    assert u is not None
    return factors, u


def _eliminate(
    rows: Sequence[Sequence[int]], k: int, units_only: bool = False, track: bool = False
) -> tuple[list[int] | None, Matrix | None]:
    """Row-echelon form of a matrix with k columns by gcd elimination.

    Column by column, the smallest |entry| at or below the diagonal (ties to
    the first row) becomes the pivot and reduces the rows under it by
    unimodular row operations until they are zero in that column. Returns
    the |pivot| of each column, which is the diagonal of the row Hermite
    form, so at full rank their product is the index of the row lattice in
    Z^k. The pivot list is None when the rank is below k. With units_only
    the elimination stops after the first pivot that is not 1. With track
    it also returns the row transform U, so that U @ rows is the echelon
    form and rows k.. of U annihilate the columns.
    """
    a = [list(row) for row in rows]
    if any(len(row) != k for row in a):
        raise ValueError("row length does not match lattice rank")
    r = len(a)
    u = [[int(i == j) for j in range(r)] for i in range(r)] if track else None
    pivots: list[int] = []
    for t in range(k):
        while True:
            best = 0
            pos = -1
            for i in range(t, r):
                v = abs(a[i][t])
                if v and (not best or v < best):
                    best, pos = v, i
            if pos < 0:
                return None, u
            if pos != t:
                a[t], a[pos] = a[pos], a[t]
                if u is not None:
                    u[t], u[pos] = u[pos], u[t]
            top = a[t]
            p = top[t]
            clear = True
            for i in range(t + 1, r):
                x = a[i][t]
                if x:
                    q = x // p
                    a[i] = [y - q * z for y, z in zip(a[i], top)]
                    if u is not None:
                        u[i] = [y - q * z for y, z in zip(u[i], u[t])]
                    if a[i][t]:
                        clear = False
            if clear:
                break
        pivots.append(best)
        if units_only and best != 1:
            break
    return pivots, u


def rows_span_lattice(rows: Sequence[Sequence[int]], k: int) -> bool:
    """True iff the rows generate the full integer lattice Z^k: every pivot
    of their echelon form is 1 (a pivot above 1 already makes the index of
    the row lattice exceed 1)."""
    if k == 0:
        return True
    if len(rows) < k:
        return False
    pivots, _ = _eliminate(rows, k, units_only=True)
    return pivots is not None and all(d == 1 for d in pivots)


def lemma_r23_scan(n: int) -> Optional[Matrix]:
    """Scan every n x n 0/1 matrix for one with odd determinant not equal to +-1.

    Matrices are enumerated in ascending row-major bit order; returns the
    first counterexample, or None when odd determinant forces det = +-1.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"scan supported for 1 <= n <= 4, got {n}")
    for code in range(1 << (n * n)):
        mat = [[(code >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
        d = det_exact(mat)
        if d % 2 != 0 and d not in (1, -1):
            return mat
    return None


def counterexample_matrix(k: int) -> Matrix:
    """The k x k 0/1 matrix with odd determinant of absolute value k-1 (even k:
    zero diagonal, ones elsewhere; odd k: that block bordered by a 1)."""
    if k < 4:
        raise ValueError(f"counterexample matrices exist for k >= 4, got {k}")
    if k % 2 == 0:
        return [[0 if i == j else 1 for j in range(k)] for i in range(k)]
    block = counterexample_matrix(k - 1)
    out = [[1] + [0] * (k - 1)]
    for row in block:
        out.append([0] + row)
    return out
