"""Exact integer matrix computations: determinants, Smith invariant factors,
lattice spanning tests, and the odd-determinant 0/1 matrix scans.

The lattice questions the verifiers ask (do these rows span Z^k, at which
column do they first miss a unit pivot, what completes these columns to a
unimodular matrix) are answered by one incremental echelon basis,
`echelon`, the integer analogue of `gf2._xor_basis`: each row is reduced
into one slot per column, and an extended-gcd step merges a row into a
slot whose pivot does not divide it. It reads its rows lazily and stops
once every pivot is 1. None of these questions needs the invariant
factors; the Smith reduction stays for the invariant factors themselves.

Everything runs on Python ints; no floating point anywhere.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def echelon(rows: Iterable[Sequence[int]], k: int, kernel: list | None = None) -> list:
    """Echelon basis of the lattice the rows span in Z^k, one slot per column.

    Slot t is None or a vector that is zero before column t and has a
    positive pivot at t. A row is reduced into the slots in column order: it
    goes into an empty slot, loses a multiple of a slot whose pivot divides
    its entry (x times the slot, with no division, at a unit pivot), and
    otherwise meets the slot b (pivot p) in one unimodular step with
    g = gcd(p, x) = s*p + u*x, where x is the row's entry: the slot becomes
    s*b + u*row and the row (p/g)*row - (x/g)*b. The pivots are the
    diagonal of the row Hermite form, so at full rank their product is the
    index of the lattice.

    The rows are read lazily, and reading stops once all k pivots are 1.
    With `kernel`, every row is read and each row that reduces to zero in
    its first k entries is appended to it; entries past k are carried
    along, so rows extended by the identity return their combinations.
    """
    slots: list = [None] * k
    units = 0
    for v in rows:
        for t in range(k):
            x = v[t]
            if not x:
                continue
            b = slots[t]
            if b is None:
                slots[t] = v if x > 0 else [-y for y in v]
                units += x == 1 or x == -1
                break
            p = b[t]
            if p == 1:
                v = [y - x * z for y, z in zip(v, b)]
            elif x % p:
                g, s, u = _egcd(p, x)
                slots[t] = [s * z + u * y for y, z in zip(v, b)]
                p, x = p // g, x // g
                v = [p * y - x * z for y, z in zip(v, b)]
                units += g == 1
            else:
                x //= p
                v = [y - x * z for y, z in zip(v, b)]
        else:
            if kernel is not None:
                kernel.append(v)
        if units == k and kernel is None:
            break
    return slots


def rows_span_lattice(rows: Iterable[Sequence[int]], k: int) -> bool:
    """True iff the rows generate the full integer lattice Z^k: every slot
    of their echelon basis holds a pivot 1."""
    for t, b in enumerate(echelon(rows, k)):
        if b is None or b[t] != 1:
            return False
    return True


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
