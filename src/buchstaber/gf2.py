"""Linear algebra over GF(2) on int-packed bit vectors.

A vector in Z_2^k is an int with bit j-1 <-> coordinate j; a matrix is a list
of such row ints plus an explicit column count.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

MAX_DIM = 16


def _xor_basis(rows: Iterable[int]) -> dict[int, int]:
    """Incremental XOR basis of the rows' span, keyed by each member's
    lowest set bit; no two members share that bit."""
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            b = pivots.get(low)
            if b is None:
                pivots[low] = v
                break
            v ^= b
    return pivots


def rank(rows: Iterable[int]) -> int:
    """Rank over GF(2): the size of the rows' XOR basis."""
    return len(_xor_basis(rows))


def spans_full(rows: Sequence[int], k: int) -> bool:
    """True iff the rows span all of Z_2^k (vacuously true for k = 0)."""
    if k == 0:
        return True
    if len(rows) < k:
        return False
    return rank(rows) == k


def solve_all_ones(constraints: Iterable[int], k: int) -> Optional[int]:
    """Least solution x of <a, x> = 1 for every constraint vector a.

    Returns None when the system is inconsistent (exactly when some odd
    subset of the constraints sums to zero). Deterministic: reduced echelon
    form with pivots on the lowest available coordinate and free variables
    set to 0.
    """
    if not 0 <= k <= MAX_DIM:
        raise ValueError(f"dimension k={k} outside 0..{MAX_DIM}")
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, rhs); rows fully reduced
    for a in sorted(set(constraints)):
        v, rhs = a, 1
        # a reduced row holds only its pivot bit plus free bits, so one pass
        # over the pivots clears every pivot bit from v
        for bit, (bv, br) in pivots.items():
            if v & bit:
                v ^= bv
                rhs ^= br
        if v == 0:
            if rhs:
                return None
            continue
        low = v & -v
        for bit, (bv, br) in list(pivots.items()):
            if bv & low:
                pivots[bit] = (bv ^ v, br ^ rhs)
        pivots[low] = (v, rhs)
    x = 0
    for bit, (_, rhs) in pivots.items():
        if rhs:
            x |= bit
    return x


def kernel_basis(rows: Iterable[int], n: int) -> list[int]:
    """Canonical basis of {x in Z_2^n : <row, x> = 0 for all rows}.

    One basis vector per free coordinate of the reduced echelon form,
    ordered by coordinate.
    """
    pivots = _xor_basis(rows)
    reduced: dict[int, int] = {}
    for low in sorted(pivots, reverse=True):
        vec = pivots[low]
        for plow, pvec in reduced.items():
            if vec & plow:
                vec ^= pvec
        reduced[low] = vec
    basis = []
    for col in range(n):
        bit = 1 << col
        if bit in reduced:
            continue
        vec = bit
        for plow, pvec in reduced.items():
            if pvec & bit:
                vec |= plow
        basis.append(vec)
    return basis
