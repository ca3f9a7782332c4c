"""Linear algebra over GF(2) on int-packed bit vectors.

A vector in Z_2^k is an int with bit j-1 <-> coordinate j; a matrix is a list
of such row ints plus an explicit column count.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .complexes import _low_masks

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


def solutions(constraints: Iterable[int], k: int) -> int:
    """The set of every x in Z_2^k with <a, x> = 1 for each constraint a,
    as a 2^k-bit int whose bit x says whether x is in it: the AND, over the
    constraints, of the odd-pairing sets {x : <a, x> = 1}. Such a set is
    the XOR of the sets {x : x_j = 1} over the set bits j of a, each the
    complement of the kept mask _low_masks(k)[j]."""
    if not 0 <= k <= MAX_DIM:
        raise ValueError(f"dimension k={k} outside 0..{MAX_DIM}")
    lows = _low_masks(k)
    sols = everything = (1 << (1 << k)) - 1
    for a in constraints:
        if a >> k:
            raise ValueError(f"constraint {a} outside Z_2^{k}")
        odd = everything if a.bit_count() & 1 else 0
        while a:
            low = a & -a
            a ^= low
            odd ^= lows[low.bit_length() - 1]
        sols &= odd
    return sols


def solve_all_ones(constraints: Iterable[int], k: int) -> Optional[int]:
    """Least solution x of <a, x> = 1 for every constraint vector a: the
    lowest bit of solutions(constraints, k). Returns None when the system
    is inconsistent (exactly when some odd subset of the constraints sums
    to zero)."""
    sols = solutions(constraints, k)
    return (sols & -sols).bit_length() - 1 if sols else None


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
