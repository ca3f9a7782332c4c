"""Linear algebra over GF(2) on int-packed bit vectors.

A vector in Z_2^k is an int with bit j-1 <-> coordinate j; a matrix is a list
of such row ints plus an explicit column count.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

MAX_DIM = 16
CIRCUIT_MAX_DIM = 8


def rank(rows: Iterable[int], k: int | None = None) -> int:
    """Rank over GF(2) via an incremental XOR basis keyed by lowest set bit."""
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            b = pivots.get(low)
            if b is None:
                pivots[low] = v
                break
            v ^= b
    return len(pivots)


def spans_full(rows: Sequence[int], k: int) -> bool:
    """True iff the rows span all of Z_2^k (vacuously true for k = 0)."""
    if k == 0:
        return True
    if len(rows) < k:
        return False
    return rank(rows, k) == k


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
    pivots: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            b = pivots.get(low)
            if b is None:
                pivots[low] = v
                break
            v ^= b
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


@lru_cache(maxsize=None)
def odd_circuits(k: int) -> tuple[tuple[int, ...], ...]:
    """All minimal odd linear dependencies among the nonzero vectors of Z_2^k.

    Each circuit is an ascending tuple of vector masks: the members sum to
    zero, have odd cardinality >= 3, and every proper subset is linearly
    independent. Ordered by (size, members). A circuit of size t spans a
    (t-1)-dimensional space, so t <= k+1; enumeration picks the t-1 smallest
    members (independent, increasing) and closes with their sum. The count
    grows fast (4.1 M circuits at k = 6), so witness checks solve per-vertex
    affine systems instead; this is their reference at small k.
    """
    if not 1 <= k <= CIRCUIT_MAX_DIM:
        raise ValueError(f"circuit enumeration supports 1 <= k <= {CIRCUIT_MAX_DIM}, got {k}")
    n = (1 << k) - 1
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: list[int], basis: list[int], t: int) -> None:
        if len(chosen) == t - 1:
            last = 0
            for v in chosen:
                last ^= v
            if last <= chosen[-1]:
                return
            # minimal iff no proper subset of the prefix sums to the closure
            for size in range(2, t - 1):
                for sub in combinations(chosen, size):
                    acc = 0
                    for v in sub:
                        acc ^= v
                    if acc == last:
                        return
            out.append(tuple(chosen) + (last,))
            return
        for v in range(start, n + 1):
            w = v
            for b in basis:
                if w & (b & -b):
                    w ^= b
            if w == 0:
                continue
            basis.append(w)
            basis.sort(key=lambda r: r & -r)
            chosen.append(v)
            extend(v + 1, chosen, basis, t)
            chosen.pop()
            basis.remove(w)

    for t in range(3, k + 2, 2):
        extend(1, [], [], t)
    out.sort(key=lambda c: (len(c), c))
    return tuple(out)
