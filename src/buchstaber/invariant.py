"""Freeness verification, xi-mapping search, exact real invariant values,
the level-1/2/3 criteria, lower bounds, and the assembled analysis report.

Matrix conventions: an m x k matrix over GF(2) is a list of m row masks
(k bits each); over the integers it is a list of m rows of k ints. A dual
matrix has m columns: over GF(2) a list of m-bit row masks, over the
integers a list of length-m rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from . import gf2, zlattice
from .complexes import SimplicialComplex, _low_masks, full_mask, incidence

GF2 = "gf2"
INT = "int"

XI_DEFAULT_GUARD = 4
XI_DEFAULT_NODE_BUDGET = 400_000
SCAN_DEFAULT_CANDIDATE_BUDGET = 400_000
SREAL_DEFAULT_MAX_K = 5
COVER_SEARCH_GUARD = 40
MATRIX_SCAN_BIT_LIMIT = 16


class SearchBudgetExceeded(RuntimeError):
    """A search used up its deterministic work budget for the call: the
    subspace scan the vector positions it passes over (one per candidate
    test without a face set, the same count from the bit-parallel scan over
    the face set), or xi_search its nodes."""


def _check_ring(ring: str) -> None:
    if ring not in (GF2, INT):
        raise ValueError(f"ring must be {GF2!r} or {INT!r}, got {ring!r}")


def _check_threads(threads: int) -> None:
    """Validate a worker count. The count is accepted for compatibility and
    has no effect: every search runs in the calling thread."""
    if threads < 0:
        raise ValueError("thread count must be >= 0")


def _check_gf2_width(rows: Sequence[int], width: int) -> None:
    if any(r >> width for r in rows):
        raise ValueError(f"GF(2) row masks must have at most {width} bits")


def _check_int_width(rows: Sequence, width: int) -> None:
    if set(map(len, rows)) - {width} or set(map(type, chain.from_iterable(rows))) - {int}:
        raise ValueError(f"each integer row must have {width} entries, all ints")


def _check_rows(K: SimplicialComplex, rows: Sequence, k: int, ring: str) -> None:
    _check_ring(ring)
    if len(rows) != K.m:
        raise ValueError(f"matrix has {len(rows)} rows, complex has {K.m} vertices")
    if ring == GF2:
        _check_gf2_width(rows, k)
    else:
        _check_int_width(rows, k)


# ---------------------------------------------------------------------------
# matrix freeness conditions


def verify_S(K: SimplicialComplex, rows: Sequence, k: int, ring: str) -> bool:
    """Rows outside every maximal simplex must span the full rank-k lattice."""
    ok, _ = verify_S_detailed(K, rows, k, ring)
    return ok


def verify_S_detailed(K: SimplicialComplex, rows: Sequence, k: int, ring: str):
    """Like verify_S but also reports the first failing maximal simplex."""
    _check_rows(K, rows, k, ring)
    side = _first_unspanning_facet(K, rows, k, ring)
    return (True, None) if side is None else (False, side[0])


def _first_unspanning_facet(
    K: SimplicialComplex, rows: Sequence, k: int, ring: str
) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The K.facet_sides() entry of the first facet whose outside rows do
    not span the rank-k lattice, or None."""
    spans = gf2.spans_full if ring == GF2 else zlattice.rows_span_lattice
    for side in K.facet_sides():
        if not spans([rows[i] for i in side[1]], k):
            return side
    return None


def verify_Lambda(K: SimplicialComplex, rows: Sequence, ring: str) -> bool:
    """Columns indexed by every maximal simplex must be part of a basis."""
    ok, _ = verify_Lambda_detailed(K, rows, ring)
    return ok


def verify_Lambda_detailed(K: SimplicialComplex, rows: Sequence, ring: str):
    """Checked as the rows of each column-submatrix spanning the full space,
    with each facet's columns taken from K.facet_sides(); over GF(2), as
    the facet's columns of the one transpose being independent; over Z, as
    the dual's rows restricted to the facet's columns, read lazily, spanning
    Z^|facet|.

    A zero-row matrix (k = m) is vacuously accepted; at that degenerate
    boundary only the parametric condition is meaningful.
    """
    _check_ring(ring)
    if len(rows) == 0:
        return True, None
    if ring == GF2:
        _check_gf2_width(rows, K.m)
        columns = incidence(rows, K.m)
        for sigma, _, inside in K.facet_sides():
            if inside and gf2.rank([columns[c] for c in inside]) != len(inside):
                return False, sigma
        return True, None
    _check_int_width(rows, K.m)
    for sigma, _, inside in K.facet_sides():
        if inside:
            # itemgetter gives a bare entry, not a 1-tuple, for one column
            get = itemgetter(*inside)
            sub = map(get, rows) if len(inside) > 1 else zip(map(get, rows))
            if not zlattice.rows_span_lattice(sub, len(inside)):
                return False, sigma
    return True, None


def verify_nonsimplex_condition(K: SimplicialComplex, rows: Sequence, k: int, ring: str) -> bool:
    """Every nonzero vector must pair to nonzero with all rows of some
    minimal non-face (over GF(2), or mod every prime). The rows a vector
    serves contain a minimal non-face iff they are not a face
    (K.contains_face). Over GF(2) the rows vector a serves are the XOR of
    the transposed columns j in a, so the vectors are walked in Gray-code
    order, one column XOR per step.

    Over Z a vector a mod p serves a face iff it is orthogonal to the rows
    outside some facet, so the condition fails iff those rows do not span
    Z^k. At the first such facet the failing vector is solved for: t is the
    first column of its echelon basis whose pivot is missing or above 1, q
    is 2 or that pivot, a_t = 1, a_j = 0 past t, and a_j below t is
    back-substituted mod q through the unit pivots. Its served set mod q is
    confirmed to be a face; mod any prime p dividing q, a is nonzero and
    serves a subset of it. Taking q whole spares factoring the pivot."""
    _check_rows(K, rows, k, ring)
    if k == 0:
        return True
    if ring == GF2:
        columns = incidence(rows, k)
        served = 0
        for step in range(1, 1 << k):
            served ^= columns[(step & -step).bit_length() - 1]
            if K.contains_face(served):
                return False
        return True
    side = _first_unspanning_facet(K, rows, k, INT)
    if side is None:
        return True
    sigma, outside, _ = side
    slots = zlattice.echelon([rows[i] for i in outside], k)
    t = next(t for t, b in enumerate(slots) if b is None or b[t] != 1)
    q = 2 if slots[t] is None else slots[t][t]
    a = [0] * k
    a[t] = 1
    for j in range(t - 1, -1, -1):
        a[j] = -sum(x * y for x, y in zip(a[j + 1 :], slots[j][j + 1 :])) % q
    served = 0
    for i, row in enumerate(rows):
        if sum(x * y for x, y in zip(a, row)) % q:
            served |= 1 << i
    if not K.contains_face(served):
        raise RuntimeError(f"vector {a} mod {q} does not serve a face outside facet {sigma:#b}")
    return False


def dual_lambda(rows: Sequence, m: int, k: int, ring: str) -> list:
    """Complete a passing m x k matrix to its dual (m-k) x m counterpart.

    GF(2): a kernel basis of the column space. Integers: each row is
    extended by its unit vector and inserted into one echelon basis
    (zlattice.echelon); the combinations of the rows that reduce to zero,
    in the order they do, form the dual. This requires the columns to be
    part of a basis (every pivot 1), and then the m - k zero rows and the k
    unit slots are one unimodular transform of the matrix.
    """
    _check_ring(ring)
    if len(rows) != m:
        raise ValueError("row count does not match vertex count")
    if ring == GF2:
        _check_gf2_width(rows, k)
        basis = gf2.kernel_basis(incidence(rows, k), m)
        if len(basis) != m - k:
            raise ValueError("matrix does not have full column rank over GF(2)")
        return basis
    _check_int_width(rows, k)
    kernel: list = []
    slots = zlattice.echelon([[*row, *[0] * i, 1, *[0] * (m - 1 - i)] for i, row in enumerate(rows)], k, kernel)
    if any(b is None or b[t] != 1 for t, b in enumerate(slots)):
        raise ValueError("columns are not part of a basis of the integer lattice")
    return [v[k:] for v in kernel]


# ---------------------------------------------------------------------------
# xi mappings


@dataclass
class XiWitness:
    """Assignment of a minimal non-face to every nonzero vector of Z_2^k."""

    k: int
    assignment: dict[int, int]  # vector mask -> non-face mask


def validate_xi(K: SimplicialComplex, w: XiWitness) -> bool:
    """Every nonzero vector maps to a minimal non-face, and every odd
    circuit has images with empty intersection. The latter is checked per
    vertex x: the affine system {<a, y> = 1 : x in xi(a)} is consistent
    iff no odd subset of its vectors sums to zero, that is iff no odd
    circuit has all its images containing x (an odd dependency splits into
    disjoint circuits, one of them odd)."""
    if sorted(w.assignment) != list(range(1, 1 << w.k)):
        return False
    if not set(K.minimal_nonsimplices()).issuperset(w.assignment.values()):
        return False
    return None not in _vertex_rows(K, w)


def _vertex_rows(K: SimplicialComplex, w: XiWitness) -> list[Optional[int]]:
    """Per vertex x, the least solution y of {<a, y> = 1 : x in xi(a)}, or
    None where there is none: the lowest bit of the AND of gf2.solutions
    over the images holding x. Raises ValueError as xi_to_matrix does."""
    sols = [gf2.solutions((), w.k)] * K.m
    by_image: dict[int, list[int]] = {}
    for a, om in w.assignment.items():
        if not 0 < a < 1 << w.k:
            raise ValueError(f"vector {a} outside 1..{(1 << w.k) - 1}")
        by_image.setdefault(om, []).append(a)
    vertices = full_mask(K.m)
    for om, vectors in by_image.items():
        common = gf2.solutions(vectors, w.k)
        om &= vertices
        while om:
            sols[(om & -om).bit_length() - 1] &= common
            om &= om - 1
    return [(s & -s).bit_length() - 1 if s else None for s in sols]


def _gaussian_binomial(m: int, k: int) -> int:
    """Number of k-dimensional subspaces of Z_2^m."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << m - i) - 1
        den *= (1 << k - i) - 1
    return num // den


EXISTENCE_SCAN_LIMIT = 1_000_000


def xi_witness_exists(K: SimplicialComplex, k: int) -> Optional[bool]:
    """Decide whether a rank-k xi mapping exists, via the subspace form of
    the matrix condition: one exists iff some k-dimensional subspace of
    Z_2^m consists (nonzero part) of vectors whose support contains a
    minimal non-face. Returns None when [m choose k]_2 exceeds
    EXISTENCE_SCAN_LIMIT; never returns a wrong answer. `s_real` runs the
    same scan at every rank >= 4, under its budget above that limit. Where
    the complex has a face set (K.face_bits()) the scan is bit-parallel over
    it; otherwise it tests one candidate vector at a time (_good_span).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return True
    if k > K.m or not K.minimal_nonsimplices():
        return False
    if _gaussian_binomial(K.m, k) > EXISTENCE_SCAN_LIMIT:
        return None
    return _good_span(K, k) is not None


def _good_span(K: SimplicialComplex, k: int, budget: Optional[list] = None) -> Optional[list[int]]:
    """A k-dimensional subspace of Z_2^m whose nonzero vectors each contain
    a minimal non-face, or None. Entry a of the returned list is the vector
    M a, where column j of M is the j-th basis vector found.

    Enumeration visits each subspace once through its unique increasing
    basis of coset minima, in ascending order of the next basis vector, and
    returns the first subspace it completes. A vector contains a minimal
    non-face iff it is not a face.

    Where the complex has a face set (K.face_bits() is not None) the scan
    is bit-parallel over it and tests no vector on its own. A node carries
    two 2^m-bit sets: `good`, the x with x ^ s a non-face for every s in the
    span, and `allowed`, the x clear of the top bit of every basis vector,
    which are exactly the coset minima. Its candidates are good & allowed
    from the node's start up, taken in ascending order; each extends the
    basis at once, with good ANDed by its own translate by the candidate and
    allowed by the candidate's top bit. Without a face set,
    _good_span_by_tests tests one candidate vector at a time in the same
    order.

    Without `budget` the scan is exhaustive. With it, every vector position
    a node passes over takes one unit from `budget[0]`, which callers may
    share across scans, and SearchBudgetExceeded is raised when none is
    left. That is the count of candidate tests the one-at-a-time scan makes,
    so both paths return the same span, leave the same budget and trip at
    the same point.
    """
    faces = K.face_bits()
    if faces is None:
        return _good_span_by_tests(K, k, budget)
    m = K.m
    size = 1 << m
    lows = _low_masks(m)
    everything = (1 << size) - 1
    basis: list[int] = []

    def charge(units: int) -> None:
        budget[0] -= units
        if budget[0] < 0:
            raise SearchBudgetExceeded(f"subspace scan at k={k} ran out of its budget")

    def extend(good: int, allowed: int, start: int, depth: int) -> bool:
        if depth == k:
            return True
        cand = good & allowed & -(1 << start)
        pos = start  # the first position not yet charged
        while cand:
            low = cand & -cand
            cand ^= low
            b = low.bit_length() - 1
            if budget is not None:
                charge(b - pos + 1)
            pos = b + 1
            basis.append(b)
            without_top = lows[b.bit_length() - 1]
            if extend(good & _xor_translate(good, b, lows), allowed & without_top, pos, depth + 1):
                return True
            basis.pop()
        if budget is not None:
            charge(size - pos)
        return False

    try:
        if not extend(everything ^ faces, everything, 1, 0):
            return None
    finally:
        del extend  # a recursive closure holds itself: free it without gc
    span = [0]
    for b in basis:
        span += [b ^ s for s in span]
    return span


def _good_span_by_tests(
    K: SimplicialComplex, k: int, budget: Optional[list] = None
) -> Optional[list[int]]:
    """_good_span by one face test per candidate vector (K.contains_face):
    the scan where the complex has no face set, and the tests' reference
    for the bit-parallel scan where it has one. Same order, same result,
    same budget units: one per candidate vector tested."""
    is_face = K.contains_face
    m = K.m
    span = [0]

    def extend(start: int, depth: int) -> bool:
        if depth == k:
            return True
        for b in range(start, 1 << m):
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchBudgetExceeded(f"subspace scan at k={k} ran out of its budget")
            if is_face(b):
                continue
            # unique generation: b must be the minimum of its coset
            if any(b ^ s < b for s in span if s):
                continue
            coset = [b ^ s for s in span]
            if not any(map(is_face, coset)):
                span.extend(coset)
                if extend(b + 1, depth + 1):
                    return True
                del span[len(span) - len(coset):]
        return False

    try:
        return span if extend(1, 0) else None
    finally:
        del extend  # a recursive closure holds itself: free it without gc


def _xor_translate(bits: int, v: int, lows: Sequence[int]) -> int:
    """The translate {x : x ^ v in bits} of a set of 2^n-bit positions, by
    one butterfly step per set bit of v; lows is _low_masks(n)."""
    while v:
        j = (v & -v).bit_length() - 1
        v &= v - 1
        s, lo = 1 << j, lows[j]
        bits = (bits >> s) & lo | (bits & lo) << s
    return bits


def _xi_from_span(K: SimplicialComplex, span: Sequence[int], k: int) -> XiWitness:
    """xi(a) = the first minimal non-face inside the support of M a.

    Valid by construction: if a vertex x lay in every image of an odd
    circuit, summing (M a)_x = 1 over the circuit would give (M 0)_x = 1.
    """
    nonsimp = K.minimal_nonsimplices()
    return XiWitness(
        k,
        {a: next(w for w in nonsimp if w & ~span[a] == 0) for a in range(1, 1 << k)},
    )


def xi_search(
    K: SimplicialComplex,
    k: int,
    *,
    allow_large: bool = False,
    threads: int = 1,
    node_budget: int = XI_DEFAULT_NODE_BUDGET,
    stats: Optional[dict] = None,
    use_existence_filter: bool = True,
) -> Optional[XiWitness]:
    """Deterministic backtracking search for a xi mapping at rank k.

    Vectors are assigned in ascending mask order, candidate non-faces tried
    in canonical order, and a branch is cut when a fully assigned odd circuit
    has nonempty intersection (plus sound propagation that cannot change the
    outcome). Returns the first witness in that order (the canonical-first
    witness), or None. Raises SearchBudgetExceeded once the whole call has
    visited more than node_budget search nodes; the budget is counted
    deterministically, so results never depend on timing, and the nodes
    visited are added to `stats["nodes"]`, also on a budget trip.
    Nonexistence is normally decided up front through the subspace form of
    the matrix condition (use_existence_filter); the backtracking itself
    settles the remaining cases. `threads` is accepted and has no effect.

    `s_real` and `analyze` never call it: the criteria decide ranks <= 3
    and the subspace scan every higher rank. It is the independent
    reference the oracle and the tests check them against.
    """
    _check_threads(threads)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return XiWitness(0, {})
    if k > XI_DEFAULT_GUARD and not allow_large:
        raise ValueError(
            f"k={k} above the default guard {XI_DEFAULT_GUARD}; pass allow_large=True"
        )
    nonsimp = list(K.minimal_nonsimplices())
    if not nonsimp:
        return None
    nvec = (1 << k) - 1
    m = K.m
    if use_existence_filter and xi_witness_exists(K, k) is False:
        # refuting through the subspace form of the matrix condition is far
        # cheaper than exhausting the assignment tree; the backtracking
        # below then only ever runs to produce the canonical witness
        return None

    # Accepting an image for a vector is equivalent to keeping, for every
    # vertex x of the image, the affine system {<a, y> = 1 : x in xi(a)}
    # consistent: an odd dependency splits into disjoint circuits, one of
    # them odd, which is exactly a fully assigned circuit whose images all
    # contain x. Per vertex the whole affine closure is kept as two masks
    # over Z_2^k (span members / members forced to 0), so rejecting a
    # candidate is one AND against forbid[v] = {x : v forced to 0 at x},
    # and every future vector gets full one-step lookahead.
    lows = _low_masks(k)
    # failure of a search state is invariant under vertex permutations that
    # preserve the non-faces. When every permutation does, memo keys are the
    # sorted per-vertex closure masks; otherwise they are the raw masks. An
    # antichain is S_m-invariant exactly when it is one complete layer.
    t = nonsimp[0].bit_count()
    symmetric = len(nonsimp) == comb(m, t) and all(
        w.bit_count() == t for w in nonsimp
    )
    # candidate domain summary per forbidden-vertex mask: (0, None) dead,
    # (1, om) forced, (2, None) still open
    domain_cache: dict[int, tuple[int, Optional[int]]] = {}

    def domain_info(mask: int) -> tuple[int, Optional[int]]:
        r = domain_cache.get(mask)
        if r is None:
            first = None
            count = 0
            for w in nonsimp:
                if w & mask == 0:
                    count += 1
                    if count == 1:
                        first = w
                    else:
                        first = None
                        break
            r = (count, first)
            domain_cache[mask] = r
        return r

    nodes = 0
    span = [1] * m   # bit s: vector s lies in the span at this vertex
    zero = [1] * m   # bit s: <s, y> is forced to 0 there
    assign = [0] * (nvec + 1)
    forbid = [0] * (nvec + 2)  # vertex mask per vector, = {x : v in zero}
    # the closure masks are canonical and determine the whole subtree
    # (including which placements are forced), so exhausted states can be
    # cut on re-entry
    failed: set[tuple[int, ...]] = set()
    trail: list[tuple] = []  # ('c', x, span, zero, add_zero) | ('a', v)

    def place(v: int, om: int) -> bool:
        """Insert <v, y> = 1 at every vertex of om, then unit-propagate:
        a future vector whose domain shrank to one non-face is placed at
        once (such moves are implied by every completion). Appends undo
        records to the shared trail; False means dead end."""
        touched = []
        rest = om
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            sp = span[x]
            if sp >> v & 1:
                continue  # already implied with value 1
            zx = zero[x]
            # new span coset s^v; forced-to-0 elements come from parity-1
            add_zero = _xor_translate(sp ^ zx, v, lows)
            trail.append(("c", x, sp, zx, add_zero))
            span[x] = sp | _xor_translate(sp, v, lows)
            zero[x] = zx | add_zero
            bits = add_zero
            while bits:
                low = bits & -bits
                w = low.bit_length() - 1
                bits ^= low
                forbid[w] |= 1 << x
                if not assign[w]:
                    touched.append(w)
        assign[v] = om
        trail.append(("a", v))
        for w in sorted(set(touched)):
            if assign[w]:
                continue
            count, only = domain_info(forbid[w])
            if count == 0:
                return False
            if count == 1 and not place(w, only):
                return False
        return True

    def unwind(mark: int) -> None:
        while len(trail) > mark:
            rec = trail.pop()
            if rec[0] == "a":
                assign[rec[1]] = 0
                continue
            _, x, sp, zx, add_zero = rec
            span[x] = sp
            zero[x] = zx
            bits = add_zero
            while bits:
                low = bits & -bits
                w = low.bit_length() - 1
                bits ^= low
                forbid[w] &= ~(1 << x)

    def dfs(v: int) -> Optional[bool]:
        nonlocal nodes
        while v <= nvec and assign[v]:
            v += 1
        if v > nvec:
            return True
        nodes += 1
        if nodes > node_budget:
            return None
        parts = [sp << (nvec + 1) | zr for sp, zr in zip(span, zero)]
        if symmetric:
            parts.sort()
        key = (v, *parts)
        if key in failed:
            return False
        blocked = forbid[v]
        for om in nonsimp:
            if om & blocked:
                continue
            mark = len(trail)
            if place(v, om):
                sub = dfs(v + 1)
                if sub:
                    return True
                unwind(mark)
                if sub is None:
                    return None
            else:
                unwind(mark)
        if len(failed) < 500_000:
            failed.add(key)
        return False

    found = dfs(1)
    del place, dfs  # recursive closures hold themselves: free them without gc
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + nodes
    if found is None:
        raise SearchBudgetExceeded(
            f"xi search at k={k} exceeded {node_budget} nodes in one call"
        )
    if not found:
        return None
    return XiWitness(k, {v: assign[v] for v in range(1, nvec + 1)})


def xi_to_matrix(K: SimplicialComplex, w: XiWitness) -> list[int]:
    """Build GF(2) rows from a xi witness: row i is the least solution of
    <a, x> = 1 over the vectors a whose image holds vertex i, 0 for a vertex
    in no image. Raises ValueError when a system has no solution, which a
    valid witness rules out, for a vector outside 1..2^k - 1, and for k
    outside 0..gf2.MAX_DIM."""
    rows = _vertex_rows(K, w)
    if None in rows:
        raise ValueError("inconsistent xi witness: row system has no solution")
    return rows


def matrix_search(K: SimplicialComplex, k: int) -> Optional[list[int]]:
    """Exhaustive-scan oracle: first m x k GF(2) matrix passing verify_S.

    Matrices are ordered by their row tuples (first row most significant).
    Intended for cross-validation at tiny sizes only.
    """
    m = K.m
    if k == 0:
        return [0] * m
    if m * k > MATRIX_SCAN_BIT_LIMIT:
        raise ValueError(
            f"matrix scan needs m*k <= {MATRIX_SCAN_BIT_LIMIT}, got {m}*{k}"
        )
    outs = sorted((out for _, out, _ in K.facet_sides()), key=len)
    if len(outs[0]) < k:
        return None
    for rows in product(range(1 << k), repeat=m):
        if all(gf2.spans_full([rows[i] for i in out], k) for out in outs):
            return list(rows)
    return None


# ---------------------------------------------------------------------------
# exact real invariant


@dataclass
class SRealResult:
    """Outcome of the ascending xi search: exact value, or a verified interval
    when the resource guard stopped the climb early."""

    lower: int
    upper: int
    exact: bool
    xi_witness: Optional[XiWitness]
    matrix_rows: Optional[list[int]]

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


def s_real(
    K: SimplicialComplex,
    *,
    max_k: int = SREAL_DEFAULT_MAX_K,
    node_budget: int = SCAN_DEFAULT_CANDIDATE_BUDGET,
) -> SRealResult:
    """Largest k admitting a xi mapping, or a certified interval when the
    k cap or the budget stops the climb. The cap is max_k, and never above
    gf2.MAX_DIM, the largest rank xi_to_matrix lifts; a max_k below 0 is a
    ValueError.

    The criteria of check_criteria alone decide ranks 1..3: a xi mapping of
    rank r <= 3 exists iff the level is at least r, so a level below 3
    bounds the value whatever max_k is. The witness at r = min(level, max_k)
    is read off the matched configuration's record, without a search. The
    subspace scan of xi_witness_exists decides every higher rank, and its
    subspace gives the witness. xi_to_matrix lifts the witness of every
    rank. The scan is exhaustive where [m choose k]_2 is at most
    EXISTENCE_SCAN_LIMIT; above it, node_budget bounds the vector positions
    the scan passes over (_good_span), summed over all ranks of the call.
    """
    return _climb(K, check_criteria(K), max_k, node_budget)


def _climb(K: SimplicialComplex, criteria: tuple, max_k: int, node_budget: int) -> SRealResult:
    """The climb of s_real, given the (level, witness) pair of check_criteria(K).

    The rank-r witness for r <= 3 is read off the xi_slots of the matched
    configuration's record in _CONFIGURATIONS, and the subspace scan climbs
    on. xi_to_matrix lifts the witness of whichever rank the climb ends at.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    level, crit_w = criteria
    ub = K.m - K.dimension - 1
    cap = min(ub, max_k, gf2.MAX_DIM)
    value = min(level, cap)
    best: Optional[XiWitness] = None
    if value:
        slots = _CONFIGURATIONS[crit_w.level, crit_w.case].xi_slots
        best = XiWitness(value, {a: crit_w.sets[slots[a - 1]] for a in range(1, 1 << value)})
    upper = level if level < 3 else ub  # the criteria refute rank level + 1
    left = [node_budget]  # shared by the scans above EXISTENCE_SCAN_LIMIT
    for k in range(value + 1, min(cap, upper) + 1):
        capped = _gaussian_binomial(K.m, k) > EXISTENCE_SCAN_LIMIT
        try:
            span = _good_span(K, k, left if capped else None)
        except SearchBudgetExceeded:
            break
        if span is None:
            upper = value
            break
        best, value = _xi_from_span(K, span, k), k
    mat = xi_to_matrix(K, best) if value else None
    return SRealResult(value, upper, value == upper, best, mat)


# ---------------------------------------------------------------------------
# level criteria on the minimal non-faces


@dataclass
class CriterionWitness:
    """Matched configuration: paper-facing case index and the tuple of
    minimal non-faces instantiating it."""

    level: int
    case: int
    sets: tuple[int, ...]


class _Configuration:
    """One configuration case of the criteria and the plan of its scan.

    `constraints`: ascending tuples of 1-based slots whose non-faces have
    empty intersection. `slot_order`: the pairs (i, j) of slots such that
    some permutation of the slots preserving the constraints fixes slots
    1..i-1 and sends slot i to slot j. It turns a match into one that agrees
    before slot i and has slot j's non-face in slot i, so the first match
    has a lower index in slot i than in slot j; demanding that order loses
    no first match and cuts the symmetric copies of every partial tuple out
    of the scan. `xi_slots`: entry a - 1 is the 0-based slot whose non-face
    xi maps the vector a of Z_2^level to. Every odd circuit of Z_2^level
    uses a set of slots containing a constraint, so the mapping is valid on
    every configuration of the case; it is the canonical-first xi mapping on
    the case's generic configuration, where only the constraints have empty
    intersections. Rank r < level takes the first 2^r - 1 entries: an odd
    circuit of Z_2^r is one of Z_2^level. Derived per 0-based slot:
    `later`, the later slots it precedes; `completes`, the constraints
    (last slot, other slots) whose other slots it completes; and `pending`,
    the constraints (filled slots, open slots) that still have two or more
    open slots once it is filled. Derived per case: `disjoint`, the most slots
    joined pairwise by 2-slot constraints, whose non-faces are pairwise
    disjoint in every configuration of the case; `closing`, per constraint
    the penultimate slot completes (each ends at the last slot), its slots
    before the penultimate one; and `last_ordered`, whether the last slot
    follows the penultimate one in the slot order.
    """

    def __init__(self, level, case, size, constraints, slot_order, xi_slots):
        self.level, self.case, self.size = level, case, size
        self.constraints, self.slot_order, self.xi_slots = constraints, slot_order, xi_slots
        slots = range(1, size + 1)
        self.later = [[j - 1 for i, j in slot_order if i == s] for s in slots]
        self.completes = [
            [(c[-1] - 1, tuple(p - 1 for p in c[:-1])) for c in constraints if c[-2] == s]
            for s in slots
        ]
        self.pending = [
            [(tuple(p - 1 for p in c if p <= s), tuple(p - 1 for p in c if p > s))
             for c in constraints if c[-2] > s]
            for s in slots
        ]
        self.closing = [others[:-1] for _, others in self.completes[size - 2]] if size > 1 else []
        self.last_ordered = (size - 1, size) in slot_order
        pairs = {c for c in constraints if len(c) == 2}
        self.disjoint = max(
            n for n in slots for t in combinations(slots, n)
            if all(p in pairs for p in combinations(t, 2))
        )


# Every configuration case by (level, case), in scan order: levels
# ascending and, within a level, ascending tuple size for early exit.
_CONFIGURATIONS: dict[tuple[int, int], _Configuration] = {(c.level, c.case): c for c in (
    _Configuration(1, 1, 1, (), (), (0,)),
    _Configuration(2, 2, 2, ((1, 2),), ((1, 2),), (0, 0, 1)),
    _Configuration(2, 1, 3, ((1, 2, 3),), ((1, 2), (1, 3), (2, 3)), (0, 1, 2)),
    _Configuration(3, 5, 3, ((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3)),
                   (0, 0, 1, 0, 1, 2, 0)),
    _Configuration(3, 4, 4, ((1, 2), (1, 3), (1, 4), (2, 3, 4)), ((2, 3), (2, 4), (3, 4)),
                   (0, 0, 1, 0, 2, 3, 0)),
    _Configuration(3, 3, 5, ((1, 2), (1, 5), (1, 3, 4), (2, 3, 5), (2, 4, 5)),
                   ((2, 5), (3, 4)), (0, 0, 1, 4, 4, 2, 3)),
    _Configuration(3, 2, 6, ((1, 3), (1, 2, 4), (1, 2, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6),
                             (3, 4, 5)),
                   ((2, 4), (2, 5), (2, 6), (4, 5)), (0, 0, 2, 1, 3, 4, 5)),
    _Configuration(3, 1, 7, ((1, 2, 4), (1, 3, 5), (1, 6, 7), (2, 3, 6), (2, 5, 7), (3, 4, 7),
                             (4, 5, 6)),
                   ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5),
                    (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)),
                   (0, 1, 3, 2, 4, 5, 6)),
)}


def _first_configurations(
    nonsimp: Sequence[int], containing: Sequence[int], top: int
) -> Iterator[CriterionWitness]:
    """The first configuration of each level 1, 2, ..., top in turn, up to
    the first level that has none. A level's first configuration is found
    in its first record, in _CONFIGURATIONS order, that has one, as the
    lexicographically first ordered tuple of distinct non-face indices
    satisfying the record's constraints. Bit i of `containing[v]` says
    whether non-face i has vertex v (SimplicialComplex.nonface_incidence).

    Each open slot keeps its candidate indices as a bitset. Filling a slot
    removes, from every later slot it precedes in the slot order, the
    indices up to its own, and from the last slot of every constraint whose
    other slots are now all filled, the non-faces meeting their
    intersection: the complement of the OR of `containing` over its
    vertices, cached per intersection. The penultimate slot is filled in
    one flat loop: every constraint it completes ends at the last slot, so
    per candidate the last slot's domain is cut in place, and its lowest
    unused index, if any, completes the tuple. A branch is cut as soon as
    such a constraint leaves its last slot no unused candidate, or as soon
    as a constraint with two or more open slots has a vertex common to its
    filled slots (any vertex when none is filled) that every unused
    candidate of its open slots contains: that vertex would stay in the
    intersection. A record is skipped when its `disjoint` smallest
    non-faces have more vertices in total than all non-faces cover, since
    then no `disjoint` of them are pairwise disjoint.

    Candidates are tried lowest index first, and every cut removes only
    tuples that fail a constraint or the slot order, or branches and
    records with no matching tuple at all, so the search returns the same
    first tuple as a plain scan over all ordered tuples.
    """
    n = len(nonsimp)
    everything = (1 << n) - 1
    union = 0
    for w in nonsimp:
        union |= w
    room = union.bit_count()
    smallest = sorted(w.bit_count() for w in nonsimp)
    disjoint_cache: dict[int, int] = {}  # mask -> the non-faces disjoint from it

    def disjoint_from(mask: int) -> int:
        meeting = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            meeting |= containing[low.bit_length() - 1]
        r = disjoint_cache[mask] = everything & ~meeting
        return r

    matched = 0  # the level of the last match
    for conf in _CONFIGURATIONS.values():
        if conf.level > min(matched + 1, top):
            return
        if conf.level == matched or n < conf.size or sum(smallest[:conf.disjoint]) > room:
            continue
        size, later, completes, pending = conf.size, conf.later, conf.completes, conf.pending
        penultimate, closing, ordered = size - 2, conf.closing, conf.last_ordered
        chosen = [0] * size

        def stuck(slot: int, nxt: list[int], now: int) -> bool:
            for filled, open_slots in pending[slot]:
                rest = 0
                for j in open_slots:
                    rest |= nxt[j]
                rest &= ~now
                if not rest:
                    return True
                # a vertex in every candidate is in the first one
                inter = nonsimp[(rest & -rest).bit_length() - 1]
                for p in filled:
                    inter &= chosen[p]
                while inter:
                    low = inter & -inter
                    inter ^= low
                    if not rest & ~containing[low.bit_length() - 1]:
                        return True
            return False

        def place(slot: int, used: int, domains: list[int]) -> bool:
            cand = domains[slot] & ~used
            if slot == penultimate:
                last = domains[slot + 1] & ~used
                # per closing constraint, the intersection of its slots
                # before this one (all vertices when it has none)
                fixed = []
                for others in closing:
                    inter = -1
                    for p in others:
                        inter &= chosen[p]
                    fixed.append(inter)
                while cand:
                    low = cand & -cand
                    cand ^= low
                    if ordered:
                        dom = last & -(low << 1)  # the indices above this one
                        if not dom:
                            return False  # and none above a later candidate
                    else:
                        dom = last & ~low
                    w = nonsimp[low.bit_length() - 1]
                    for inter in fixed:
                        inter &= w
                        apart = disjoint_cache.get(inter)
                        dom &= disjoint_from(inter) if apart is None else apart
                    if dom:
                        chosen[slot] = w
                        chosen[slot + 1] = nonsimp[(dom & -dom).bit_length() - 1]
                        return True
                return False
            while cand:
                low = cand & -cand
                cand ^= low
                chosen[slot] = nonsimp[low.bit_length() - 1]
                if slot + 1 == size:
                    return True
                now = used | low
                nxt = list(domains)
                for j in later[slot]:
                    nxt[j] &= -(low << 1)  # the indices above this one
                for j, others in completes[slot]:
                    inter = chosen[others[0]]
                    for p in others[1:]:
                        inter &= chosen[p]
                    apart = disjoint_cache.get(inter)
                    nxt[j] &= disjoint_from(inter) if apart is None else apart
                    if not nxt[j] & ~now:
                        break
                else:
                    if pending[slot] and stuck(slot, nxt, now):
                        continue
                    if place(slot + 1, now, nxt):
                        return True
            return False

        found = place(0, 0, [everything] * size)
        del place  # a recursive closure holds itself: free it without gc
        if found:
            yield CriterionWitness(conf.level, conf.case, tuple(chosen))
            matched = conf.level


def check_criteria(K: SimplicialComplex) -> tuple[int, Optional[CriterionWitness]]:
    """Largest level r in 0..3 whose non-face configuration is present,
    with the first configuration of that level.

    Levels are scanned in ascending order, up to the first one without a
    match. Level 1 is any non-face; level 2 a disjoint pair or a triple
    with empty common intersection; level 3 one of five configurations.
    For r <= 3, level >= r iff s_R(K) >= r iff s(K) >= r. So a level-r
    configuration gives s(K) >= r, and s(K) <= m - dim - 1: levels above
    m - dim - 1 are not scanned, as bound to fail.
    """
    level, found = 0, None
    top = min(3, K.m - K.dimension - 1)
    for found in _first_configurations(K.minimal_nonsimplices(), K.nonface_incidence(), top):
        level = found.level
    return level, found


# ---------------------------------------------------------------------------
# lower bounds


@dataclass
class CoverBound:
    """Best value of m - sum |w_i| + l over non-face selections covering all
    vertices; 0 with coverable=False when the non-faces cannot cover."""

    value: int
    cover: tuple[int, ...]
    coverable: bool
    heuristic: bool


def _greedy_cover(nonsimp: Sequence[int], m: int, containing: Sequence[int]) -> list[int]:
    """Indices picked, in order, by repeatedly taking the non-face with the
    least cost |w| - 1 per newly covered vertex; ratios are compared by
    cross-multiplication, and equal ratios go to the lower index. A picked
    non-face covers no new vertex, so it is never a candidate again. The
    non-faces are nonempty; bit i of `containing[v]` says whether non-face
    i has vertex v.

    No ratio is below (s - 1) / s, s the least |w|, and only a non-face of
    size s disjoint from the covered set reaches it: a non-face covers at
    most |w| new vertices, and (|w| - 1) / |w| grows with |w|. So when such
    a non-face exists, the pick is the lowest-indexed one, read as the
    lowest bit of the size-s class outside the non-faces that meet the
    covered set; only otherwise is every candidate's ratio compared.

    Raises ValueError when the non-faces do not cover all m vertices.
    """
    full = full_mask(m)
    # one byte per non-face, last first: its size, then the binary digit
    # saying whether that size is the least; the digits read as the bitset
    sizes = bytes(map(int.bit_count, reversed(nonsimp)))
    least = min(sizes)
    digits = bytearray(b"0" * 256)
    digits[least] = ord("1")
    cheapest = int(sizes.translate(digits), 2)  # the non-faces of size `least`
    covered = meeting = 0  # meeting: the non-faces that meet `covered`
    picked: list[int] = []
    while covered != full:
        fresh = cheapest & ~meeting
        if fresh:
            best_idx = (fresh & -fresh).bit_length() - 1
        else:
            best_idx = -1
            best_cost, best_new = 0, 0
            for idx, w in enumerate(nonsimp):
                new = (w & ~covered).bit_count()
                if new == 0:
                    continue
                cost = w.bit_count() - 1
                if best_idx < 0 or cost * best_new < best_cost * new:
                    best_idx, best_cost, best_new = idx, cost, new
            if best_idx < 0:
                raise ValueError("the non-faces do not cover every vertex")
        picked.append(best_idx)
        new = nonsimp[best_idx] & ~covered
        covered |= new
        while new:
            low = new & -new
            new ^= low
            meeting |= containing[low.bit_length() - 1]
    return picked


def cover_lower_bound(K: SimplicialComplex) -> CoverBound:
    """Branch-and-bound weighted cover over the minimal non-faces.

    Maximizing m - sum |w_i| + l is minimizing sum (|w_i| - 1) subject to
    covering every vertex; branching is on the lowest uncovered vertex with
    candidates in canonical order. The greedy cover is the first incumbent
    and only a strictly cheaper cover replaces it, so an optimal greedy
    cover is the one returned, even where another optimal cover comes first
    in the branching order; otherwise it is the first optimal cover in that
    order. Above COVER_SEARCH_GUARD non-faces the search is skipped and the
    greedy cover is returned, marked heuristic.
    """
    nonsimp = K.minimal_nonsimplices()
    m = K.m
    full = full_mask(m)
    containing = K.nonface_incidence()
    if not all(containing):  # a vertex in no non-face
        return CoverBound(0, (), False, False)
    if len(nonsimp) > COVER_SEARCH_GUARD:
        picked = _greedy_cover(nonsimp, m, containing)
        cost = sum(nonsimp[i].bit_count() - 1 for i in picked)
        return CoverBound(m - cost, tuple(sorted(nonsimp[i] for i in picked)), True, True)
    costs = [w.bit_count() - 1 for w in nonsimp]
    # cheapest possible cost per newly covered vertex, rn / rd: (s - 1) / s
    # for the least |w| = s, as (|w| - 1) / |w| grows with |w|
    rd = min(w.bit_count() for w in nonsimp)
    rn = rd - 1
    greedy = _greedy_cover(nonsimp, m, containing)
    best_cost = sum(costs[i] for i in greedy)
    best_sel = list(greedy)

    def dfs(covered: int, cost: int, chosen: list[int]) -> None:
        nonlocal best_cost, best_sel
        if covered == full:
            if cost < best_cost:
                best_cost = cost
                best_sel = list(chosen)
            return
        uncov = (full & ~covered).bit_count()
        # each set covers <= |w| new vertices at cost |w| - 1
        lower = -(-uncov * rn // rd)
        if cost + lower >= best_cost:
            return
        v = ((full & ~covered) & -(full & ~covered)).bit_length() - 1
        cand = containing[v]
        while cand:
            low = cand & -cand
            cand ^= low
            idx = low.bit_length() - 1
            chosen.append(idx)
            dfs(covered | nonsimp[idx], cost + costs[idx], chosen)
            chosen.pop()

    dfs(0, 0, [])
    del dfs  # a recursive closure holds itself: free it without gc
    return CoverBound(m - best_cost, tuple(sorted(nonsimp[i] for i in best_sel)), True, False)


def chromatic_number(K: SimplicialComplex) -> int:
    """Exact chromatic number of a complex of dimension <= 1, its graph
    read off N(K) by _skeleton_chromatic; ghost vertices are not colored."""
    if K.dimension > 1:
        raise ValueError("chromatic number is defined here only for dim <= 1")
    return _skeleton_chromatic(K)


def _skeleton_chromatic(K: SimplicialComplex) -> int:
    """Chromatic number of the 1-skeleton of K, read off N(K): the face
    vertices are those in no 1-element non-face, and two of them are
    adjacent unless they form a 2-element minimal non-face. This is the
    one 1-skeleton reader behind every chromatic number in the package."""
    nonsimp = K.minimal_nonsimplices()
    ghosts = 0
    for w in nonsimp:
        if w.bit_count() == 1:
            ghosts |= w
    face = full_mask(K.m) & ~ghosts
    adj = [face & ~(1 << v) for v in range(K.m)]
    for w in nonsimp:
        if w.bit_count() == 2:
            adj[(w & -w).bit_length() - 1] &= ~w
            adj[w.bit_length() - 1] &= ~w
    return _color_count([v for v in range(K.m) if face >> v & 1], adj)


def _color_count(verts: Sequence[int], adj: Sequence[int]) -> int:
    """Exact chromatic number of the graph on the 0-based `verts` whose
    neighbours of v are the bitset adj[v]: the least c, counting up from the
    size of a clique taken greedily in descending-degree order, that
    _colorable accepts with the vertices in that order."""
    order = sorted(verts, key=lambda v: (-adj[v].bit_count(), v))
    clique = 0
    for v in order:
        if not clique & ~adj[v]:
            clique |= 1 << v
    c = clique.bit_count()
    while not _colorable(order, adj, c):
        c += 1
    return c


def _colorable(order: Sequence[int], adj: Sequence[int], c: int) -> bool:
    """Whether the graph on the 0-based vertices `order`, neighbours of v
    the bitset adj[v], has a proper coloring with c colors.

    Plain backtracking over `order`. Each color class is a vertex bitset,
    open to v iff it misses adj[v], and a vertex opens at most one new
    class, so no coloring is tried twice under a renaming of its colors.
    """
    n = len(order)
    classes = [0] * c

    def solve(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        bit, neigh = 1 << v, adj[v]
        for k in range(min(used + 1, c)):
            if not classes[k] & neigh:
                classes[k] |= bit
                if solve(pos + 1, max(used, k + 1)):
                    return True
                classes[k] ^= bit
        return False

    found = solve(0, 0)
    del solve  # a recursive closure holds itself: free it without gc
    return found


def ayzenberg_s(K: SimplicialComplex) -> int:
    """Exact invariant of a graph complex: m - ceil(log2(gamma + 1)).

    Extends to the edgeless (gamma = 1) and empty (gamma = 0) cases, where
    the formula still matches the search value.
    """
    if K.dimension > 1:
        raise ValueError("graph formula needs a complex of dimension <= 1")
    gamma = chromatic_number(K)
    return K.m - gamma.bit_length()


# ---------------------------------------------------------------------------
# report


@dataclass
class InvariantReport:
    m: int
    dim: int
    num_min_nonsimplices: int
    is_flag: bool
    ghost_vertices: tuple[int, ...]
    upper_bound: int
    criteria_level: int
    criterion_witness: Optional[CriterionWitness]
    cover: CoverBound
    graph_chromatic: Optional[int]
    ayzenberg_value: Optional[int]
    chromatic_bound: Optional[int]
    s_real_lower: int
    s_real_upper: int
    s_real_exact: bool
    s_real_searched: int
    xi_witness: Optional[XiWitness]
    matrix_rows: Optional[list[int]]
    s_lower: int
    s_upper: int
    s_exact: bool
    warnings: tuple[str, ...]

    @property
    def s_value(self) -> Optional[int]:
        return self.s_lower if self.s_exact else None

    @property
    def s_real_value(self) -> Optional[int]:
        return self.s_real_lower if self.s_real_exact else None


def analyze(
    K: SimplicialComplex,
    *,
    polytopal: bool = False,
    max_k: int = SREAL_DEFAULT_MAX_K,
    threads: int = 1,
    node_budget: int = SCAN_DEFAULT_CANDIDATE_BUDGET,
) -> InvariantReport:
    """Full report: bounds, criteria level, exact values where determined,
    and the witnesses backing them. The criteria run first and decide
    ranks 1..3 of the xi climb of s_real; the witness at those ranks is read
    off the matched configuration's record, without a search, and the
    subspace scan decides higher ranks up to max_k and under node_budget,
    as in s_real.
    `threads` is accepted and has no effect."""
    _check_threads(threads)
    nonsimp = K.minimal_nonsimplices()
    dim = K.dimension
    ub = K.m - dim - 1
    level, crit_w = check_criteria(K)
    sr = _climb(K, (level, crit_w), max_k, node_budget)
    cover = cover_lower_bound(K)
    warnings: list[str] = []
    ghosts = tuple(K.ghost_vertices())
    if ghosts:
        warnings.append(
            "ghost vertices (not faces): " + ", ".join(map(str, ghosts))
        )
    if cover.heuristic:
        warnings.append("cover bound is greedy (non-face count above search guard)")
    gamma = ayz = chrom_bound = None
    if dim <= 1 or polytopal:
        # gamma of the 1-skeleton, which at dim <= 1 is K itself
        skeleton_gamma = _skeleton_chromatic(K)
        if dim <= 1:
            gamma = skeleton_gamma
            ayz = K.m - gamma.bit_length()
        if polytopal:
            chrom_bound = K.m - skeleton_gamma
    s_lower = max(level, cover.value)
    if chrom_bound is not None:
        s_lower = max(s_lower, chrom_bound)
    if ayz is not None:
        # graph formula is exact
        s_lower = s_upper = ayz
    else:
        s_upper = sr.upper
        if sr.exact and sr.lower <= 3:
            # at or below rank 3 the real and integral invariants agree
            s_lower = s_upper = sr.lower
    # the integral invariant never exceeds the real one
    sr_lower = max(sr.lower, s_lower)
    sr_exact = sr.exact or sr_lower == sr.upper
    if sr_lower > sr.lower:
        warnings.append(
            "real invariant lower bound tightened by integral bounds; "
            f"witnesses certify rank {sr.lower}"
        )
    if not sr_exact:
        warnings.append(
            f"search guard stopped at k={sr.lower}; real invariant reported as interval"
        )
    return InvariantReport(
        m=K.m,
        dim=dim,
        num_min_nonsimplices=len(nonsimp),
        is_flag=K.is_flag(),
        ghost_vertices=ghosts,
        upper_bound=ub,
        criteria_level=level,
        criterion_witness=crit_w,
        cover=cover,
        graph_chromatic=gamma,
        ayzenberg_value=ayz,
        chromatic_bound=chrom_bound,
        s_real_lower=sr_lower,
        s_real_upper=sr.upper,
        s_real_exact=sr_exact,
        s_real_searched=sr.lower,
        xi_witness=sr.xi_witness,
        matrix_rows=sr.matrix_rows,
        s_lower=s_lower,
        s_upper=s_upper,
        s_exact=s_lower == s_upper,
        warnings=tuple(warnings),
    )


def oracle_check(K: SimplicialComplex, k: int) -> dict:
    """Side-by-side xi search, matrix-scan oracle (when tractable) and the
    level criteria at rank k, with an agreement verdict."""
    xi = xi_search(K, k, allow_large=True) is not None
    if K.m * k <= MATRIX_SCAN_BIT_LIMIT:
        mat = matrix_search(K, k) is not None
    else:
        mat = None
    crit = check_criteria(K)[0] >= k if k <= 3 else None
    votes = [v for v in (xi, mat, crit) if v is not None]
    return {
        "k": k,
        "xi": xi,
        "matrix": mat,
        "criteria": crit,
        "agree": all(v == votes[0] for v in votes),
    }
