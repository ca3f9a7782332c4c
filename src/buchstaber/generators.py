"""Constructors for the complex corpus: simplices, boundaries, skeleta,
cycles, graphs, joins, cyclic polytope boundaries and seeded random complexes.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .complexes import MAX_VERTICES, SimplicialComplex, check_vertex_count

# Most facets skeleton, cyclic_polytope_boundary and join build; a larger
# count, known in closed form beforehand, is refused before any facet is
# built. The largest generator calls in the tests build C(20, 4) = 4 845.
MAX_FACETS = 1 << 20


def check_facet_count(count: int, what: str) -> None:
    if count > MAX_FACETS:
        raise ValueError(f"{what} has {count} facets, limit is {MAX_FACETS}")


def simplex(n: int) -> SimplicialComplex:
    """The full simplex on n+1 vertices."""
    if n < 0:
        raise ValueError("simplex dimension must be >= 0")
    return SimplicialComplex(n + 1, [(1 << (n + 1)) - 1])


def boundary_simplex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex: all n-subsets of its n+1 vertices."""
    if n < 1:
        raise ValueError("boundary needs dimension >= 1")
    m = n + 1
    full = (1 << m) - 1
    return SimplicialComplex(m, [full ^ (1 << v) for v in range(m)])


def skeleton(n: int, k: int) -> SimplicialComplex:
    """k-skeleton of the n-simplex: all (k+1)-subsets of n+1 vertices."""
    if not 0 <= k <= n:
        raise ValueError("skeleton needs 0 <= k <= n")
    m = n + 1
    check_facet_count(comb(m, k + 1), f"the {k}-skeleton of the {n}-simplex")
    facets = []
    for combo in combinations(range(m), k + 1):
        mask = 0
        for v in combo:
            mask |= 1 << v
        facets.append(mask)
    return SimplicialComplex(m, facets)


def cycle(m: int) -> SimplicialComplex:
    """The m-cycle graph complex (m >= 3)."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    facets = [(1 << i) | (1 << ((i + 1) % m)) for i in range(m)]
    return SimplicialComplex(m, facets)


def points(m: int) -> SimplicialComplex:
    """m isolated vertices."""
    return SimplicialComplex(m, [1 << i for i in range(m)])


def complete_graph(m: int) -> SimplicialComplex:
    """The complete graph on m vertices as a 1-dimensional complex."""
    if m < 2:
        raise ValueError("a complete graph needs at least 2 vertices")
    facets = [(1 << i) | (1 << j) for i, j in combinations(range(m), 2)]
    return SimplicialComplex(m, facets)


def cyclic_polytope_boundary(n: int, m: int) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope C^n(m) by Gale's evenness rule.

    An n-subset of [m] is a facet iff every two vertices outside it are
    separated by an even number of its elements. Read along 1..m, such a
    subset is an initial run 1..a, then interior runs of even length kept
    apart by outside vertices, then a final run m-b+1..m (a, b >= 0). Each
    facet is built once from its (a, b) and the t = (n-a-b)/2 dominoes
    {v, v+1} that tile its interior runs; the dominoes lie in a+2..m-b-1,
    and t of them fit there in C(m-a-b-2-t, t) ways, chosen as t slots of
    that many. The cost follows cyclic_facet_count(n, m).
    """
    if not 2 <= n < m:
        raise ValueError("cyclic polytope needs 2 <= n < m")
    check_vertex_count(m)
    check_facet_count(cyclic_facet_count(n, m), f"C^{n}({m})")
    facets = []
    for a in range(n + 1):
        for b in range(n - a, -1, -2):
            ends = (1 << a) - 1 | ((1 << b) - 1) << (m - b)
            t = (n - a - b) // 2
            # domino j in slot c covers the bits a+1+c+j and a+2+c+j
            for slots in combinations(range(m - a - b - 2 - t), t):
                mask = ends
                for j, c in enumerate(slots):
                    mask |= 3 << (a + 1 + c + j)
                facets.append(mask)
    return SimplicialComplex(m, facets)


def cyclic_facet_count(n: int, m: int) -> int:
    """The number of facets of C^n(m), 2 <= n < m: m/(m-d) * C(m-d, d)
    for n = 2d and 2 * C(m-d-1, d) for n = 2d+1."""
    d = n // 2
    if n % 2:
        return 2 * comb(m - d - 1, d)
    return m * comb(m - d, d) // (m - d)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes; the second factor is relabeled above the first."""
    m = K1.m + K2.m
    if m > MAX_VERTICES:
        raise ValueError(f"join would need {m} vertices, limit is {MAX_VERTICES}")
    check_facet_count(len(K1.facets) * len(K2.facets), "the join")
    facets = [f1 | (f2 << K1.m) for f1 in K1.facets for f2 in K2.facets]
    return SimplicialComplex(m, facets)


class Lcg:
    """Portable 64-bit linear congruential generator.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    output = top 32 bits. Fixed here so that seeded corpora are identical
    across platforms and Python versions.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u32(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state >> 32

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u32() % n


def random_complex(
    m: int,
    seed: int,
    p_num: int = 1,
    p_den: int = 2,
    extra_faces: int = 0,
) -> SimplicialComplex:
    """Seeded random complex: the flag complex of an Erdos-Renyi graph, with
    optional random higher faces glued on afterwards.

    The same arguments always produce the same complex (LCG-driven).
    """
    if not 1 <= m <= 16:
        raise ValueError("random complexes are limited to 1 <= m <= 16")
    if not 0 <= p_num <= p_den or p_den <= 0:
        raise ValueError("edge probability must satisfy 0 <= p_num/p_den <= 1")
    rng = Lcg(seed)
    non_edges = []
    for i, j in combinations(range(m), 2):
        if rng.below(p_den) >= p_num:
            non_edges.append((1 << i) | (1 << j))
    K = SimplicialComplex.from_min_nonsimplex_masks(m, non_edges)
    for _ in range(extra_faces):
        size = 3 + rng.below(max(1, min(m, 5) - 2))
        size = min(size, m)
        face = 0
        while face.bit_count() < size:
            face |= 1 << rng.below(m)
        K = SimplicialComplex(m, list(K.facets) + [face])
    return K
