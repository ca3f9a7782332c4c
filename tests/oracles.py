"""Reference oracles that only the tests use.

`odd_circuits` enumerates the minimal odd linear dependencies of Z_2^k, the
definition a xi witness is checked against; the package's `validate_xi`
decides the same question by per-vertex affine systems instead.
`least_solution_rows` solves those systems by scanning every candidate row,
the reference for `xi_to_matrix`. `edge_facet_chromatic` reads a graph off
its edge facets and colors it by `chromatic_by_subsets`, a DP over vertex
subsets; the package reads the 1-skeleton off N(K) and colors it by
backtracking instead.
"""

from functools import cache
from itertools import combinations

CIRCUIT_MAX_DIM = 8


@cache
def odd_circuits(k: int) -> tuple[tuple[int, ...], ...]:
    """All minimal odd linear dependencies among the nonzero vectors of Z_2^k.

    Each circuit is an ascending tuple of vector masks: the members sum to
    zero, have odd cardinality >= 3, and every proper subset is linearly
    independent. Ordered by (size, members). A circuit of size t spans a
    (t-1)-dimensional space, so t <= k+1; enumeration picks the t-1 smallest
    members (independent, increasing) and closes with their sum. The count
    grows fast (4.1 M circuits at k = 6), so validate_xi solves per-vertex
    affine systems instead; this is its reference at small k.
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


def least_solution_rows(m: int, k: int, assignment: dict[int, int]) -> list:
    """Per vertex x < m, the least y < 2^k with <a, y> = 1 for every vector
    a whose image assignment[a] holds x, or None when there is none; found
    by trying every y in ascending order."""
    rows = []
    for x in range(m):
        vectors = [a for a, image in assignment.items() if image >> x & 1]
        rows.append(next(
            (y for y in range(1 << k) if all((a & y).bit_count() & 1 for a in vectors)),
            None,
        ))
    return rows


def chromatic_by_subsets(verts, adj):
    """Fewest independent sets covering `verts`, by a DP over vertex subsets."""
    full = sum(1 << v for v in verts)
    best = {0: 0}
    for S in range(1, full + 1):
        if S & ~full:
            continue
        low = S & -S
        rest = S ^ low
        sub, fewest = rest, None
        while True:  # every independent I in S holding S's lowest vertex
            I = sub | low
            if all(not adj[v] & I for v in verts if I >> v & 1):
                n = best[S ^ I] + 1
                fewest = n if fewest is None else min(fewest, n)
            if not sub:
                break
            sub = (sub - 1) & rest
        best[S] = fewest
    return best[full]


def edge_facet_chromatic(G) -> int:
    """Chromatic number of the complex G of dimension <= 1: its vertices are
    those in some facet, its edges its 2-element facets."""
    adj = [0] * G.m
    verts = set()
    for f in G.facets:
        ends = [v for v in range(G.m) if f >> v & 1]
        verts.update(ends)
        if len(ends) == 2:
            a, b = ends
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return chromatic_by_subsets(sorted(verts), adj)
