"""Verifier-output guard: the outputs of verify_S_detailed, dual_lambda,
verify_Lambda_detailed and verify_nonsimplex_condition in both rings, on a
fixed generator-built set of matrices, hash to one pinned SHA-256. A change
to how the verifiers read a facet's rows or columns keeps every verdict,
every failing facet and every dual row, so it keeps this test passing.

The matrices are the lifted witnesses of each complex's analysis at every
rank 1..k (over GF(2) and as 0/1 integer rows), plus seeded random GF(2)
matrices and integer matrices with entries in [-3, 3] at ranks 0..4, and
random dual-shaped matrices fed to verify_Lambda_detailed directly.
"""

import hashlib

from buchstaber.complexes import SimplicialComplex
from buchstaber.generators import (
    Lcg,
    boundary_simplex,
    complete_graph,
    cycle,
    cyclic_polytope_boundary,
    join,
    points,
    random_complex,
    simplex,
    skeleton,
)
from buchstaber.invariant import (
    GF2,
    INT,
    XiWitness,
    analyze,
    dual_lambda,
    verify_Lambda_detailed,
    verify_nonsimplex_condition,
    verify_S_detailed,
    xi_to_matrix,
)

VERIFIER_OUTPUTS_SHA256 = "62191910fe10437589adb0f272746931257ea9309701396f8ca31d2e03947718"

ENTRY_RANGE = 3


def complexes():
    """Named complexes (ghost vertices and the empty facet among them),
    cyclic polytopes and seeded random complexes on 5..10 vertices."""
    named = [
        simplex(3), boundary_simplex(4), skeleton(5, 1), skeleton(6, 2), cycle(5), cycle(7),
        points(4), complete_graph(5), join(cycle(4), points(2)), join(cycle(5), boundary_simplex(2)),
        SimplicialComplex.from_facets(3, []),
        SimplicialComplex.from_facets(5, [[1, 2], [2, 3]]),
        SimplicialComplex.from_facets(6, [[1, 2, 3], [3, 4]]),
    ]
    named += [cyclic_polytope_boundary(n, m) for n, m in [(3, 6), (4, 7), (4, 8), (5, 8)]]
    named += [random_complex(5 + seed % 6, seed, 1 + seed % 2, 2 + seed % 2, seed % 3) for seed in range(30)]
    return named


def lift(rows, k):
    return [[r >> j & 1 for j in range(k)] for r in rows]


def matrices(K, rng):
    """(rows, k, ring) candidates for K: lifted witnesses, then random ones."""
    out = []
    w = analyze(K, max_k=4).xi_witness
    if w is not None:
        for k in range(1, w.k + 1):
            rows = xi_to_matrix(K, XiWitness(k, {a: om for a, om in w.assignment.items() if a < 1 << k}))
            out += [(rows, k, GF2), (lift(rows, k), k, INT)]
    for k in range(min(K.m, 4) + 1):
        out.append(([rng.below(1 << k) for _ in range(K.m)], k, GF2))
        out.append(([[rng.below(2 * ENTRY_RANGE + 1) - ENTRY_RANGE for _ in range(k)] for _ in range(K.m)], k, INT))
    return out


def dual_shaped(K, rng):
    """Random (r x m) matrices for verify_Lambda_detailed, r = 1..3."""
    out = []
    for r in range(1, min(K.m, 3) + 1):
        out.append(([rng.below(1 << K.m) for _ in range(r)], GF2))
        out.append(([[rng.below(2 * ENTRY_RANGE + 1) - ENTRY_RANGE for _ in range(K.m)] for _ in range(r)], INT))
    return out


def outputs():
    rng = Lcg(20)
    for K in complexes():
        for rows, k, ring in matrices(K, rng):
            yield "S", verify_S_detailed(K, rows, k, ring)
            try:
                dual = dual_lambda(rows, K.m, k, ring)
            except ValueError as exc:
                yield "dual", str(exc)
            else:
                yield "dual", dual
                yield "Lambda", verify_Lambda_detailed(K, dual, ring)
            yield "nonsimplex", verify_nonsimplex_condition(K, rows, k, ring)
        for rows, ring in dual_shaped(K, rng):
            yield "Lambda", verify_Lambda_detailed(K, rows, ring)


def test_verifier_outputs_are_pinned():
    digest = hashlib.sha256()
    for name, value in outputs():
        digest.update(f"{name} {value!r}\n".encode())
    assert digest.hexdigest() == VERIFIER_OUTPUTS_SHA256
