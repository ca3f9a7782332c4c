"""Report-bytes guard: the JSON reports of a fixed generator-built corpus
hash to one pinned SHA-256, so a refactor that keeps every answer and every
witness keeps this test passing. A change that alters a reported witness on
purpose updates the hash and names the changed field."""

import hashlib

from buchstaber.formats import report_to_json
from buchstaber.generators import (
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
from buchstaber.invariant import analyze

REPORTS_SHA256 = "10d499237a74d8059b3165683f4d6502392ac20b8ec6e91d3d378669e7660a9d"
POLYTOPAL_REPORTS_SHA256 = "c8f7e370e5d2a2a278b0262eb11f9d3e3843c39ef61e6eb419beb6ccd39e17ea"


def corpus():
    """(complex, polytopal) pairs: named complexes, cyclic polytopes
    analysed as polytopal, and seeded random complexes on 5..10 vertices."""
    named = [
        simplex(3), boundary_simplex(4), skeleton(5, 1), skeleton(6, 2), cycle(5), cycle(7),
        points(4), complete_graph(5), join(cycle(4), points(2)), join(cycle(5), boundary_simplex(2)),
    ]
    out = [(K, False) for K in named]
    for n, m in [(3, 6), (3, 7), (4, 7), (4, 8), (5, 8), (3, 9)]:
        out.append((cyclic_polytope_boundary(n, m), True))
    for seed in range(40):
        out.append((random_complex(5 + seed % 6, seed, 1 + seed % 2, 2 + seed % 2, seed % 3), False))
    return out


def test_report_json_bytes_are_pinned():
    digest = hashlib.sha256()
    for K, polytopal in corpus():
        digest.update(report_to_json(analyze(K, polytopal=polytopal)).encode())
    assert digest.hexdigest() == REPORTS_SHA256


def polytopal_corpus():
    """Complexes analysed polytopal at max_k=3 whose 1-skeleton is mostly
    complete: C^n(m) for m = 10..16 (neighbourly for n >= 4, C^3(m) not),
    join(bd D^4, bd D^4, bd D^4), join(C6, bd D^3) and the 2-skeleta of
    D^9 and D^11."""
    out = [cyclic_polytope_boundary(n, m) for m in range(10, 17) for n in range(3, 8)]
    out.append(join(join(boundary_simplex(4), boundary_simplex(4)), boundary_simplex(4)))
    out.append(join(cycle(6), boundary_simplex(3)))
    out += [skeleton(9, 2), skeleton(11, 2)]
    return out


def test_polytopal_report_json_bytes_are_pinned():
    digest = hashlib.sha256()
    for K in polytopal_corpus():
        digest.update(report_to_json(analyze(K, polytopal=True, max_k=3)).encode())
    assert digest.hexdigest() == POLYTOPAL_REPORTS_SHA256
