"""Shared corpora for the unit and acceptance suites.

The random corpus is fully seed-determined: LCG-driven generation over
5 <= m <= 8 with denser edge probabilities at larger m and every third
instance carrying an extra glued face, keeping only complexes with at most
12 minimal non-faces. No search needs that cap any more; it is kept so that
the corpus stays the one the acceptance tests and the benchmark's
sweep-small workload are built on.

`nonsimplex_condition_by_enumeration` is the integer non-face condition
from its definition, the oracle the verifier is checked against.

Every property test runs under one hypothesis profile: derandomized, so a
run draws the same examples each time, and without a per-example deadline,
so timing on a loaded host cannot fail it. Each test sets its own
max_examples.
"""

from itertools import combinations, product

import pytest
from hypothesis import settings

from buchstaber.complexes import SimplicialComplex
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

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

CORPUS_PROBS = {5: (3, 5), 6: (3, 5), 7: (2, 3), 8: (7, 10)}


def build_random_corpus(size=500):
    corpus = []
    seed = 0
    while len(corpus) < size:
        m = 5 + (seed % 4)
        p_num, p_den = CORPUS_PROBS[m]
        extra = 1 if seed % 3 == 0 else 0
        K = random_complex(m, 9000 + seed, p_num, p_den, extra)
        seed += 1
        if len(K.minimal_nonsimplices()) <= 12:
            corpus.append(K)
    return corpus


def build_census(max_m=4):
    """Every simplicial complex on m <= max_m labeled vertices: the nonempty
    antichains of subsets, taken as maximal-face families."""
    out = []
    for m in range(1, max_m + 1):
        subsets = list(range(1 << m))
        for fam_mask in range(1, 1 << (1 << m)):
            fam = [s for s in subsets if fam_mask >> s & 1]
            ok = True
            for a, b in combinations(fam, 2):
                if a & b == a or a & b == b:
                    ok = False
                    break
            if ok:
                out.append(SimplicialComplex(m, fam))
    return out


def build_named_corpus():
    named = [
        simplex(1),
        simplex(3),
        simplex(5),
        boundary_simplex(2),
        boundary_simplex(3),
        boundary_simplex(4),
        cycle(4),
        cycle(5),
        cycle(6),
        points(2),
        points(3),
        points(6),
        complete_graph(4),
        complete_graph(5),
        skeleton(4, 1),
        skeleton(4, 2),
        cyclic_polytope_boundary(2, 6),
        cyclic_polytope_boundary(3, 6),
        cyclic_polytope_boundary(3, 7),
        cyclic_polytope_boundary(4, 7),
        join(points(2), points(2)),
        join(boundary_simplex(2), boundary_simplex(2)),
        join(points(3), simplex(1)),
        SimplicialComplex.from_facets(3, []),
        SimplicialComplex.from_facets(4, [[1, 2]]),
    ]
    return named


def nonsimplex_condition_by_enumeration(K, rows, k, primes):
    """The integer non-face condition at the given primes, by enumeration:
    every projective point a of Z_p^k (first nonzero coordinate 1; scaling
    by a unit keeps which rows pair to nonzero) must pair to nonzero mod p
    with a set of rows that is no face, faces tested against the facets.
    About p^(k-1) vectors per prime, so only for small p and k."""
    for p in primes:
        for lead in range(k):
            for tail in product(range(p), repeat=k - lead - 1):
                a = (0,) * lead + (1,) + tail
                served = 0
                for i, row in enumerate(rows):
                    if sum(x * y for x, y in zip(a, row)) % p:
                        served |= 1 << i
                if any(served & ~f == 0 for f in K.facets):
                    return False
    return True


@pytest.fixture(scope="session")
def random_corpus():
    return build_random_corpus()


@pytest.fixture(scope="session")
def corpus_reports(random_corpus):
    return [analyze(K) for K in random_corpus]


@pytest.fixture(scope="session")
def census_complexes():
    return build_census()


@pytest.fixture(scope="session")
def named_corpus():
    return build_named_corpus()
