"""Seeded inputs for the three benchmark workloads.

Each workload's input function is a pure function of its seed: the same seed gives the same
inputs. The program under test only ever sees the generated complex texts
and matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from buchstaber import formats, generators as gen
from buchstaber.complexes import SimplicialComplex
from buchstaber.generators import Lcg
from buchstaber.invariant import COVER_SEARCH_GUARD, XiWitness, analyze, xi_to_matrix

# -- sweep-small -------------------------------------------------------------

# Generated exactly like tests/conftest.py::build_random_corpus, so seed 0
# reproduces the 500-complex corpus the acceptance tests use.
SWEEP_SIZE = 500
SWEEP_PROBS = {5: (3, 5), 6: (3, 5), 7: (2, 3), 8: (7, 10)}
SWEEP_BASE = 9000
SWEEP_MAX_NONFACES = 12
SWEEP_MAX_K = 5

# A nonzero seed relabels the vertices of the members whose upper bound
# m - dim - 1 is at most this. Their xi climb stops by k=3, where the search
# is cheap whatever the labels. Members with a higher bound keep their
# generated labels: their k=4..5 backtracking swings from 0.06 s to 4.9 s
# with the labelling, and four of them carry most of the pass time, so
# relabelling them would make throughput a property of the seed.
RELABEL_MAX_UPPER_BOUND = 3

# -- polytopes-wide ------------------------------------------------------------

POLY_MAX_K = 3
# C^6(10), C^11(16) and join(C5, C5) are left out: they take 2-5 s each,
# so a run held only three samples of each and its figures swung with the
# machine's speed over a few seconds (NOTES.md, "Members left out").
CYCLIC = (
    (3, 9), (4, 9), (3, 10), (4, 10), (5, 10), (7, 10),
    (3, 12), (4, 12), (5, 12), (7, 12), (4, 13), (3, 14), (4, 14), (5, 14),
    (9, 14), (5, 16), (12, 14), (13, 15),
)
SKELETA = (9, 11, 13, 15)
# (m, p_num, p_den, glued faces, generator seeds) of the random members. The
# seed relabels those with at most COVER_SEARCH_GUARD non-faces: each takes
# 2-5 ms, so labels do not move throughput, and their recorded answers stay
# valid. Above the guard the cover bound is greedy and depends on the labels
# (random/16/16001 turns exact under some labellings), so those keep theirs.
RANDOM_FAMILIES = ((14, 3, 4, 2, (14001, 14002, 14003)), (16, 4, 5, 4, (16001, 16002, 16003)))

# -- verify-matrices -------------------------------------------------------------

# Every VERIFY_STRIDE-th sweep-small member: a fixed share of the corpus, so
# the mix of ranks and rings does not depend on the seed.
VERIFY_STRIDE = 3
VERIFY_MAX_K = 5
# Node budget of the set-up analysis that supplies the witnesses; it keeps
# set-up short on the few members whose k=5 search is heavy.
VERIFY_SETUP_BUDGET = 500
INT_ENTRY_RANGE = 3


@dataclass(frozen=True)
class Item:
    """One complex to analyse: `key` names it in the recorded answers."""

    key: str
    text: str
    polytopal: bool
    max_k: int


@dataclass(frozen=True)
class Candidate:
    """A matrix to check against a complex in one ring."""

    key: str
    K: SimplicialComplex
    rows: list
    k: int
    ring: str
    witness: bool


@dataclass
class VerifyInputs:
    candidates: list[Candidate]
    reports: dict  # complex key -> (complex, report of the set-up analysis)


def relabel(K: SimplicialComplex, rng: Lcg) -> SimplicialComplex:
    """K with its vertices permuted by a seeded uniform permutation."""
    perm = list(range(K.m))
    for i in range(K.m - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    facets = []
    for f in K.facets:
        g = 0
        for v in range(K.m):
            if f >> v & 1:
                g |= 1 << perm[v]
        facets.append(g)
    return SimplicialComplex(K.m, facets)


def sweep_corpus(size: int = SWEEP_SIZE) -> list[SimplicialComplex]:
    corpus = []
    seed = 0
    while len(corpus) < size:
        m = 5 + seed % 4
        p_num, p_den = SWEEP_PROBS[m]
        extra = 1 if seed % 3 == 0 else 0
        K = gen.random_complex(m, SWEEP_BASE + seed, p_num, p_den, extra)
        seed += 1
        if len(K.minimal_nonsimplices()) <= SWEEP_MAX_NONFACES:
            corpus.append(K)
    return corpus


def sweep_small(seed: int, size: int = SWEEP_SIZE) -> list[Item]:
    rng = Lcg(seed)
    items = []
    for i, K in enumerate(sweep_corpus(size)):
        if seed and K.m - K.dimension - 1 <= RELABEL_MAX_UPPER_BOUND:
            K = relabel(K, rng)
        items.append(Item(f"sweep/{i}", formats.complex_to_text(K), False, SWEEP_MAX_K))
    return items


def polytope_complexes() -> list[tuple[str, SimplicialComplex, bool]]:
    """The fixed members: (key, complex, polytopal)."""
    out = [
        (f"cyclic/{n}/{m}", gen.cyclic_polytope_boundary(n, m), True) for n, m in CYCLIC
    ]
    d4 = gen.boundary_simplex(4)
    out.append(("join/D4*D4*D4", gen.join(gen.join(d4, d4), d4), True))
    out.append(("join/C6*D3", gen.join(gen.cycle(6), gen.boundary_simplex(3)), True))
    out.extend((f"skeleton/{n}/2", gen.skeleton(n, 2), False) for n in SKELETA)
    return out


def random_members() -> list[tuple[str, SimplicialComplex]]:
    return [
        (f"random/{m}/{g}", gen.random_complex(m, g, p_num, p_den, extra))
        for m, p_num, p_den, extra, seeds in RANDOM_FAMILIES
        for g in seeds
    ]


def polytopes_wide(seed: int, size: int | None = None) -> list[Item]:
    members = polytope_complexes()
    rng = Lcg(seed)
    for key, K in random_members():
        if seed and len(K.minimal_nonsimplices()) <= COVER_SEARCH_GUARD:
            K = relabel(K, rng)
        members.append((key, K, False))
    if size is not None:
        members = members[:size]
    return [Item(key, formats.complex_to_text(K), poly, POLY_MAX_K) for key, K, poly in members]


def restrict_witness(w: XiWitness, k: int) -> XiWitness:
    """The rank-k xi mapping obtained by restricting w to Z_2^k: an odd
    circuit of the subspace is an odd circuit of the whole space."""
    return XiWitness(k, {a: om for a, om in w.assignment.items() if a < 1 << k})


def lift(rows: list[int], k: int) -> list[list[int]]:
    """GF(2) row masks as 0/1 integer rows."""
    return [[r >> j & 1 for j in range(k)] for r in rows]


def verify_matrices(seed: int, size: int | None = None) -> VerifyInputs:
    """Witness and random candidates against every VERIFY_STRIDE-th
    sweep-small complex (the first `size` of them when given).

    Per complex and per rank k up to its confirmed real invariant, four
    candidates: the lifted witness over GF(2) and over the integers, a
    random GF(2) matrix and a random integer matrix with entries in
    [-INT_ENTRY_RANGE, INT_ENTRY_RANGE].
    """
    items = sweep_small(seed)
    rng = Lcg(seed ^ 0x9E3779B97F4A7C15)
    candidates = []
    reports = {}
    for item in items[::VERIFY_STRIDE][:size]:
        K = formats.parse_complex_text(item.text)
        report = analyze(K, max_k=VERIFY_MAX_K, node_budget=VERIFY_SETUP_BUDGET)
        reports[item.key] = (K, report)
        w = report.xi_witness
        if w is None:
            continue
        for k in range(1, w.k + 1):
            rows = xi_to_matrix(K, restrict_witness(w, k))
            rand_gf2 = [rng.below(1 << k) for _ in range(K.m)]
            span = 2 * INT_ENTRY_RANGE + 1
            rand_int = [[rng.below(span) - INT_ENTRY_RANGE for _ in range(k)] for _ in range(K.m)]
            candidates += [
                Candidate(item.key, K, rows, k, "gf2", True),
                Candidate(item.key, K, lift(rows, k), k, "int", True),
                Candidate(item.key, K, rand_gf2, k, "gf2", False),
                Candidate(item.key, K, rand_int, k, "int", False),
            ]
    return VerifyInputs(candidates, reports)
