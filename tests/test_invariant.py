"""Freeness conditions, xi search, exact values, criteria, and bounds."""

import gc
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buchstaber import gf2, invariant, zlattice
from buchstaber.cli import main
from buchstaber.complexes import SimplicialComplex, face_mask, face_vertices, full_mask, incidence
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
from buchstaber.invariant import (
    _CONFIGURATIONS,
    COVER_SEARCH_GUARD,
    CoverBound,
    CriterionWitness,
    SearchBudgetExceeded,
    XiWitness,
    _first_configurations,
    _greedy_cover,
    analyze,
    ayzenberg_s,
    check_criteria,
    chromatic_number,
    cover_lower_bound,
    dual_lambda,
    matrix_search,
    oracle_check,
    s_real,
    validate_xi,
    verify_Lambda,
    verify_Lambda_detailed,
    verify_S,
    verify_S_detailed,
    verify_nonsimplex_condition,
    xi_search,
    xi_to_matrix,
)
from conftest import nonsimplex_condition_by_enumeration
from oracles import chromatic_by_subsets, edge_facet_chromatic, odd_circuits

S3 = [0b001, 0b010, 0b011]  # rows (1,0),(0,1),(1,1)
S3_INT = [[1, 0], [0, 1], [1, 1]]


def test_verify_S_examples():
    assert verify_S(points(3), S3, 2, "gf2")
    assert not verify_S(boundary_simplex(2), S3, 2, "gf2")
    assert verify_S(points(3), S3_INT, 2, "int")


def test_verify_S_detail_and_errors():
    ok, failing = verify_S_detailed(boundary_simplex(2), S3, 2, "gf2")
    assert not ok and face_vertices(failing) in ([1, 2], [1, 3], [2, 3])
    with pytest.raises(ValueError):
        verify_S(points(3), [1, 2], 2, "gf2")
    with pytest.raises(ValueError):
        verify_S(points(3), S3, 2, "rational")


def test_verify_S_k0_trivial():
    assert verify_S(simplex(3), [0, 0, 0, 0], 0, "gf2")
    assert verify_S(simplex(3), [[], [], [], []], 0, "int")


def test_verify_Lambda_examples():
    sq = cycle(4)
    assert verify_Lambda(sq, [0b0101, 0b1010], "gf2")
    assert not verify_Lambda(sq, [0b0011, 0b1100], "gf2")
    ok, failing = verify_Lambda_detailed(sq, [0b0011, 0b1100], "gf2")
    assert not ok and face_vertices(failing) == [1, 2]
    assert verify_Lambda(sq, [[1, 0, 1, 0], [0, 1, 0, 1]], "int")
    assert not verify_Lambda(sq, [[1, 1, 0, 0], [0, 0, 1, 1]], "int")


def test_verify_Lambda_zero_rows_vacuous():
    # k = m: the dual matrix is empty and the parametric side is what fails
    assert verify_Lambda(simplex(2), [], "gf2")
    assert not verify_S(simplex(2), [0b001, 0b010, 0b100], 3, "gf2")


def test_gf2_verifiers_reject_row_masks_wider_than_the_matrix():
    # two points at k = 1: a row mask 0b10 has a bit in column 2, which the
    # matrix does not have; a negative mask has infinitely many
    for rows in ([0b10, 0b10], [1, -1]):
        with pytest.raises(ValueError):
            verify_S_detailed(points(2), rows, 1, "gf2")
        with pytest.raises(ValueError):
            verify_nonsimplex_condition(points(2), rows, 1, "gf2")
    with pytest.raises(ValueError):
        verify_Lambda_detailed(points(2), [0b100], "gf2")
    with pytest.raises(ValueError):
        verify_Lambda_detailed(points(2), [-1], "gf2")
    # the integer ring already refuses rows longer than k
    with pytest.raises(ValueError):
        verify_S(points(2), [[0, 1], [0, 1]], 1, "int")
    assert verify_S(points(2), [1, 1], 1, "gf2")
    assert verify_Lambda(points(2), [0b11], "gf2")


def test_nonsimplex_condition_gf2():
    assert verify_nonsimplex_condition(points(3), S3, 2, "gf2")
    assert not verify_nonsimplex_condition(simplex(2), S3, 2, "gf2")
    # no m=3, k=2 matrix works for the boundary triangle
    for code in range(1 << 6):
        rows = [(code >> (2 * i)) & 0b11 for i in range(3)]
        assert not verify_nonsimplex_condition(boundary_simplex(2), rows, 2, "gf2")


def test_nonsimplex_condition_int():
    assert verify_nonsimplex_condition(points(3), S3_INT, 2, "int")
    assert not verify_nonsimplex_condition(simplex(2), S3_INT, 2, "int")


def failing_primes(K, rows, k, primes=(2, 3, 5, 7)):
    """The primes among `primes` at which the enumeration oracle refutes
    the integer non-face condition."""
    return [p for p in primes if not nonsimplex_condition_by_enumeration(K, rows, k, [p])]


def test_nonsimplex_condition_prime_witnesses():
    K = points(3)
    # rows (2,0),(0,1),(2,1): the rows outside each vertex span a lattice of
    # index 2, so the condition fails at 2 and at no other prime
    rows = [[2, 0], [0, 1], [2, 1]]
    assert not verify_nonsimplex_condition(K, rows, 2, "int")
    assert failing_primes(K, rows, 2) == [2]
    # a spanning family everywhere fails at no prime
    assert verify_nonsimplex_condition(K, S3_INT, 2, "int")
    assert failing_primes(K, S3_INT, 2) == []
    # every facet leaves rows of rank 1 < 2, which fail mod every prime,
    # though the Smith factors (3, 0) of the rows outside vertex 3 carry a 3
    rows = [[3, 0], [6, 0], [1, 0]]
    assert not verify_nonsimplex_condition(K, rows, 2, "int")
    assert failing_primes(K, rows, 2) == [2, 3, 5, 7]


def test_nonsimplex_condition_without_enumerating_large_primes():
    # the rows outside vertex 5 span 1 x 1 x 1 x big; only (0, 0, 0, 1) mod
    # a prime factor of big fails, the last point an enumeration would reach
    K = SimplicialComplex.from_facets(5, [[4], [5]])
    for big in (5, 101, 10007, 2**61 - 1):
        rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, big], [0, 0, 0, 1]]
        assert not verify_nonsimplex_condition(K, rows, 4, "int")
        assert not verify_S(K, rows, 4, "int")
        if big == 5:
            assert failing_primes(K, rows, 4) == [5]
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]]
    assert verify_nonsimplex_condition(K, rows, 4, "int")


def test_integer_verifiers_reject_malformed_rows():
    # vertex 1 lies in every facet, so its overlong row is never read by a
    # facet; a float entry must not enter an exact verifier
    cone = SimplicialComplex(3, [0b011, 0b101])
    for K, rows, k in ((cone, [[1, 2, 3], [1], [1]], 1), (points(2), [[1.0], [1.0]], 1)):
        with pytest.raises(ValueError):
            verify_S(K, rows, k, "int")
        with pytest.raises(ValueError):
            verify_nonsimplex_condition(K, rows, k, "int")
        with pytest.raises(ValueError):
            dual_lambda(rows, K.m, k, "int")
    with pytest.raises(ValueError):
        verify_Lambda(points(2), [[1.0, 0]], "int")


def test_xi_search_four_cycle_first_witness():
    w = xi_search(cycle(4), 2)
    assert w is not None and w.k == 2
    assert {a: face_vertices(om) for a, om in w.assignment.items()} == {
        1: [1, 3],
        2: [1, 3],
        3: [2, 4],
    }
    assert validate_xi(cycle(4), w)


def valid_by_circuits(K, w):
    """Reference check of a xi witness: every odd circuit of Z_2^k, taken
    from the odd_circuits oracle, has images with empty intersection."""
    nonsimp = set(K.minimal_nonsimplices())
    if sorted(w.assignment) != list(range(1, 1 << w.k)):
        return False
    if not set(w.assignment.values()) <= nonsimp:
        return False
    for circuit in odd_circuits(w.k):
        inter = (1 << K.m) - 1
        for a in circuit:
            inter &= w.assignment[a]
        if inter:
            return False
    return True


def test_validate_xi_matches_the_circuit_check():
    # witnesses one image away from a search witness, and witnesses with
    # images drawn from three non-faces: both kinds are often valid
    rng = random.Random(5)
    family = [points(5), cycle(5), cycle(6), join(cycle(4), points(2)),
              random_complex(6, 4400, 1, 2, 1), points(7), complete_graph(6)]
    verdicts = set()
    for trial in range(800):
        K = family[trial % len(family)]
        k = 1 + trial // len(family) % 4
        ns = K.minimal_nonsimplices()
        base = xi_search(K, k)
        if base is not None and trial % 2:
            images = dict(base.assignment)
            images[rng.randrange(1, 1 << k)] = rng.choice(ns)
        else:
            pool = rng.sample(ns, min(3, len(ns)))
            images = {a: rng.choice(pool) for a in range(1, 1 << k)}
        w = XiWitness(k, images)
        expected = valid_by_circuits(K, w)
        assert validate_xi(K, w) == expected, (K, w)
        verdicts.add((k, expected))
    # at k = 1 there is no odd circuit
    assert verdicts == {(1, True)} | {(k, ok) for k in (2, 3, 4) for ok in (True, False)}
    # malformed witnesses: a missing vector, an image that is a face
    K = cycle(4)
    good = xi_search(K, 2)
    assert validate_xi(K, good)
    assert not validate_xi(K, XiWitness(2, {1: good.assignment[1], 2: good.assignment[2]}))
    assert not validate_xi(K, XiWitness(2, {**good.assignment, 3: 0b0011}))


def test_validate_xi_checks_high_rank_witnesses():
    # the circuit enumeration has 4.1 M circuits at k = 6 and stops at k = 8
    for m, k in ((7, 6), (10, 9)):
        r = s_real(points(m), max_k=k)
        assert r.xi_witness.k == k
        assert validate_xi(points(m), r.xi_witness)
        # the odd circuit {1, 2, 3} mapped onto a single non-face
        broken = dict(r.xi_witness.assignment)
        broken[2] = broken[3] = broken[1]
        assert not validate_xi(points(m), XiWitness(k, broken))


def test_xi_search_boundary_triangle_fails():
    assert xi_search(boundary_simplex(2), 2) is None


def test_xi_search_five_cycle_rank3():
    w = xi_search(cycle(5), 3)
    assert w is not None
    assert validate_xi(cycle(5), w)


def test_xi_search_corner_cases():
    assert xi_search(cycle(4), 0).assignment == {}
    assert xi_search(simplex(3), 2) is None  # no non-faces to map to
    with pytest.raises(ValueError):
        xi_search(points(6), 5)  # above guard without override
    assert xi_search(points(6), 5, allow_large=True) is not None


def test_xi_search_budget_guard():
    # without the existence shortcut the refutation must exhaust the tree,
    # which a tiny deterministic node budget interrupts
    with pytest.raises(SearchBudgetExceeded):
        xi_search(complete_graph(6), 4, node_budget=50, use_existence_filter=False)


def test_xi_search_budget_bounds_the_whole_call():
    # each first-level branch of this refutation stays below 2000 nodes, but
    # together they visit several thousand: the budget covers the whole call
    stats: dict = {}
    with pytest.raises(SearchBudgetExceeded, match="in one call"):
        xi_search(
            cyclic_polytope_boundary(7, 10), 3, allow_large=True,
            use_existence_filter=False, node_budget=2000, stats=stats,
        )
    assert stats["nodes"] <= 2001


def test_xi_search_sorts_memo_keys_for_a_full_layer():
    # the non-faces of K_12 are all 3-subsets, so every vertex permutation
    # preserves them and sorted memo keys merge relabelled states; with raw
    # keys this search needs about 4 000 nodes
    w = xi_search(
        complete_graph(12), 5, allow_large=True, use_existence_filter=False,
        node_budget=1000,
    )
    assert w is not None and validate_xi(complete_graph(12), w)


def test_xi_existence_filter_matches_search():
    from buchstaber.invariant import xi_witness_exists

    for seed in range(30):
        K = random_complex(4 + seed % 3, 12000 + seed, 1, 2, seed % 2)
        for k in (1, 2, 3):
            ex = xi_witness_exists(K, k)
            w = xi_search(K, k, use_existence_filter=False)
            assert ex == (w is not None)


def test_xi_witness_exists_rejects_negative_rank():
    from buchstaber.invariant import xi_witness_exists

    # refused before any scan, as xi_search refuses it
    for search in (xi_witness_exists, xi_search):
        with pytest.raises(ValueError, match="k must be >= 0"):
            search(cycle(8), -1)


def test_xi_search_monotone_in_k():
    for seed in range(20):
        K = random_complex(5 + seed % 3, 7700 + seed, 1, 2, seed % 2)
        hits = [xi_search(K, k) is not None for k in (1, 2, 3)]
        for lo, hi in zip(hits, hits[1:]):
            assert lo or not hi


def test_xi_matches_naive_backtracking():
    # reference: the plain canonical-order search pruning only on fully
    # assigned circuits; the production engine must return the same witness
    def xi_naive(K, k):
        nonsimp = list(K.minimal_nonsimplices())
        if not nonsimp:
            return None
        nvec = (1 << k) - 1
        complete_at = [[] for _ in range(nvec + 1)]
        for c in odd_circuits(k):
            complete_at[c[-1]].append(c[:-1])
        assign = [0] * (nvec + 1)

        def dfs(v):
            if v > nvec:
                return True
            for om in nonsimp:
                ok = True
                for others in complete_at[v]:
                    inter = om
                    for u in others:
                        inter &= assign[u]
                        if not inter:
                            break
                    if inter:
                        ok = False
                        break
                if ok:
                    assign[v] = om
                    if dfs(v + 1):
                        return True
                    assign[v] = 0
            return False

        return {v: assign[v] for v in range(1, nvec + 1)} if dfs(1) else None

    for seed in range(40):
        K = random_complex(4 + seed % 3, 8800 + seed, 1, 2, seed % 2)
        for k in (1, 2, 3):
            got = xi_search(K, k)
            assert (got.assignment if got else None) == xi_naive(K, k)
    # non-faces forming one complete layer drive the sorted memo keys
    for K in (points(4), points(5), complete_graph(4), complete_graph(5)):
        for k in (2, 3):
            got = xi_search(K, k)
            assert (got.assignment if got else None) == xi_naive(K, k)


def test_xi_to_matrix_three_points():
    w = XiWitness(2, {1: 0b011, 2: 0b101, 3: 0b110})
    assert xi_to_matrix(points(3), w) == [0b11, 0b01, 0b10]


def test_xi_to_matrix_four_cycle():
    w = xi_search(cycle(4), 2)
    rows = xi_to_matrix(cycle(4), w)
    assert rows == [0b11, 0b01, 0b11, 0b01]
    assert verify_S(cycle(4), rows, 2, "gf2")


def test_xi_to_matrix_rejects_invalid_witness():
    bad = XiWitness(2, {1: 0b101, 2: 0b101, 3: 0b101})
    with pytest.raises(ValueError):
        xi_to_matrix(boundary_simplex(2), bad)


def test_xi_to_matrix_refuses_malformed_witnesses():
    # the vector 5 has no place in Z_2^2, so no row of two columns lifts it
    stray = XiWitness(2, {1: 0b011, 2: 0b101, 5: 0b110})
    with pytest.raises(ValueError, match="outside"):
        xi_to_matrix(points(3), stray)
    assert not validate_xi(points(3), stray)
    for a in (0, -1, 4):
        with pytest.raises(ValueError, match="outside"):
            xi_to_matrix(points(3), XiWitness(2, {1: 0b011, 2: 0b101, a: 0b110}))
    for k in (-1, gf2.MAX_DIM + 1):
        with pytest.raises(ValueError):
            xi_to_matrix(points(3), XiWitness(k, {1: 0b011}))


def test_matrix_search_oracle():
    # the first passing matrices in row-tuple order, pinned as the scan with
    # its own pivot loop returned them
    assert matrix_search(cycle(4), 2) == [1, 2, 1, 2]
    assert matrix_search(cycle(5), 3) == [1, 2, 4, 3, 5]
    assert matrix_search(boundary_simplex(2), 2) is None
    assert matrix_search(simplex(2), 1) is None
    rows = matrix_search(points(3), 2)
    assert rows == [1, 2, 3] and verify_S(points(3), rows, 2, "gf2")
    with pytest.raises(ValueError):
        matrix_search(points(6), 3)  # 18 bits above the scan limit


def test_s_real_spot_values():
    assert s_real(cycle(4)).value == 2
    assert s_real(boundary_simplex(2)).value == 1
    assert s_real(cycle(5)).value == 3
    for n in (1, 2, 3, 5):
        r = s_real(simplex(n))
        assert r.value == 0 and r.exact
        assert r.xi_witness is None and r.matrix_rows is None


def test_s_real_witnesses_verify():
    r = s_real(cycle(5))
    assert validate_xi(cycle(5), r.xi_witness)
    assert verify_S(cycle(5), r.matrix_rows, 3, "gf2")


def test_xi_witness_read_off_subspace():
    # the witness maps a to the first minimal non-face inside M a
    from buchstaber.invariant import _good_span, _xi_from_span

    # at rank 3 the criteria decide, and s_real reads the witness off the
    # matched configuration; the expected witnesses are pinned literally
    table_witnesses = {
        5: {1: [1, 3], 2: [1, 3], 3: [2, 4], 4: [2, 5], 5: [2, 5], 6: [1, 4], 7: [3, 5]},
        4: {1: [1, 2], 2: [1, 2], 3: [3, 4], 4: [1, 3], 5: [2, 3], 6: [2, 4], 7: [1, 4]},
    }
    for K in (cycle(5), points(4)):
        span = _good_span(K, 3)
        assert span is not None and len(span) == 8
        for a in range(8):
            for b in range(8):
                assert span[a ^ b] == span[a] ^ span[b]
        assert gf2.rank([span[1], span[2], span[4]]) == 3
        w = _xi_from_span(K, span, 3)
        assert validate_xi(K, w)
        nonsimp = K.minimal_nonsimplices()
        for a, om in w.assignment.items():
            inside = [x for x in nonsimp if x & ~span[a] == 0]
            assert om == inside[0]
        expected = {a: face_mask(vs, K.m) for a, vs in table_witnesses[K.m].items()}
        assert s_real(K).xi_witness == XiWitness(3, expected)
    # from rank 4 on the witness is read off the subspace
    K = points(5)
    assert s_real(K).xi_witness == _xi_from_span(K, _good_span(K, 4), 4)


def test_s_real_witnesses_lift_on_corpora(random_corpus, named_corpus):
    # every reported witness is a valid xi mapping whose matrix, read as 0/1
    # integers, also passes the integral freeness condition (observed on
    # these corpora, not a theorem)
    checked = 0
    for K in list(random_corpus) + list(named_corpus):
        r = s_real(K)
        if r.xi_witness is None:
            continue
        k = r.xi_witness.k
        assert validate_xi(K, r.xi_witness)
        assert r.matrix_rows == xi_to_matrix(K, r.xi_witness)
        int_rows = [[(row >> j) & 1 for j in range(k)] for row in r.matrix_rows]
        assert verify_S(K, int_rows, k, "int")
        checked += 1
    assert checked > 400


def test_analyze_criteria_match_check_criteria(random_corpus, named_corpus):
    for K in list(random_corpus) + list(named_corpus):
        rep = analyze(K)
        assert (rep.criteria_level, rep.criterion_witness) == check_criteria(K)


def test_criteria_end_the_climb_at_rank_3(monkeypatch, random_corpus, named_corpus):
    # C^7(10) has level 2 and upper bound 3; rank 3 lies above the subspace
    # scan's cap, and refuting it by backtracking takes thousands of nodes.
    # The criteria decide ranks 1..3 on every complex and the slot table
    # gives their witness: no search runs below rank 4, on K or on any
    # complex built from the matched configuration
    K = cyclic_polytope_boundary(7, 10)
    r = s_real(K, max_k=3)
    assert (r.lower, r.upper, r.exact) == (2, 2, True)
    family = [K] + list(random_corpus) + list(named_corpus)
    before = [(s_real(K), analyze(K)) for K in family]

    def refusing_low_ranks(search):
        def wrapped(L, k, *args, **kwargs):
            assert k > 3, f"rank {k} was searched"
            return search(L, k, *args, **kwargs)
        return wrapped

    def refusing_configuration_complexes(cls, m, masks):
        raise AssertionError("a complex was built from non-faces")

    monkeypatch.setattr(invariant, "_good_span", refusing_low_ranks(invariant._good_span))
    monkeypatch.setattr(invariant, "xi_search", refusing_low_ranks(invariant.xi_search))
    monkeypatch.setattr(
        SimplicialComplex, "from_min_nonsimplex_masks",
        classmethod(refusing_configuration_complexes),
    )
    for analysed, expected in zip(family, before):
        assert (s_real(analysed), analyze(analysed)) == expected


# Every configuration case in scan order: (level, case) -> (slot count,
# empty-intersection constraints on 1-based slots). Written out here so the
# oracle below does not read the table it checks.
CASES = {
    (1, 1): (1, ()),
    (2, 2): (2, ((1, 2),)),
    (2, 1): (3, ((1, 2, 3),)),
    (3, 5): (3, ((1, 2), (1, 3), (2, 3))),
    (3, 4): (4, ((1, 2), (1, 3), (1, 4), (2, 3, 4))),
    (3, 3): (5, ((1, 2), (1, 5), (1, 3, 4), (2, 3, 5), (2, 4, 5))),
    (3, 2): (6, ((1, 3), (1, 2, 4), (1, 2, 5), (1, 4, 6), (1, 5, 6), (2, 3, 6), (3, 4, 5))),
    (3, 1): (7, ((1, 2, 4), (1, 3, 5), (1, 6, 7), (2, 3, 6), (2, 5, 7), (3, 4, 7), (4, 5, 6))),
}


def test_criterion_xi_slots_map_every_odd_circuit_onto_a_constraint():
    # at every rank r <= level, each odd circuit of Z_2^r meets a set of
    # slots containing a constraint, so its images have empty intersection
    # on every configuration of the case
    for (level, case), conf in _CONFIGURATIONS.items():
        slots = conf.xi_slots
        assert len(slots) == (1 << level) - 1
        assert set(slots) <= set(range(conf.size))
        for r in range(1, level + 1):
            for circuit in odd_circuits(r):
                used = {slots[a - 1] + 1 for a in circuit}
                assert any(used >= set(c) for c in conf.constraints), (level, case, r, circuit)


def generic_configuration(size, constraints):
    """(m, non-faces) in which a set of slots has a common vertex exactly
    when it contains no constraint: slot i owns vertex i + 1, and each
    maximal constraint-free set of slots shares one more vertex."""
    free = [
        set(t)
        for n in range(2, size + 1)
        for t in combinations(range(size), n)
        if not any({p - 1 for p in c} <= set(t) for c in constraints)
    ]
    maximal = [t for t in free if not any(t < u for u in free)]
    masks = [1 << i for i in range(size)]
    for v, t in enumerate(maximal, size):
        for i in t:
            masks[i] |= 1 << v
    return size + len(maximal), masks


def test_criterion_xi_slots_are_the_generic_configuration_search_witnesses():
    for (level, case), conf in _CONFIGURATIONS.items():
        m, masks = generic_configuration(conf.size, conf.constraints)
        K = SimplicialComplex.from_min_nonsimplex_masks(m, masks)
        w = xi_search(K, level, use_existence_filter=False)
        found = tuple(masks.index(w.assignment[a]) for a in range(1, 1 << level))
        assert found == conf.xi_slots, (level, case)


def test_check_criteria_matches_unconditional_scans(
    random_corpus, census_complexes, named_corpus
):
    # check_criteria does not scan the levels above m - dim - 1; the oracle
    # scans every level, and finds nothing there either
    skipped = 0
    for K in random_corpus + census_complexes + named_corpus:
        found = naive_first_configurations(K.minimal_nonsimplices())
        expected = (len(found), found[-1]) if found else (0, None)
        assert check_criteria(K) == expected, K
        skipped += len(found) >= 2 and K.m - K.dimension - 1 < 3
    assert skipped > 50


def polytopes_wide_members():
    """The 30 complexes of the benchmark's polytopes-wide workload at seed 0,
    which keeps the generated labels: cyclic polytopes, joins, 2-skeleta of
    simplices, and seeded random complexes at m = 9..16."""
    cyclic = [(3, 9), (4, 9), (3, 10), (4, 10), (5, 10), (7, 10), (3, 12), (4, 12), (5, 12),
              (7, 12), (4, 13), (3, 14), (4, 14), (5, 14), (9, 14), (5, 16), (12, 14), (13, 15)]
    d4 = boundary_simplex(4)
    members = [cyclic_polytope_boundary(d, n) for d, n in cyclic]
    members += [join(join(d4, d4), d4), join(cycle(6), boundary_simplex(3))]
    members += [skeleton(n, 2) for n in (9, 11, 13, 15)]
    members += [random_complex(14, g, 3, 4, 2) for g in (14001, 14002, 14003)]
    members += [random_complex(16, g, 4, 5, 4) for g in (16001, 16002, 16003)]
    return members


def test_check_criteria_matches_unconditional_scans_on_polytopes_wide():
    members = polytopes_wide_members()
    assert len(members) == 30
    for K in members:
        found = naive_first_configurations(K.minimal_nonsimplices())
        expected = (len(found), found[-1]) if found else (0, None)
        assert check_criteria(K) == expected, K


@pytest.mark.parametrize(
    "K, level, case, sets",
    [
        # case 4 is searched through and refuted before case 3 matches
        (cyclic_polytope_boundary(9, 14), 3, 3,
         [[2, 4, 6, 8, 10], [3, 5, 7, 9, 11], [2, 4, 6, 11, 13], [1, 3, 8, 10, 12, 14],
          [1, 5, 7, 9, 12, 14]]),
        (skeleton(15, 2), 3, 5, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]),
        # every level-3 case is searched through and refuted
        (cyclic_polytope_boundary(7, 10), 2, 2, [[2, 4, 6, 8], [3, 5, 7, 9]]),
    ],
    ids=["C9(14)", "skeleton(15,2)", "C7(10)"],
)
def test_check_criteria_pinned_witnesses(K, level, case, sets):
    lvl, w = check_criteria(K)
    assert (lvl, w.level, w.case, [face_vertices(s) for s in w.sets]) == (level, level, case, sets)


def test_s_real_interval_on_max_k_cap():
    r = s_real(points(8), max_k=2)
    assert not r.exact
    assert (r.lower, r.upper) == (2, 7)


def test_negative_max_k_is_refused_and_zero_is_valid():
    for run in (s_real, analyze):
        with pytest.raises(ValueError, match="max_k"):
            run(cycle(5), max_k=-1)
    r = s_real(cycle(5), max_k=0)
    assert (r.lower, r.upper, r.exact, r.xi_witness, r.matrix_rows) == (0, 3, False, None, None)
    assert analyze(cycle(5), max_k=0).s_real_searched == 0


def test_climb_stops_at_the_largest_liftable_rank():
    # m - dim - 1 = 17 lies above gf2.MAX_DIM = 16, the largest rank
    # xi_to_matrix lifts: the climb stops there with a certified interval
    K = points(18)
    r = s_real(K, max_k=18)
    assert (r.lower, r.upper, r.exact) == (16, 17, False)
    assert validate_xi(K, r.xi_witness) and verify_S(K, r.matrix_rows, 16, "gf2")
    rep = analyze(K, max_k=17)
    assert (rep.s_lower, rep.s_upper, rep.s_real_lower, rep.s_real_upper) == (17, 17, 17, 17)
    assert rep.s_real_searched == 16 and rep.s_real_exact
    assert "real invariant lower bound tightened by integral bounds; witnesses certify rank 16" in rep.warnings


def test_s_real_interval_on_budget():
    # at m = 8 every rank lies below the scan's cap, where the scan is
    # exhaustive, so the budget cannot stop the climb
    K = SimplicialComplex.from_facets(
        8,
        [[2, 3, 4], [2, 3, 6], [2, 4, 7], [2, 6, 7], [1, 4, 8], [3, 4, 8],
         [1, 5, 8], [1, 6, 8], [3, 6, 8]],
    )
    full = s_real(K)
    assert full.exact and full.value == 5
    tight = s_real(K, node_budget=60)
    assert tight.exact and tight.value == 5
    # C^4(9) at k = 4, 5 lies above the scan's cap: rank 4 takes 322
    # candidate tests, and the rest of a small budget stops the scan at
    # rank 5, so the result degrades to a verified interval
    r = s_real(cyclic_polytope_boundary(4, 9), max_k=5, node_budget=1000)
    assert not r.exact
    assert (r.lower, r.upper) == (4, 5)


# Complexes with m >= 9, where every rank >= 4 lies above the subspace
# scan's exhaustive cap.
WIDE_MEMBERS = {
    "C^3(9)": cyclic_polytope_boundary(3, 9),
    "C^4(10)": cyclic_polytope_boundary(4, 10),
    "C^4(14)": cyclic_polytope_boundary(4, 14),
    "C^5(16)": cyclic_polytope_boundary(5, 16),
    "join(C6, bd D3)": join(cycle(6), boundary_simplex(3)),
    **{f"skeleton({n}, 2)": skeleton(n, 2) for n in (9, 11, 13, 15)},
    "random(14, 14001)": random_complex(14, 14001, 3, 4, 2),
}


def test_climb_above_rank_3_never_backtracks(monkeypatch):
    # the subspace scan alone decides every rank >= 4, also above its cap
    before = {name: s_real(K, max_k=5) for name, K in WIDE_MEMBERS.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("xi_search was called")

    monkeypatch.setattr(invariant, "xi_search", refuse)
    for name, K in WIDE_MEMBERS.items():
        r = s_real(K, max_k=5)
        assert r == before[name] and r.lower == 5, name
        rep = analyze(K, max_k=5)
        assert (rep.s_real_searched, rep.s_real_upper) == (r.lower, r.upper), name
        assert rep.xi_witness == r.xi_witness, name


def test_subspace_scan_agrees_with_backtracking_on_wide_members():
    from buchstaber.invariant import _good_span, _xi_from_span

    for name, K in WIDE_MEMBERS.items():
        for k in (4, 5):
            span = _good_span(K, k, [invariant.SCAN_DEFAULT_CANDIDATE_BUDGET])
            reference = xi_search(K, k, allow_large=True, use_existence_filter=False)
            assert (span is None) == (reference is None), (name, k)
            if span is None:
                continue
            w = _xi_from_span(K, span, k)
            assert validate_xi(K, w), (name, k)
            rows = xi_to_matrix(K, w)
            int_rows = [[(row >> j) & 1 for j in range(k)] for row in rows]
            assert verify_S(K, int_rows, k, "int"), (name, k)


def test_scan_budget_counts_candidate_tests_across_ranks():
    # C^4(10) takes 265 candidate tests at rank 4 and 578 at rank 5, both
    # above the cap; one budget covers both ranks of the call
    K = cyclic_polytope_boundary(4, 10)
    for budget, interval in ((264, (3, 6)), (265, (4, 6)), (842, (4, 6)), (843, (5, 6))):
        r = s_real(K, max_k=5, node_budget=budget)
        assert (r.lower, r.upper) == interval, budget
    with pytest.raises(SearchBudgetExceeded):
        invariant._good_span(K, 5, [577])


SCAN_BUDGETS = (50, 500, 5_000, 400_000)


def scan_outcome(scan, K, k, budget):
    left = [budget]
    try:
        return scan(K, k, left), left[0]
    except SearchBudgetExceeded:
        return "trip", None


def assert_scans_agree(K, k, top):
    """The bit-parallel scan against the per-candidate loop at rank k. The
    loop runs once under budget `top`, which fixes the units U it takes or
    shows that it needs more; at each budget b of SCAN_BUDGETS up to top,
    and at U - 1 and U, the bit-parallel scan returns the loop's span with
    b - U left, or trips exactly when b < U."""
    span, left = scan_outcome(invariant._good_span_by_tests, K, k, top)
    used = None if span == "trip" else top - left
    budgets = [b for b in SCAN_BUDGETS if b <= top]
    if used is not None:
        budgets += [used - 1, used]
        assert invariant._good_span(K, k) == span, (K, k)
    for b in budgets:
        want = ("trip", None) if used is None or b < used else (span, b - used)
        assert scan_outcome(invariant._good_span, K, k, b) == want, (K, k, b)


@pytest.mark.parametrize("n, m", [(2, 6), (3, 7), (4, 9), (7, 12), (3, 16), (4, 16), (10, 16)])
def test_bit_parallel_scan_matches_the_loop_on_cyclic_polytopes(n, m):
    # ranks 4..6 of C^4(9), C^7(12) and C^10(16) trip the largest budget
    K = cyclic_polytope_boundary(n, m)
    for k in range(1, 7):
        assert_scans_agree(K, k, SCAN_BUDGETS[-1])


def test_bit_parallel_scan_matches_the_loop_on_corpora(random_corpus, named_corpus):
    # the loop takes about 1.5 us a unit, so on the 500 random complexes,
    # whose 267 scans past 400 000 units would take 0.6 s each in it, the
    # budgets stop at 5 000
    for K in named_corpus:
        for k in range(1, min(K.m, 6) + 1):
            assert_scans_agree(K, k, SCAN_BUDGETS[-1])
    for K in random_corpus:
        for k in range(1, min(K.m, 6) + 1):
            assert_scans_agree(K, k, 5_000)


def test_scan_above_the_face_set_limit_is_the_loop():
    # at m = 17 the complex has no face set, and the scan tests each
    # candidate against the facets
    K = cyclic_polytope_boundary(4, 17)
    assert K.face_bits() is None
    left = [5_000]
    span = invariant._good_span(K, 5, left)
    assert scan_outcome(invariant._good_span_by_tests, K, 5, 5_000) == (span, left[0])
    assert len(span) == 32 and not any(K.contains_face(v) for v in span[1:])


def test_scan_cliffs_keep_their_answers():
    # values recorded before the scan went bit-parallel; the exhaustive
    # refutations below took 0.3-5.4 s each then
    rep = analyze(complete_graph(8), max_k=5)
    assert (rep.s_real_lower, rep.s_real_upper, rep.s_lower, rep.s_upper) == (4, 4, 4, 4)
    assert rep.s_real_exact and rep.s_exact
    assert s_real(skeleton(7, 2)).value == 4
    assert s_real(cyclic_polytope_boundary(4, 8)).value == 3
    # the default budget trips above EXISTENCE_SCAN_LIMIT
    for (n, m), interval in {
        (4, 9): (4, 5), (5, 10): (4, 5), (6, 10): (3, 4), (7, 12): (4, 5), (10, 16): (4, 6),
    }.items():
        r = s_real(cyclic_polytope_boundary(n, m), max_k=5)
        assert (r.lower, r.upper, r.exact) == (*interval, False), (n, m)


def test_scan_tightens_the_wide_cyclic_polytopes():
    # rank 5 lies above the scan's cap and is found within the budget
    for n, m in ((4, 13), (5, 14)):
        K = cyclic_polytope_boundary(n, m)
        r = s_real(K, max_k=5)
        assert r.lower == 5 and validate_xi(K, r.xi_witness)


def test_check_criteria_levels():
    assert check_criteria(simplex(3)) == (0, None)
    lvl, w = check_criteria(boundary_simplex(2))
    assert lvl == 1 and [face_vertices(s) for s in w.sets] == [[1, 2, 3]]
    lvl, w = check_criteria(cycle(4))
    assert (lvl, w.case) == (2, 2)
    assert [face_vertices(s) for s in w.sets] == [[1, 3], [2, 4]]
    lvl, w = check_criteria(cycle(5))
    assert lvl == 3 and w.level == 3


def test_criteria_s2_triple_case():
    # three pairwise intersecting pairs with empty common intersection
    K = SimplicialComplex.from_min_nonsimplices(3, [[1, 2], [1, 3], [2, 3]])
    lvl, w = check_criteria(K)
    assert (lvl, w.case) >= (2, 1)
    if lvl == 2:
        assert w.case == 1 and len(w.sets) == 3


def satisfies_its_case(w):
    size, constraints = CASES[w.level, w.case]
    for cons in constraints:
        inter = w.sets[cons[0] - 1]
        for pos in cons[1:]:
            inter &= w.sets[pos - 1]
        if inter:
            return False
    return len(w.sets) == size


def naive_first_configuration(nonsimp, level):
    """Reference scan of one level: every ordered tuple of distinct
    non-faces, lowest indices first, each constraint tested once its last
    slot is filled; the first match of the level's first case that has one."""
    n = len(nonsimp)
    for (lvl, case), (size, constraints) in CASES.items():
        if lvl != level or n < size:
            continue
        by_depth = [[] for _ in range(size + 1)]
        for cons in constraints:
            by_depth[max(cons)].append(cons)
        chosen = []
        used = [False] * n

        def place(depth):
            if depth > size:
                return True
            for idx in range(n):
                if used[idx]:
                    continue
                chosen.append(nonsimp[idx])
                ok = True
                for cons in by_depth[depth]:
                    inter = chosen[cons[0] - 1]
                    for pos in cons[1:]:
                        inter &= chosen[pos - 1]
                    if inter:
                        ok = False
                        break
                if ok:
                    used[idx] = True
                    if place(depth + 1):
                        return True
                    used[idx] = False
                chosen.pop()
            return False

        if place(1):
            return CriterionWitness(level, case, tuple(chosen))
    return None


def first_configurations(ns):
    """The scan's first configuration of each level 1..3, with the
    incidence of the non-faces ns built in the call."""
    return list(_first_configurations(ns, incidence(ns, max(ns, default=0).bit_length()), 3))


def naive_first_configurations(nonsimp):
    """The oracle's first configuration of each level 1..3, up to the first
    level without one. It scans every level, and checks that none above
    that level has a configuration either."""
    found = [naive_first_configuration(nonsimp, level) for level in (1, 2, 3)]
    if None in found:
        assert not any(found[found.index(None):]), nonsimp
        return found[:found.index(None)]
    return found


def test_criteria_matched_sets_satisfy_their_equations():
    for seed in range(30):
        K = random_complex(5 + seed % 4, 6600 + seed, 1, 2, seed % 3)
        lvl, w = check_criteria(K)
        assert w is None or (w.level == lvl and satisfies_its_case(w))


def test_level3_table_matches_the_reference_cases():
    # every level's cases, in scan order
    assert [
        ((conf.level, conf.case), (conf.size, conf.constraints))
        for conf in _CONFIGURATIONS.values()
    ] == list(CASES.items())
    assert list(_CONFIGURATIONS) == list(CASES)


def test_s3_slot_order_follows_from_the_configuration_symmetries():
    # (i, j) is listed iff some slot permutation preserving the constraints
    # fixes slots 1..i-1 and sends slot i to slot j
    for key, conf in _CONFIGURATIONS.items():
        size = conf.size
        family = {frozenset(c) for c in conf.constraints}
        pairs = set()
        for perm in permutations(range(1, size + 1)):
            if {frozenset(perm[p - 1] for p in c) for c in family} != family:
                continue
            moved = [p for p in range(1, size + 1) if perm[p - 1] != p]
            if moved:
                pairs.add((moved[0], perm[moved[0] - 1]))
        assert sorted(pairs) == list(conf.slot_order), key


def test_level3_scan_matches_naive_scan_on_corpora(
    random_corpus, census_complexes, named_corpus
):
    for K in random_corpus + census_complexes + named_corpus:
        ns = K.minimal_nonsimplices()
        assert first_configurations(ns) == naive_first_configurations(ns), K


def polytopes_and_skeleta():
    """Cyclic polytopes, skeleta and joins that between them reach every
    criteria outcome."""
    family = [
        cyclic_polytope_boundary(d, n) for n in range(4, 11) for d in range(2, n - 1)
    ]
    family += [cyclic_polytope_boundary(8, 11)]
    family += [skeleton(n, k) for n in range(2, 7) for k in range(n)]
    # one non-face per point of the Fano plane: the set of lines avoiding
    # it. Any two meet and only the lines empty a triple, so only case 1 fits
    fano = CASES[3, 1][1]
    avoiding = [
        sum(1 << i for i, line in enumerate(fano) if p not in line) for p in range(1, 8)
    ]
    return family + [
        SimplicialComplex.from_min_nonsimplex_masks(7, avoiding),
        join(cycle(5), cycle(5)),
        join(join(boundary_simplex(2), boundary_simplex(2)), boundary_simplex(3)),
        join(cycle(6), boundary_simplex(3)),
    ]


def test_level3_scan_matches_naive_scan_on_polytopes_and_skeleta():
    outcomes = set()
    for K in polytopes_and_skeleta():
        ns = K.minimal_nonsimplices()
        found = first_configurations(ns)
        assert found == naive_first_configurations(ns), K
        outcomes.update((w.level, w.case) for w in found)
        if len(found) == 2:
            outcomes.add(None)  # the level-3 scan ran through every case
    assert outcomes == set(CASES) | {None}


def test_every_criteria_outcome_gives_a_valid_witness():
    # at each rank r up to the level, the reported witness is a xi mapping
    # of rank r onto the non-faces of the matched configuration
    outcomes = set()
    for K in polytopes_and_skeleta():
        level, crit_w = check_criteria(K)
        if crit_w is None:
            continue
        outcomes.add((level, crit_w.case))
        for r in range(1, level + 1):
            w = s_real(K, max_k=r).xi_witness
            assert w.k == r and validate_xi(K, w), (K, r)
            assert set(w.assignment.values()) <= set(crit_w.sets), (K, r)
    assert outcomes == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (3, 4), (3, 5)}


def test_s_real_exact_when_max_k_reaches_a_level_below_3(tmp_path):
    # level 2 refutes rank 3, so capping the climb at 2 loses nothing
    K = cyclic_polytope_boundary(7, 10)
    r = s_real(K, max_k=2)
    assert (r.lower, r.upper, r.exact) == (2, 2, True)
    rep = analyze(K, max_k=2)
    assert (rep.s_real_lower, rep.s_real_upper, rep.s_real_exact) == (2, 2, True)
    assert (rep.s_lower, rep.s_upper, rep.s_exact) == (2, 2, True)
    assert not rep.warnings
    # below the level the climb stops short, yet the level bounds it above
    K = skeleton(5, 2)
    r = s_real(K, max_k=1)
    assert (r.lower, r.upper, r.exact) == (1, 2, False)
    rep = analyze(K, max_k=1)
    assert (rep.s_real_lower, rep.s_real_upper, rep.s_lower, rep.s_upper) == (2, 2, 2, 2)
    path = tmp_path / "c7_10.cplx"
    assert main(["gen", "cyclic", "7", "10", "-o", str(path)]) == 0
    out = tmp_path / "out.txt"
    assert main(["sreal", str(path), "--max-k", "2", "-o", str(out)]) == 0
    assert out.read_text().startswith("s_real(K) = 2 (exact)\n")


@st.composite
def antichains(draw):
    """The minimal members of up to 20 random subsets of m <= 9 vertices.
    The subsets have 2 to 4 vertices, so that many of them survive."""
    m = draw(st.integers(2, 9))
    vertex_sets = st.frozensets(st.integers(0, m - 1), min_size=2, max_size=min(m, 4))
    count = draw(st.integers(1, 20))
    sets = {
        sum(1 << v for v in vs)
        for vs in draw(st.lists(vertex_sets, min_size=count, max_size=count))
    }
    return sorted(w for w in sets if not any(u != w and u & ~w == 0 for u in sets))


@settings(max_examples=300)
@given(antichains())
def test_level3_scan_matches_naive_scan_on_antichains(ns):
    found = first_configurations(ns)
    assert found == naive_first_configurations(ns)
    assert all(satisfies_its_case(w) for w in found)


@st.composite
def antichain_complexes(draw):
    """A complex on m <= 9 vertices whose minimal non-faces are an
    antichain from antichains(); vertices beyond its support are ghosts."""
    ns = draw(antichains())
    m = max(ns).bit_length()
    return SimplicialComplex.from_min_nonsimplex_masks(draw(st.integers(m, 9)), ns)


@settings(max_examples=150)
@given(antichain_complexes())
def test_criteria_decide_xi_existence_up_to_rank_3(K):
    # the paper's criterion, which the s_real climb trusts at ranks <= 3,
    # against the backtracking alone (at m = 9 the subspace scan refutes
    # rank 3 in seconds, the backtracking in a tenth of that)
    level = check_criteria(K)[0]
    for k in (1, 2, 3):
        found = xi_search(K, k, use_existence_filter=False)
        assert (level >= k) == (found is not None), k
    # the reported witness has the decided rank, and its 0/1 lift passes
    # over the integers (at k <= 3 an odd 0/1 determinant is +-1)
    r = s_real(K, max_k=3)
    rank = min(level, K.m - K.dimension - 1)
    if rank == 0:
        assert r.xi_witness is None
        return
    assert r.xi_witness.k == rank and validate_xi(K, r.xi_witness)
    int_rows = [[row >> j & 1 for j in range(rank)] for row in r.matrix_rows]
    assert verify_S(K, int_rows, rank, "int")


@settings(max_examples=60)
@given(antichain_complexes())
def test_bit_parallel_scan_matches_the_loop_on_antichains(K):
    for k in range(1, min(K.m, 6) + 1):
        assert_scans_agree(K, k, 5_000)


@settings(max_examples=150)
@given(antichain_complexes())
def test_analyze_bounds_are_ordered(K):
    # s <= s_R <= m - dim - 1 on both ends, and the searched rank is the
    # rank of the reported witness, which is valid
    rep = analyze(K)
    assert rep.s_lower <= rep.s_real_lower
    assert rep.s_upper <= rep.s_real_upper <= rep.upper_bound
    w = rep.xi_witness
    assert rep.s_real_searched == (w.k if w else 0)
    assert w is None or validate_xi(K, w)


def test_level3_scan_closes_the_skeleton_cliff():
    # the 3-skeleton of the 11-simplex: |N| = 792; the plain ordered-tuple
    # scan did not finish within 15 s
    lvl, w = check_criteria(skeleton(11, 3))
    assert lvl == 3 and satisfies_its_case(w)


def test_level3_scan_skips_cases_whose_disjoint_slots_cannot_fit():
    # the 4-skeleton of the 15-simplex: |N| = 8 008 six-sets of 16 vertices.
    # Case 5 needs three pairwise disjoint non-faces, 18 > 16 vertices, so
    # the scan moves on to case 4 without enumerating the disjoint pairs
    # (2.5-3.5 s when it did; a 1 s bound leaves wide room for a slow host)
    K = skeleton(15, 4)
    ns = K.minimal_nonsimplices()
    t0 = time.perf_counter()
    found = first_configurations(ns)
    assert time.perf_counter() - t0 < 1.0
    assert [(w.level, w.case) for w in found] == [(1, 1), (2, 2), (3, 4)]
    assert check_criteria(K) == (3, found[-1]) and satisfies_its_case(found[-1])


@pytest.mark.parametrize("K, case, sets", [
    (cyclic_polytope_boundary(9, 14), 3,
     [[2, 4, 6, 8, 10], [3, 5, 7, 9, 11], [2, 4, 6, 11, 13], [1, 3, 8, 10, 12, 14],
      [1, 5, 7, 9, 12, 14]]),
    (skeleton(9, 2), 4, [[1, 2, 3, 4], [5, 6, 7, 8], [5, 6, 9, 10], [7, 8, 9, 10]]),
], ids=["C^9(14)", "skeleton(9, 2)"])
def test_pruned_scan_keeps_the_first_match(K, case, sets):
    # C^9(14) refutes case 4 and skeleton(9, 2) case 5 before the match;
    # the witnesses are those the scan found before either cut existed
    level, w = check_criteria(K)
    assert (level, w.case, [face_vertices(x) for x in w.sets]) == (3, case, sets)


def test_disjoint_slot_counts():
    # the most slots joined pairwise by 2-slot constraints, per record
    assert {key: conf.disjoint for key, conf in _CONFIGURATIONS.items()} == {
        (1, 1): 1, (2, 2): 2, (2, 1): 1,
        (3, 5): 3, (3, 4): 2, (3, 3): 2, (3, 2): 2, (3, 1): 1,
    }


def test_analyze_cyclic_11_16_at_max_k_3():
    rep = analyze(cyclic_polytope_boundary(11, 16), polytopal=True, max_k=3)
    assert rep.criteria_level == 3
    assert satisfies_its_case(rep.criterion_witness)
    assert (rep.s_lower, rep.s_upper) == (3, 5)


def test_criteria_s3_case4_configuration():
    K = SimplicialComplex.from_min_nonsimplices(5, [[1, 2], [3, 4], [3, 5], [4, 5]])
    lvl, w = check_criteria(K)
    assert lvl == 3 and w.case == 4


def test_criteria_s3_case5_configuration():
    K = SimplicialComplex.from_min_nonsimplices(6, [[1, 2], [3, 4], [5, 6]])
    lvl, w = check_criteria(K)
    assert lvl == 3 and w.case == 5
    assert [face_vertices(s) for s in w.sets] == [[1, 2], [3, 4], [5, 6]]


def test_cover_bound_against_subset_enumeration():
    # oracle: scan every subfamily of the non-faces that covers the vertices
    from itertools import combinations as combos

    for seed in range(25):
        K = random_complex(4 + seed % 3, 3300 + seed, 1, 2, seed % 2)
        ns = K.minimal_nonsimplices()
        if not (1 <= len(ns) <= 8):
            continue
        full = (1 << K.m) - 1
        best = None
        for t in range(1, len(ns) + 1):
            for sel in combos(ns, t):
                covered = 0
                for w in sel:
                    covered |= w
                if covered == full:
                    value = K.m - sum(w.bit_count() for w in sel) + t
                    best = value if best is None else max(best, value)
        cb = cover_lower_bound(K)
        if best is None:
            assert not cb.coverable and cb.value == 0
        else:
            assert cb.coverable and cb.value == best
            covered = 0
            for w in cb.cover:
                covered |= w
                assert w in ns
            assert covered == full


def test_chromatic_number_against_brute_force():
    from itertools import product as iproduct

    for seed in range(20):
        K = random_complex(3 + seed % 4, 2100 + seed, 1, 2, 0).one_skeleton()
        verts = [v for v in range(K.m) if K.contains_face(1 << v)]
        edges = [
            (a, b)
            for i, a in enumerate(verts)
            for b in verts[i + 1 :]
            if K.contains_face((1 << a) | (1 << b))
        ]
        want = 0 if not verts else None
        for c in range(1, len(verts) + 1):
            if want is not None:
                break
            for coloring in iproduct(range(c), repeat=len(verts)):
                col = dict(zip(verts, coloring))
                if all(col[a] != col[b] for a, b in edges):
                    want = c
                    break
        assert chromatic_number(K) == (want or 0)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.integers(0, (1 << len(pairs)) - 1))
    adj = [0] * n
    for i, (a, b) in enumerate(pairs):
        if edges >> i & 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    verts = [v for v in range(n) if draw(st.booleans())]
    return verts, [a & sum(1 << v for v in verts) for a in adj]


# the crown graph on a_i = 2i, b_i = 2i + 1 (a_i ~ b_j for i != j): first-fit
# in its degree order takes four colors, so the search must go on to two
CROWN = [sum(1 << (2 * j + 1 - v % 2) for j in range(4) if j != v // 2) for v in range(8)]


@settings(max_examples=300)
@given(graphs())
@example((list(range(8)), CROWN))
def test_color_count_is_the_chromatic_number(graph):
    verts, adj = graph
    gamma = chromatic_by_subsets(verts, adj)
    assert invariant._color_count(verts, adj) == gamma
    # the decider behind it accepts gamma colors and refutes gamma - 1
    assert invariant._colorable(verts, adj, gamma)
    if gamma:
        assert not invariant._colorable(verts, adj, gamma - 1)


@st.composite
def complexes_with_ghosts(draw):
    """A complex on m <= 9 vertices with one ghost vertex and some isolated
    vertices besides its random facets."""
    m = draw(st.integers(1, 9))
    ghost = 1 << draw(st.integers(0, m - 1))
    facets = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=6))
    isolated = draw(st.lists(st.integers(0, m - 1), max_size=3))
    return SimplicialComplex(m, [f & ~ghost for f in facets] + [1 << v & ~ghost for v in isolated])


@settings(max_examples=300)
@given(complexes_with_ghosts())
def test_skeleton_chromatic_from_nonfaces_matches_the_one_skeleton(K):
    assert K.ghost_vertices()
    G = K.one_skeleton()
    gamma = edge_facet_chromatic(G)  # read off G's edge facets, not N(K)
    assert invariant._skeleton_chromatic(K) == chromatic_number(G) == gamma
    # analyze takes its one gamma from the N(K) reader: the polytopal bound
    # on K, and on the graph G also the graph formula's fields
    assert analyze(K, polytopal=True, max_k=3).chromatic_bound == K.m - gamma
    rep = analyze(G, polytopal=True, max_k=3)
    assert (rep.graph_chromatic, rep.ayzenberg_value, rep.chromatic_bound) == (gamma, ayzenberg_s(G), G.m - gamma)


def test_polytopal_bound_on_complete_one_skeleta():
    # neighbourly C^n(m), n >= 4, have a complete 1-skeleton, so gamma = m
    for n, m in [(4, 10), (5, 12), (4, 16), (6, 16)]:
        assert analyze(cyclic_polytope_boundary(n, m), polytopal=True, max_k=3).chromatic_bound == 0
    assert analyze(cyclic_polytope_boundary(3, 10), polytopal=True, max_k=3).chromatic_bound == 10 - 4


def test_analyze_matrix_rows_are_the_xi_to_matrix_lift(random_corpus, corpus_reports, named_corpus):
    pairs = list(zip(random_corpus, corpus_reports)) + [(K, analyze(K)) for K in named_corpus]
    pairs += [
        (K, analyze(K, polytopal=True, max_k=3))
        for K in (cyclic_polytope_boundary(n, m) for m in range(6, 13) for n in range(3, 6))
    ]
    criteria_witnessed = 0
    for K, rep in pairs:
        w = rep.xi_witness
        if w is None:
            assert rep.matrix_rows is None
            continue
        assert rep.matrix_rows == xi_to_matrix(K, w)
        criteria_witnessed += w.k <= 3
    # most witnesses are the criteria's, read off a configuration record
    assert criteria_witnessed > 300


def test_climb_refuses_an_inconsistent_criterion_witness():
    # vertex 1 lies in all three slots, so in an odd circuit's images
    bogus = CriterionWitness(3, 5, (0b001, 0b001, 0b001))
    with pytest.raises(ValueError, match="inconsistent xi witness"):
        invariant._climb(points(3), (3, bogus), 3, 100)


def test_smith_row_transform_annihilates_column_space():
    # the trailing transform rows are exactly what dual completion uses
    from buchstaber.generators import Lcg

    rng = Lcg(83)
    done = 0
    while done < 40:
        m = 3 + rng.below(3)
        k = 1 + rng.below(min(3, m - 1))
        mat = [[rng.below(5) - 2 for _ in range(k)] for _ in range(m)]
        factors, u = zlattice.smith_row_transform(mat)
        if len(factors) != k or any(d != 1 for d in factors):
            continue
        done += 1
        for row in u[k:]:
            for j in range(k):
                assert sum(row[i] * mat[i][j] for i in range(m)) == 0


def test_nonsimplex_condition_engineered_prime_factors():
    # indices of the outside-row lattices with factors 3 and 5 only: the
    # verifier must refute without a failure at 2, and agree with verify_S
    K = points(3)
    for s, primes in (
        ([[3, 0], [0, 1], [1, 1]], [3]),
        ([[5, 0], [0, 5], [1, 1]], [5]),
        ([[3, 1], [2, 4], [0, 5]], [2, 3, 5]),
        ([[6, 0], [0, 10], [15, 1]], [2, 3, 5]),
    ):
        assert failing_primes(K, s, 2) == primes
        assert not verify_nonsimplex_condition(K, s, 2, "int")
        assert not verify_S(K, s, 2, "int")


def test_cover_lower_bound_examples():
    cb = cover_lower_bound(cycle(4))
    assert cb.value == 2 and not cb.heuristic and cb.coverable
    assert [face_vertices(s) for s in cb.cover] == [[1, 3], [2, 4]]
    cb = cover_lower_bound(boundary_simplex(2))
    assert cb.value == 1
    assert [face_vertices(s) for s in cb.cover] == [[1, 2, 3]]
    cb = cover_lower_bound(cycle(5))
    assert cb.value == 2 and len(cb.cover) == 3


def test_cover_keeps_an_optimal_greedy_cover():
    # two covers of cost 3: {1,2},{2,3},{4,5} comes first in the branching
    # order, but only a strictly cheaper cover replaces the greedy incumbent
    K = SimplicialComplex.from_facets(5, [[2, 4], [1, 3, 4], [1, 5], [2, 5]])
    ns = K.minimal_nonsimplices()
    cb = cover_lower_bound(K)
    greedy = tuple(sorted(ns[i] for i in greedy_cover(ns, K.m)))
    assert cb == CoverBound(2, greedy, True, False)
    assert [face_vertices(w) for w in cb.cover] == [[1, 2], [3, 5], [4, 5]]
    # every cover by the non-faces, by exhaustion: both covers are optimal
    costs = {
        sel: sum(w.bit_count() - 1 for w in sel)
        for r in range(1, len(ns) + 1)
        for sel in combinations(ns, r)
        if reduce(or_, sel) == full_mask(K.m)
    }
    first = tuple(face_mask(w, K.m) for w in [[1, 2], [2, 3], [4, 5]])
    assert K.m - min(costs.values()) == cb.value == K.m - costs[first] == K.m - costs[cb.cover]


def test_cover_not_coverable():
    # cone vertex 1 lies in every facet, so no minimal non-face contains it
    K = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    cb = cover_lower_bound(K)
    assert (cb.value, cb.coverable) == (0, False)


def test_cover_greedy_fallback():
    # 210 non-faces, above COVER_SEARCH_GUARD: the greedy cover
    # {1,2,3,4}, {5,6,7,8}, {1,2,9,10} of cost 9 is returned, marked heuristic
    K = skeleton(9, 2)
    assert len(K.minimal_nonsimplices()) == 210 > COVER_SEARCH_GUARD
    assert cover_lower_bound(K) == CoverBound(1, (15, 240, 771), True, True)


def greedy_cover(nonsimp, m):
    return _greedy_cover(nonsimp, m, incidence(nonsimp, m))


def test_greedy_cover_rejects_nonfaces_that_do_not_cover():
    with pytest.raises(ValueError):
        greedy_cover([0b011], 3)


def test_greedy_cover_breaks_equal_ratios_by_index():
    def masks(*sets):
        return [face_mask(s, 4) for s in sets]

    # first pick: cost/new 1/2 beats 2/3, and {1,2} is the lowest index at
    # 1/2. Second pick: {2,3} (1/1), {1,3,4} (2/2) and {2,4} (1/1) tie, so
    # the lowest index wins, whichever of them comes first.
    assert greedy_cover(masks([1, 2], [2, 3], [1, 3, 4], [2, 4]), 4) == [0, 1, 3]
    assert greedy_cover(masks([1, 2], [1, 3, 4], [2, 3], [2, 4]), 4) == [0, 1]
    # the ratio, not the raw cost, decides: after {5,6}, {1,2,3} at 2/3
    # comes before {4,5} at 1/1
    sets = [face_mask(s, 6) for s in ([5, 6], [4, 5], [1, 2, 3])]
    assert greedy_cover(sets, 6) == [0, 2, 1]


@st.composite
def covering_antichains(draw):
    """(non-faces, m): the minimal members of random subsets of m <= 9
    vertices, singletons (cost 0) included, plus a singleton for each
    vertex they leave uncovered, so that they cover all m vertices."""
    m = draw(st.integers(1, 9))
    vertex_sets = st.frozensets(st.integers(0, m - 1), min_size=1, max_size=min(m, 5))
    sets = {sum(1 << v for v in vs) for vs in draw(st.lists(vertex_sets, min_size=1, max_size=20))}
    ns = [w for w in sets if not any(u != w and u & ~w == 0 for u in sets)]
    union = 0
    for w in ns:
        union |= w
    ns += [1 << v for v in range(m) if not union >> v & 1]
    return sorted(ns), m


def greedy_cover_reference(nonsimp, m):
    """Each round scans every non-face that covers a new vertex and takes
    the least (|w| - 1) / new, the lowest index among equals."""
    covered, picked = 0, []
    while covered != (1 << m) - 1:
        _, idx = min(
            (Fraction(w.bit_count() - 1, (w & ~covered).bit_count()), idx)
            for idx, w in enumerate(nonsimp) if w & ~covered
        )
        picked.append(idx)
        covered |= nonsimp[idx]
    return picked


@settings(max_examples=300)
@given(covering_antichains())
def test_greedy_cover_matches_the_full_scan(case):
    nonsimp, m = case
    assert greedy_cover(nonsimp, m) == greedy_cover_reference(nonsimp, m)


def test_chromatic_number():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(cycle(4)) == 2
    assert chromatic_number(points(3)) == 1
    assert chromatic_number(SimplicialComplex.from_facets(3, [])) == 0
    with pytest.raises(ValueError):
        chromatic_number(simplex(2))


def test_ayzenberg_values():
    assert ayzenberg_s(complete_graph(4)) == 1
    assert ayzenberg_s(cycle(5)) == 3
    assert ayzenberg_s(cycle(4)) == 2
    assert ayzenberg_s(points(3)) == 2
    assert ayzenberg_s(points(6)) == 5
    # empty complex: chromatic number 0, full torus acts freely
    K = SimplicialComplex.from_facets(3, [])
    assert ayzenberg_s(K) == 3
    assert s_real(K).value == 3


def test_dual_lambda_gf2():
    rows = xi_to_matrix(cycle(4), xi_search(cycle(4), 2))
    lam = dual_lambda(rows, 4, 2, "gf2")
    assert len(lam) == 2
    assert verify_Lambda(cycle(4), lam, "gf2")


def test_dual_lambda_int():
    rows = [[1, 1], [1, 0], [1, 1], [1, 0]]
    lam = dual_lambda(rows, 4, 2, "int")
    # rows 0 and 1 fill the two slots of the echelon basis; rows 2 and 3
    # reduce to zero against them, in that order
    assert lam == [[-1, 0, 1, 0], [0, -1, 0, 1]]
    for lrow in lam:
        for j in range(2):
            assert sum(lrow[i] * rows[i][j] for i in range(4)) == 0
    assert verify_Lambda(cycle(4), lam, "int")
    with pytest.raises(ValueError):
        dual_lambda([[2, 0], [0, 1], [0, 0]], 3, 2, "int")


def test_dual_lambda_gf2_rejects_rows_wider_than_k():
    # row 0b11 has a bit in column 2 of a 2 x 1 matrix; verify_S refuses
    # the same rows
    with pytest.raises(ValueError, match="at most 1 bits"):
        dual_lambda([0b11, 0b10], 2, 1, "gf2")
    with pytest.raises(ValueError, match="at most 1 bits"):
        verify_S(points(2), [0b11, 0b10], 1, "gf2")
    with pytest.raises(ValueError):
        dual_lambda([-1, 1], 2, 1, "gf2")


def test_dual_lambda_on_corpus_witnesses():
    # every produced matrix witness extends to a passing dual, in both rings
    for seed in range(20):
        K = random_complex(4 + seed % 4, 9900 + seed, 1, 2, seed % 2)
        r = s_real(K)
        if not r.exact or not r.matrix_rows or r.value == 0:
            continue
        k = r.xi_witness.k
        lam = dual_lambda(r.matrix_rows, K.m, k, "gf2")
        assert verify_Lambda(K, lam, "gf2")
        if k <= 3:
            int_rows = [[(row >> j) & 1 for j in range(k)] for row in r.matrix_rows]
            lam_int = dual_lambda(int_rows, K.m, k, "int")
            assert verify_Lambda(K, lam_int, "int")


def test_analyze_four_cycle():
    rep = analyze(cycle(4))
    assert rep.s_value == 2 and rep.s_exact
    assert rep.s_real_lower == rep.s_real_upper == 2
    assert rep.criteria_level == 2
    assert rep.upper_bound == 2
    assert rep.cover.value == 2
    assert rep.ayzenberg_value == 2
    assert rep.is_flag and not rep.ghost_vertices


def test_analyze_simplex():
    rep = analyze(simplex(5))
    assert rep.s_value == 0 and rep.criteria_level == 0
    assert rep.num_min_nonsimplices == 0


def test_analyze_cyclic_13_15():
    rep = analyze(cyclic_polytope_boundary(13, 15))
    assert rep.s_value == 2 and rep.s_exact
    assert rep.criteria_level == 2
    assert rep.upper_bound == 2


def test_analyze_ghost_warning():
    K = SimplicialComplex.from_facets(4, [[1, 2]])
    rep = analyze(K)
    assert rep.ghost_vertices == (3, 4)
    assert any("ghost" in w for w in rep.warnings)


def test_analyze_polytopal_bound():
    rep = analyze(cycle(4), polytopal=True)
    assert rep.chromatic_bound == 2
    assert analyze(cycle(4)).chromatic_bound is None


def test_analyze_report_invariants():
    for seed in range(25):
        K = random_complex(5 + seed % 4, 5500 + seed, 3, 5, seed % 2)
        rep = analyze(K)
        assert rep.s_lower <= rep.s_upper
        assert rep.s_real_lower <= rep.s_real_upper <= rep.upper_bound
        assert rep.criteria_level <= min(3, rep.s_real_lower)
        assert rep.cover.value <= rep.s_real_upper
        if rep.xi_witness is not None:
            assert validate_xi(K, rep.xi_witness)
            assert verify_S(K, rep.matrix_rows, rep.xi_witness.k, "gf2")


def test_analyze_exact_above_three_only_with_full_climb():
    # 6 isolated points: the search reaches the upper bound 5, so the value
    # is exact even though the criteria stop at 3
    rep = analyze(points(6))
    assert rep.s_real_lower == rep.s_real_upper == 5
    assert rep.s_value == 5 and rep.criteria_level == 3


def test_octahedron_cross_check():
    # triple join of point pairs = boundary of the cross-polytope; the three
    # disjoint non-face pairs give level 3, the cube's facet 3-coloring gives
    # the matching polytopal bound, and the search meets the upper bound
    from buchstaber.generators import join

    octa = join(points(2), join(points(2), points(2)))
    rep = analyze(octa, polytopal=True)
    assert rep.s_value == 3 and rep.s_exact
    assert rep.criteria_level == 3 and rep.criterion_witness.case == 5
    assert rep.chromatic_bound == 3
    assert rep.upper_bound == 3


def test_symmetric_polytopes_finish_at_max_k_3():
    # large, highly symmetric polytopes whose non-faces are not one full
    # layer; each analysis takes well under a second
    cases = [
        (join(join(cycle(5), cycle(5)), cycle(5)), (6, 9)),
        (join(cycle(7), cycle(7)), (8, 10)),
        (cyclic_polytope_boundary(8, 14), (3, 6)),
    ]
    for K, (lo, hi) in cases:
        rep = analyze(K, polytopal=True, max_k=3)
        assert (rep.s_lower, rep.s_upper) == (lo, hi)
        assert (rep.s_real_lower, rep.s_real_upper) == (lo, hi)
        assert rep.criteria_level == 3


def test_cycle_family_closed_form():
    # both parities collapse to s = m - 2 under the graph formula, and the
    # xi climb confirms it as the real value too
    for m in (4, 5, 6, 7):
        rep = analyze(cycle(m))
        assert rep.s_exact and rep.s_value == m - 2
        assert rep.s_real_exact and rep.s_real_lower == m - 2


def test_oracle_check_agreement():
    for K in (cycle(4), boundary_simplex(2), points(3)):
        for k in (1, 2, 3):
            r = oracle_check(K, k)
            assert r["agree"]
    r = oracle_check(points(6), 3)  # matrix scan skipped above 16 bits
    assert r["matrix"] is None and r["agree"]


def test_analyze_leaves_no_cyclic_garbage(named_corpus):
    # recursive closures drop their own cycles, so reference counting frees
    # all an analysis makes; the fresh complexes build N(K) inside the check
    cases = [(K, {}) for K in named_corpus] + [
        (cycle(7), {}),  # dim <= 1: the graph colouring
        (cyclic_polytope_boundary(4, 12), dict(polytopal=True, max_k=3)),
        (join(cycle(9), cycle(9)), {}),  # m > 16: transversals, one test per vector
        (cyclic_polytope_boundary(4, 9), dict(max_k=5, node_budget=1000)),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for K, options in cases:
            gc.collect()
            rep = analyze(K, **options)
            assert gc.collect() == 0, (K.m, K.facets, options)
    finally:
        if enabled:
            gc.enable()
    assert not rep.s_real_exact  # the last scan tripped its budget
