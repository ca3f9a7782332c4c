"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 5 exercises every graph on up to 6 vertices: the 2^C(m,2) edge
sets are deduplicated up to vertex permutation by orbit enumeration (208
classes), and each class is analyzed exactly under default settings.
"""

import time
from itertools import combinations, permutations

import pytest

from buchstaber import formats
from buchstaber.complexes import SimplicialComplex, face_vertices
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
)
from buchstaber.invariant import (
    analyze,
    ayzenberg_s,
    check_criteria,
    chromatic_number,
    matrix_search,
    s_real,
    verify_S,
    verify_nonsimplex_condition,
    xi_search,
    xi_to_matrix,
)
from buchstaber.zlattice import counterexample_matrix, det_exact, lemma_r23_scan
from oracles import edge_facet_chromatic


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_acceptance_1_census_three_way_agreement(census_complexes):
    t0 = time.time()
    disagreements = []
    for K in census_complexes:
        level = check_criteria(K)[0]
        for k in (1, 2, 3):
            xi = xi_search(K, k, use_existence_filter=False) is not None
            mat = matrix_search(K, k) is not None
            crit = level >= k
            if not (xi == mat == crit):
                disagreements.append((K, k, xi, mat, crit))
    elapsed = time.time() - t0
    ok = not disagreements and elapsed < 60
    _verdict(
        1,
        ok,
        f"census m<=4 ({len(census_complexes)} complexes, k=1..3): "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert not disagreements
    assert elapsed < 60


def test_acceptance_2_random_corpus_agreement(random_corpus):
    t0 = time.time()
    assert len(random_corpus) >= 500
    assert all(5 <= K.m <= 8 for K in random_corpus)
    disagreements = []
    for K in random_corpus:
        level = check_criteria(K)[0]
        for k in (1, 2, 3):
            xi = xi_search(K, k, use_existence_filter=False) is not None
            if xi != (level >= k):
                disagreements.append((K, k))
    # exhaustive matrix-scan spot checks where the scan is tractable
    spots = 0
    i = 0
    while spots < 50:
        K = random_corpus[(i * 7) % len(random_corpus)]
        k = 1 + i % 3
        i += 1
        if K.m * k > 16:
            continue
        xi = xi_search(K, k, use_existence_filter=False) is not None
        mat = matrix_search(K, k) is not None
        if xi != mat:
            disagreements.append((K, k, "matrix"))
        spots += 1
    elapsed = time.time() - t0
    ok = not disagreements and elapsed < 600
    _verdict(
        2,
        ok,
        f"random corpus ({len(random_corpus)} complexes, k=1..3, 50 matrix "
        f"spot checks): {len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert not disagreements
    assert elapsed < 600


def test_acceptance_3_odd_determinant_scan():
    t0 = time.time()
    ok = lemma_r23_scan(2) is None and lemma_r23_scan(3) is None
    hit = lemma_r23_scan(4)
    found = hit is not None
    if found:
        d = det_exact(hit)
        found = d % 2 != 0 and d not in (1, -1)
    dets = [det_exact(counterexample_matrix(k)) for k in (4, 6, 8)]
    pattern_ok = dets == [-3, -5, -7]
    elapsed = time.time() - t0
    ok = ok and found and pattern_ok and elapsed < 5
    _verdict(
        3,
        ok,
        f"0/1 scans: n=2,3 clean, n=4 counterexample found, "
        f"pattern dets {dets}, {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_4_witness_lifting(census_complexes, random_corpus):
    t0 = time.time()
    checked = 0
    failures = 0
    for K in list(census_complexes) + list(random_corpus):
        for k in (1, 2, 3):
            w = xi_search(K, k)
            if w is None:
                break
            rows = xi_to_matrix(K, w)
            int_rows = [[(r >> j) & 1 for j in range(k)] for r in rows]
            if not verify_S(K, int_rows, k, "int"):
                failures += 1
            checked += 1
    elapsed = time.time() - t0
    ok = failures == 0 and checked > 0
    _verdict(
        4,
        ok,
        f"0/1 lifting of {checked} GF(2) witnesses to the integers: "
        f"{failures} failures, {elapsed:.1f}s",
    )
    assert ok


def _graph_classes(m):
    pairs = list(combinations(range(m), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(m)):
        tables.append([idx[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs])
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        orbit = set()
        for table in tables:
            im = 0
            rest = mask
            while rest:
                low = rest & -rest
                im |= 1 << table[low.bit_length() - 1]
                rest ^= low
            orbit.add(im)
        for x in orbit:
            seen[x] = 1
        reps.append(mask)
    return pairs, reps


def test_acceptance_5_graph_oracle():
    t0 = time.time()
    classes = 0
    violations = []
    for m in range(1, 7):
        pairs, reps = _graph_classes(m)
        for emask in reps:
            facets = [
                (1 << a) | (1 << b)
                for i, (a, b) in enumerate(pairs)
                if emask >> i & 1
            ]
            facets += [1 << v for v in range(m)]
            G = SimplicialComplex(m, facets)
            classes += 1
            ayz = ayzenberg_s(G)
            r = s_real(G)
            if r.lower < ayz:
                violations.append((m, emask, "s_real", r.lower, ayz))
            rep = analyze(G)
            gamma = edge_facet_chromatic(G)
            if chromatic_number(G) != gamma:
                violations.append((m, emask, "chromatic_number", gamma))
            if not (rep.s_exact and rep.s_value == G.m - gamma.bit_length()):
                violations.append((m, emask, "analyze", rep.s_value))
    spot = {
        "K4": analyze(complete_graph(4)).s_value,
        "C5": analyze(cycle(5)).s_value,
        "C4": analyze(cycle(4)).s_value,
        "3 points": analyze(points(3)).s_value,
    }
    spots_ok = spot == {"K4": 1, "C5": 3, "C4": 2, "3 points": 2}
    elapsed = time.time() - t0
    ok = not violations and spots_ok and elapsed < 300
    _verdict(
        5,
        ok,
        f"graph oracle over {classes} classes (m<=6): "
        f"{len(violations)} violations, spots {spot}, {elapsed:.1f}s",
    )
    assert not violations
    assert spots_ok
    assert elapsed < 300


def test_acceptance_6_headline_values():
    t0 = time.time()
    results = {}
    for n in (1, 2, 3, 4, 5, 6):
        results[f"simplex{n}"] = analyze(simplex(n)).s_value
    for n in (2, 3, 4, 5):
        results[f"boundary{n}"] = analyze(boundary_simplex(n)).s_value
    results["square"] = analyze(cycle(4)).s_value
    t_c13 = time.time()
    c13 = cyclic_polytope_boundary(13, 15)
    ns = c13.minimal_nonsimplices()
    level, witness = check_criteria(c13)
    rep = analyze(c13)
    c13_elapsed = time.time() - t_c13
    ok = (
        all(results[f"simplex{n}"] == 0 for n in (1, 2, 3, 4, 5, 6))
        and all(results[f"boundary{n}"] == 1 for n in (2, 3, 4, 5))
        and results["square"] == 2
        and len(ns) == 2
        and level >= 2
        and rep.upper_bound == 2
        and rep.s_exact
        and rep.s_value == 2
        and c13_elapsed < 60
    )
    elapsed = time.time() - t0
    _verdict(
        6,
        ok,
        f"headline values {results}; cyclic(13,15): s=2 exact in "
        f"{c13_elapsed:.1f}s; total {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_7_condition_equivalence(random_corpus):
    t0 = time.time()
    rng = Lcg(424242)
    bad_gf2 = 0
    for i in range(1000):
        K = random_corpus[rng.below(len(random_corpus))]
        k = 1 + rng.below(3)
        rows = [rng.below(1 << k) for _ in range(K.m)]
        if verify_S(K, rows, k, "gf2") != verify_nonsimplex_condition(K, rows, k, "gf2"):
            bad_gf2 += 1
    bad_int = 0
    for i in range(200):
        m = 4 + rng.below(3)
        K = random_complex(m, 77000 + i, 1, 2, i % 2)
        k = 1 + rng.below(3)
        rows = [[rng.below(7) - 3 for _ in range(k)] for _ in range(m)]
        if verify_S(K, rows, k, "int") != verify_nonsimplex_condition(K, rows, k, "int"):
            bad_int += 1
    elapsed = time.time() - t0
    ok = bad_gf2 == 0 and bad_int == 0
    _verdict(
        7,
        ok,
        f"condition equivalence: 1000 GF(2) pairs ({bad_gf2} bad), "
        f"200 integer pairs ({bad_int} bad), {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_8_bound_suite(census_complexes, random_corpus, named_corpus, corpus_reports):
    t0 = time.time()
    violations = []
    small_reports = [analyze(K) for K in census_complexes + named_corpus]
    for K, rep in zip(
        list(census_complexes) + list(named_corpus) + list(random_corpus),
        small_reports + corpus_reports,
    ):
        if rep.criteria_level > min(3, rep.s_real_lower):
            violations.append((K, "criteria>s_real"))
        if rep.s_real_upper > rep.upper_bound:
            violations.append((K, "s_real>upper"))
        cap = rep.s_real_lower if rep.s_real_exact else rep.s_real_upper
        if rep.cover.value > cap:
            violations.append((K, "cover>s_real"))
        if rep.s_lower > rep.s_upper:
            violations.append((K, "s interval"))
    join_checks = 0
    base = named_corpus[:10]
    for i, K1 in enumerate(base):
        for K2 in base[i:][:3]:
            if K1.m + K2.m > 14:
                continue
            j = join(K1, K2)
            want = list(K1.minimal_nonsimplices())
            want += [w << K1.m for w in K2.minimal_nonsimplices()]
            if sorted(want) != list(j.minimal_nonsimplices()):
                violations.append((K1, K2, "join law"))
            if K1.minimal_nonsimplices() and K2.minimal_nonsimplices():
                if check_criteria(j)[0] < 2:
                    violations.append((K1, K2, "join criteria"))
            join_checks += 1
    elapsed = time.time() - t0
    ok = not violations
    _verdict(
        8,
        ok,
        f"bound suite over {len(small_reports) + len(corpus_reports)} complexes "
        f"and {join_checks} joins: {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations


def test_acceptance_9_determinism(random_corpus, corpus_reports):
    t0 = time.time()
    first = [formats.report_to_json(rep) for rep in corpus_reports]
    second = [formats.report_to_json(analyze(K)) for K in random_corpus]
    ok = first == second
    elapsed = time.time() - t0
    _verdict(
        9,
        ok,
        f"determinism on {len(random_corpus)} reports: rerun identical {ok}, "
        f"{elapsed:.1f}s",
    )
    assert ok
