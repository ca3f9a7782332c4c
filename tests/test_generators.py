"""Corpus constructors: standard complexes, Gale evenness, joins, seeded random."""

import gc
import hashlib
import time
from itertools import combinations
from math import comb

import pytest

from buchstaber import generators
from buchstaber.formats import complex_to_text
from buchstaber.complexes import SimplicialComplex, face_vertices
from buchstaber.generators import (
    Lcg,
    boundary_simplex,
    complete_graph,
    cycle,
    cyclic_facet_count,
    cyclic_polytope_boundary,
    join,
    points,
    random_complex,
    simplex,
    skeleton,
)
from conftest import keeps_in_corpus, random_corpus_draws
from oracles import cyclic_facets_by_subsets

# SHA-256 of the complex texts of every random corpus draw, rejected ones
# included, then of the six seeded random members of the benchmark's
# polytopes-wide workload: (m, p_num, p_den, glued faces, seeds).
SEEDED_CORPORA_SHA256 = "fafe90163dc9e213ab76b58231beee6a83ed97e95c5113931ce567a22ff76948"
WIDE_RANDOM_FAMILIES = ((14, 3, 4, 2, (14001, 14002, 14003)), (16, 4, 5, 4, (16001, 16002, 16003)))


def test_simplex_and_boundary():
    assert simplex(2).facets == (0b111,)
    assert sorted(map(face_vertices, boundary_simplex(2).facets)) == [
        [1, 2],
        [1, 3],
        [2, 3],
    ]
    assert boundary_simplex(1) == points(2)


def test_skeleton():
    assert skeleton(4, 1) == complete_graph(5)
    assert skeleton(3, 2) == boundary_simplex(3)
    assert skeleton(2, 0) == points(3)
    with pytest.raises(ValueError):
        skeleton(2, 3)


def test_cycle_and_graphs():
    assert sorted(map(face_vertices, cycle(4).facets)) == [[1, 2], [1, 4], [2, 3], [3, 4]]
    assert len(complete_graph(5).facets) == 10
    with pytest.raises(ValueError):
        cycle(2)


def test_cyclic_polytope_pentagon():
    assert cyclic_polytope_boundary(2, 5) == cycle(5)
    assert cyclic_polytope_boundary(2, 7) == cycle(7)


def test_cyclic_polytope_3d_facet_count():
    # simplicial 3-polytopes have f2 = 2*v - 4
    for m in (5, 6, 7, 8):
        K = cyclic_polytope_boundary(3, m)
        assert len(K.facets) == 2 * m - 4
        assert K.dimension == 2


def test_cyclic_polytope_pure_pseudomanifold():
    for n, m in ((2, 5), (3, 6), (3, 7), (4, 7)):
        K = cyclic_polytope_boundary(n, m)
        assert all(f.bit_count() == n for f in K.facets)
        # each ridge lies in exactly two facets
        ridges = {}
        for f in K.facets:
            for v in range(K.m):
                if f >> v & 1:
                    ridges[f ^ (1 << v)] = ridges.get(f ^ (1 << v), 0) + 1
        assert set(ridges.values()) == {2}


def test_cyclic_polytope_13_15():
    K = cyclic_polytope_boundary(13, 15)
    assert len(K.facets) == 56
    assert K.dimension == 12
    ns = K.minimal_nonsimplices()
    assert [face_vertices(w) for w in ns] == [
        [2, 4, 6, 8, 10, 12, 14],
        [1, 3, 5, 7, 9, 11, 13, 15],
    ]


def test_cyclic_polytope_matches_the_subset_scan(monkeypatch):
    # the facets as built, before the constructor sorts them and drops repeats
    monkeypatch.setattr(generators, "SimplicialComplex", lambda m, facets: facets)
    for m in range(3, 15):
        for n in range(2, m):
            built = cyclic_polytope_boundary(n, m)
            assert sorted(built) == cyclic_facets_by_subsets(n, m), (n, m)
            assert len(built) == len(set(built)) == cyclic_facet_count(n, m), (n, m)
    for n, m, count in ((8, 22, 3740), (10, 20, 4004), (6, 20, 800)):
        built = cyclic_polytope_boundary(n, m)
        assert len(built) == len(set(built)) == cyclic_facet_count(n, m) == count
        assert {f.bit_count() for f in built} == {n}


def test_cyclic_polytope_guards(monkeypatch):
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(1, 4)
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(4, 4)
    assert cyclic_polytope_boundary(3, 64).m == 64

    def build(m, facets):
        raise AssertionError(f"facets of C^n({m}) were built")

    # above the vertex limit the arguments are refused before any facet is
    # built, not by the complex constructor afterwards
    monkeypatch.setattr(generators, "SimplicialComplex", build)
    for n, m in ((2, 65), (3, 100)):
        with pytest.raises(ValueError, match=r"m=\d+ outside 1\.\.64"):
            cyclic_polytope_boundary(n, m)


def test_cyclic_polytope_leaves_no_cyclic_garbage():
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n, m in ((2, 5), (3, 9), (4, 12), (7, 15), (8, 22)):
            gc.collect()
            K = cyclic_polytope_boundary(n, m)
            assert gc.collect() == 0, (n, m)
    finally:
        if enabled:
            gc.enable()
    assert len(K.facets) == 3740


def test_facet_count_guard_refuses_before_building(monkeypatch):
    # the largest generator calls in the tests stay far below the limit
    assert max(comb(16, 5), comb(20, 4), cyclic_facet_count(8, 22)) < generators.MAX_FACETS // 200
    factor = skeleton(15, 3)  # 1 820 facets

    def build(m, facets):
        raise AssertionError(f"{len(facets)} facets on {m} vertices were built")

    monkeypatch.setattr(generators, "SimplicialComplex", build)
    start = time.perf_counter()
    for make in (
        lambda: skeleton(40, 20),  # about 2.7e11 facets
        lambda: cyclic_polytope_boundary(20, 40),  # about 4.0e7
        lambda: join(factor, factor),  # 1 820^2
    ):
        with pytest.raises(ValueError, match=r"facets, limit is 1048576$"):
            make()
    assert time.perf_counter() - start < 5


def test_facet_count_guard_counts_exactly(monkeypatch):
    monkeypatch.setattr(generators, "MAX_FACETS", 10)
    assert len(skeleton(4, 1).facets) == len(skeleton(4, 2).facets) == 10
    assert len(cyclic_polytope_boundary(2, 10).facets) == 10
    assert len(join(points(2), points(5)).facets) == 10
    for make in (
        lambda: skeleton(5, 1),
        lambda: cyclic_polytope_boundary(2, 11),
        lambda: join(points(2), points(6)),
    ):
        with pytest.raises(ValueError, match="limit is 10$"):
            make()


def test_join_two_point_pairs():
    K = join(points(2), points(2))
    assert sorted(map(face_vertices, K.facets)) == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert [face_vertices(w) for w in K.minimal_nonsimplices()] == [[1, 2], [3, 4]]


def test_join_segments_gives_full_simplex():
    assert join(simplex(1), simplex(1)) == simplex(3)


def test_join_boundaries():
    K = join(boundary_simplex(2), boundary_simplex(2))
    assert [face_vertices(w) for w in K.minimal_nonsimplices()] == [
        [1, 2, 3],
        [4, 5, 6],
    ]


def test_join_nonsimplices_law():
    pairs = [
        (cycle(4), points(3)),
        (boundary_simplex(2), cycle(5)),
        (points(2), simplex(2)),
        (random_complex(5, 17), random_complex(4, 18)),
    ]
    for K1, K2 in pairs:
        j = join(K1, K2)
        want = list(K1.minimal_nonsimplices())
        want += [w << K1.m for w in K2.minimal_nonsimplices()]
        assert sorted(want) == list(j.minimal_nonsimplices())


def test_lcg_is_reproducible():
    a = Lcg(123)
    b = Lcg(123)
    assert [a.next_u32() for _ in range(5)] == [b.next_u32() for _ in range(5)]
    # fixed recurrence, frozen output
    assert Lcg(0).next_u32() == Lcg(0).next_u32()


def test_random_complex_deterministic():
    a = random_complex(6, 42, 1, 2, 1)
    b = random_complex(6, 42, 1, 2, 1)
    assert a == b
    assert random_complex(6, 43, 1, 2, 1) != a


def test_random_complex_flag_when_no_extra_faces():
    for seed in range(12):
        K = random_complex(6, 400 + seed)
        assert K.is_flag()


def test_random_complex_guards():
    with pytest.raises(ValueError):
        random_complex(17, 1)
    with pytest.raises(ValueError):
        random_complex(5, 1, 3, 2)


def test_join_vertex_limit():
    with pytest.raises(ValueError):
        join(simplex(40), simplex(40))


def test_seeded_corpora_bytes_are_pinned():
    digest = hashlib.sha256()
    draws = kept = 0
    for K in random_corpus_draws():
        digest.update(complex_to_text(K).encode())
        draws += 1
        kept += keeps_in_corpus(K)
        if kept == 500:
            break
    for m, p_num, p_den, extra, seeds in WIDE_RANDOM_FAMILIES:
        for seed in seeds:
            digest.update(complex_to_text(random_complex(m, seed, p_num, p_den, extra)).encode())
    assert draws == 511
    assert digest.hexdigest() == SEEDED_CORPORA_SHA256
