"""Corpus constructors: standard complexes, Gale evenness, joins, seeded random."""

from itertools import combinations

import pytest

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
    skeleton,
)


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


def test_cyclic_polytope_guards():
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(1, 4)
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(4, 4)


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
