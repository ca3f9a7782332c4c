"""Complex construction, minimal non-faces, and the dual reconstructions."""

import pytest

from buchstaber.complexes import (
    SimplicialComplex,
    face_mask,
    face_vertices,
    full_mask,
    is_antichain,
    minimal_nonsimplices_by_scan,
    minimal_nonsimplices_by_transversal,
    minimal_transversals,
)
from buchstaber.generators import (
    Lcg,
    boundary_simplex,
    cyclic_polytope_boundary,
    cycle,
    points,
    random_complex,
    simplex,
    skeleton,
)


def masks(K):
    return [face_vertices(f) for f in K.facets]


def test_face_mask_roundtrip():
    assert face_mask([1, 3], 4) == 0b0101
    assert face_vertices(0b0101) == [1, 3]
    assert face_mask([], 4) == 0
    assert face_vertices(0) == []


def test_face_mask_range_errors():
    with pytest.raises(ValueError):
        face_mask([5], 4)
    with pytest.raises(ValueError):
        face_mask([0], 4)


def test_vertex_count_bounds():
    with pytest.raises(ValueError):
        SimplicialComplex(0, [])
    with pytest.raises(ValueError):
        SimplicialComplex(65, [])
    SimplicialComplex(64, [1 << 63])


def test_from_facets_boundary_triangle():
    K = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert masks(K) == [[1, 2], [1, 3], [2, 3]]
    assert K.dimension == 1


def test_from_facets_drops_dominated():
    K = SimplicialComplex.from_facets(3, [[1, 2, 3], [1, 2]])
    assert masks(K) == [[1, 2, 3]]
    assert K == simplex(2)


def test_from_facets_four_cycle():
    K = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
    assert K == cycle(4)


def test_facet_out_of_range():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets(3, [[1, 4]])


def test_empty_complex():
    K = SimplicialComplex.from_facets(3, [])
    assert K.facets == (0,)
    assert K.dimension == -1
    assert K.contains_face(0)
    assert not K.contains_face(1)
    assert sorted(map(face_vertices, K.minimal_nonsimplices())) == [[1], [2], [3]]


def test_from_min_nonsimplices_four_cycle():
    K = SimplicialComplex.from_min_nonsimplices(4, [[1, 3], [2, 4]])
    # independent check: enumerate all subsets containing neither diagonal
    want = []
    for sigma in range(1 << 4):
        if sigma & 0b0101 != 0b0101 and sigma & 0b1010 != 0b1010:
            want.append(sigma)
    for sigma in range(1 << 4):
        assert K.contains_face(sigma) == (sigma in want)
    assert K == cycle(4)


def test_from_min_nonsimplices_trivial_cases():
    assert SimplicialComplex.from_min_nonsimplices(3, [[1, 2, 3]]) == boundary_simplex(2)
    assert SimplicialComplex.from_min_nonsimplices(3, []) == simplex(2)


def test_from_min_nonsimplices_rejects_bad_input():
    with pytest.raises(ValueError):
        SimplicialComplex.from_min_nonsimplices(3, [[1], [1, 2]])  # not an antichain
    with pytest.raises(ValueError):
        SimplicialComplex.from_min_nonsimplices(3, [[]])  # empty non-face
    with pytest.raises(ValueError):
        SimplicialComplex.from_min_nonsimplices(3, [[4]])  # out of range


def test_minimal_nonsimplices_examples():
    assert [face_vertices(w) for w in cycle(4).minimal_nonsimplices()] == [[1, 3], [2, 4]]
    assert [face_vertices(w) for w in points(3).minimal_nonsimplices()] == [
        [1, 2],
        [1, 3],
        [2, 3],
    ]
    assert simplex(4).minimal_nonsimplices() == ()


def test_maximal_simplices_and_dimension():
    assert cycle(4).maximal_simplices() == cycle(4).facets
    assert simplex(2).maximal_simplices() == ((1 << 3) - 1,)
    assert cycle(4).dimension == 1
    assert simplex(4).dimension == 4


def test_is_flag():
    assert cycle(4).is_flag()
    assert not boundary_simplex(2).is_flag()
    assert simplex(2).is_flag()  # vacuous


def test_one_skeleton():
    from buchstaber.generators import complete_graph

    assert simplex(3).one_skeleton() == complete_graph(4)
    assert cycle(4).one_skeleton() == cycle(4)
    assert points(3).one_skeleton() == points(3)


def test_contains_face():
    K = cycle(4)
    assert not K.contains_face(face_mask([1, 3], 4))
    assert K.contains_face(face_mask([1, 2], 4))
    assert K.contains_face(0)


def test_ghost_vertices():
    K = SimplicialComplex.from_facets(4, [[1, 2]])
    assert K.ghost_vertices() == [3, 4]
    assert K.vertices() == [1, 2]
    assert cycle(4).ghost_vertices() == []


def test_antichain_helper():
    assert is_antichain([0b011, 0b101])
    assert not is_antichain([0b001, 0b011])
    assert not is_antichain([0b011, 0b011])  # a repeat contains its copy
    assert not is_antichain([0b111, 0b011, 0b110])
    assert is_antichain([]) and is_antichain([0])
    assert not is_antichain([0b100, 0])


def test_antichain_matches_pairwise_definition():
    # small masks on 5 vertices, so that repeats, equal sizes and nesting
    # all turn up often
    rng = Lcg(7)
    for _ in range(2000):
        ms = [rng.below(32) for _ in range(rng.below(7))]
        want = not any(a & b in (a, b) for i, a in enumerate(ms) for b in ms[i + 1:])
        assert is_antichain(ms) == want, ms


def test_minimal_transversals_basics():
    # hitting sets of {{1,2},{3,4}} are the four mixed pairs
    out = minimal_transversals([0b0011, 0b1100], 4)
    assert sorted(map(face_vertices, out)) == [[1, 3], [1, 4], [2, 3], [2, 4]]
    assert minimal_transversals([], 4) == [0]
    assert minimal_transversals([0], 4) == []  # empty set is unhittable


def test_minimal_transversals_rejects_vertex_outside_m():
    with pytest.raises(ValueError):
        minimal_transversals([0b0011, 0b10000], 4)
    with pytest.raises(ValueError):
        minimal_transversals([-1], 4)
    assert minimal_transversals([0b1000], 4) == [0b1000]


# The benchmark's largest N(K) computations, with |N(K)| from its closed form
# (the non-faces of the 2-skeleton of a simplex are its 4-sets) or as
# recorded in perfbench/expected/answers.json.
LARGE_NONFACE_COUNTS = [
    (skeleton(9, 2), 210),
    (skeleton(11, 2), 495),
    (skeleton(15, 2), 1820),
    (cyclic_polytope_boundary(9, 14), 91),
    (cyclic_polytope_boundary(5, 16), 275),
]


@pytest.mark.parametrize("K, count", LARGE_NONFACE_COUNTS, ids=["D9/2", "D11/2", "D15/2", "C9(14)", "C5(16)"])
def test_nonfaces_at_benchmark_scale(K, count):
    ns = K.minimal_nonsimplices()
    assert len(ns) == count
    # each listed set is a non-face whose every one-smaller subset is a face
    for w in ns:
        assert not K.contains_face(w)
        assert all(K.contains_face(w ^ 1 << (v - 1)) for v in face_vertices(w))
    assert SimplicialComplex.from_min_nonsimplex_masks(K.m, ns) == K
    if K.m <= 12:
        assert minimal_nonsimplices_by_scan(K) == list(ns)


def _random_corpus():
    out = []
    for seed in range(40):
        m = 4 + seed % 4
        out.append(random_complex(m, 3000 + seed, 1, 2, seed % 3))
    return out


def test_roundtrip_through_nonsimplices():
    for K in _random_corpus():
        back = SimplicialComplex.from_min_nonsimplex_masks(K.m, K.minimal_nonsimplices())
        assert back == K


def _twelve_vertex_complex():
    rng = Lcg(99)
    facets = []
    for _ in range(9):
        f = 0
        while f.bit_count() < 4:
            f |= 1 << rng.below(12)
        facets.append(f)
    return SimplicialComplex(12, facets)


def test_nonsimplices_antichain_and_membership():
    for K in _random_corpus() + [_twelve_vertex_complex()]:
        ns = K.minimal_nonsimplices()
        assert is_antichain(ns)
        assert is_antichain(K.facets)
        # sigma is a face iff it contains no minimal non-face
        for sigma in range(1 << K.m):
            free = all(w & ~sigma for w in ns)
            assert K.contains_face(sigma) == free


def test_scan_vs_transversal_cross_check():
    # both algorithms agree through m = 12; the scan is the independent
    # check on the transversal path that minimal_nonsimplices() always takes
    for K in _random_corpus() + [_twelve_vertex_complex()]:
        assert minimal_nonsimplices_by_scan(K) == minimal_nonsimplices_by_transversal(K)


def test_caching_returns_same_tuple():
    K = cycle(5)
    assert K.minimal_nonsimplices() is K.minimal_nonsimplices()


def test_equality_and_hash():
    assert cycle(4) == cycle(4)
    assert hash(cycle(4)) == hash(cycle(4))
    assert cycle(4) != cycle(5)
    assert cycle(4) != SimplicialComplex.from_facets(5, [[1, 2], [2, 3], [3, 4], [1, 4]])


def test_upper_bound_of_empty_complex():
    K = SimplicialComplex.from_facets(3, [])
    assert K.m - K.dimension - 1 == 3
