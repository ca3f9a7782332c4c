"""Complex construction, minimal non-faces, the face set, and the dual
reconstructions."""

from itertools import combinations, permutations
from math import comb

import pytest

from buchstaber import complexes
from buchstaber.complexes import (
    SCAN_VERTEX_LIMIT,
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


def is_face(K, sigma):
    """Face test over the facets, independent of the face set."""
    return any(sigma & ~f == 0 for f in K.facets)


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
    assert cycle(4).facets == (0b0011, 0b0110, 0b1001, 0b1100)
    assert simplex(2).facets == ((1 << 3) - 1,)
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
    K = SimplicialComplex.from_facets(5, [[1, 2, 3], [4]])  # 4 isolated, 5 a ghost
    want = SimplicialComplex.from_facets(5, [[1, 2], [1, 3], [2, 3], [4]])
    assert K.one_skeleton() == want
    assert K.minimal_nonsimplices()
    assert K.one_skeleton() == want  # the same with N(K) built


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
        assert not is_face(K, w)
        assert all(is_face(K, w ^ 1 << (v - 1)) for v in face_vertices(w))
    assert SimplicialComplex.from_min_nonsimplex_masks(K.m, ns) == K
    assert minimal_nonsimplices_by_transversal(K) == list(ns)


def test_nonfaces_of_the_four_skeleton_of_the_15_simplex():
    # the facets are the C(16, 5) = 4 368 five-sets and the minimal
    # non-faces the C(16, 6) = 8 008 six-sets; the face set takes
    # milliseconds where the transversal search walks every facet
    # complement at its top nodes
    K = skeleton(15, 4)
    six_sets = sorted(sum(1 << v for v in c) for c in combinations(range(16), 6))
    assert len(K.facets) == 4368 and len(six_sets) == 8008
    assert list(K.minimal_nonsimplices()) == six_sets
    assert minimal_nonsimplices_by_transversal(K) == six_sets


def empty_caches(K):
    """Whether no derived fact about K has been filled in yet."""
    return all(getattr(K, slot) is None for slot in K.__slots__ if slot not in ("m", "facets", "_dim"))


@pytest.mark.parametrize("n", [15, 16])
def test_scan_and_transversals_agree_across_the_limit(n):
    # skeleton(15, 2) has m = 16, the largest m with a face set; skeleton(16,
    # 2) has m = 17, no face set, and takes the transversals
    K = skeleton(n, 2)
    ns = K.minimal_nonsimplices()
    assert (K.face_bits() is not None) == (K.m <= SCAN_VERTEX_LIMIT)
    assert len(ns) == comb(K.m, 4)
    kept = complexes._kept_low_masks.cache_info().currsize
    assert minimal_nonsimplices_by_scan(skeleton(n, 2)) == list(ns)
    # the scan above keeps the m = 16 masks; at m = 17 the direct call
    # builds its masks (17 of 2^17 bits) and keeps none
    assert complexes._kept_low_masks.cache_info().currsize == kept
    assert minimal_nonsimplices_by_transversal(skeleton(n, 2)) == list(ns)


@pytest.mark.parametrize("K", [skeleton(15, 2), cyclic_polytope_boundary(4, 17)], ids=["m16", "m17"])
def test_direct_scan_stores_nothing_on_the_complex(K):
    assert empty_caches(K)
    assert minimal_nonsimplices_by_scan(K) == minimal_nonsimplices_by_transversal(K)
    assert empty_caches(K)


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 18, 64])
def test_face_set_exists_exactly_up_to_the_limit(m):
    K = points(m)
    faces = K.face_bits()
    assert (faces is None) == (m > SCAN_VERTEX_LIMIT)
    if faces is not None:
        # the empty face and the m vertices
        assert faces == 1 | sum(1 << (1 << v) for v in range(m))
        assert K.face_bits() is faces


@pytest.mark.parametrize("K", [cycle(6), skeleton(15, 2)], ids=["m6", "m16"])
def test_face_test_on_a_fresh_complex_builds_no_nonfaces(K, monkeypatch):
    def refuse(*args):
        raise AssertionError("a face test built N(K)")

    monkeypatch.setattr(complexes, "_minimal_nonfaces", refuse)
    monkeypatch.setattr(complexes, "minimal_nonsimplices_by_transversal", refuse)
    assert K.contains_face(0b11) and not K.contains_face(0b1111)
    assert K.face_bits() is not None
    monkeypatch.undo()
    assert not K.contains_face(K.minimal_nonsimplices()[0])


def test_face_table_edge_cases():
    cases = [
        (SimplicialComplex(1, [1]), []),  # m = 1, the full simplex
        (SimplicialComplex(1, []), [[1]]),  # m = 1, only the empty face
        (SimplicialComplex.from_facets(3, []), [[1], [2], [3]]),  # only the empty face
        (SimplicialComplex.from_facets(4, [[1, 2]]), [[3], [4]]),  # ghost vertices 3, 4
        (SimplicialComplex.from_facets(5, [[1, 2], [2, 3]]), [[1, 3], [4], [5]]),
    ]
    for K, want in cases:
        assert [face_vertices(w) for w in K.minimal_nonsimplices()] == want, K
        assert minimal_nonsimplices_by_transversal(K) == list(K.minimal_nonsimplices())
        faces = K.face_bits()
        assert faces == sum(1 << sigma for sigma in range(1 << K.m) if is_face(K, sigma)), K
        # sigma = -1 and sigma >= 2^m are no faces
        for sigma in (-1, *range(1 << K.m), 1 << K.m, (1 << K.m) | 1):
            assert K.contains_face(sigma) == is_face(K, sigma), (K, sigma)


@pytest.mark.parametrize(
    "K",
    [
        SimplicialComplex.from_facets(3, []),  # only the empty facet
        SimplicialComplex.from_facets(5, [[1, 2], [2, 3]]),  # ghost vertices 4, 5
        simplex(3),
        cyclic_polytope_boundary(4, 7),
        SimplicialComplex(64, [0b11 << i for i in range(7)] + [0b111 << 58, 0b11 << 62]),
    ],
    ids=lambda K: f"m{K.m}-f{len(K.facets)}",
)
def test_facet_sides_follow_the_facets_and_split_the_vertices(K):
    sides = K.facet_sides()
    assert [sigma for sigma, _, _ in sides] == list(K.facets)
    for sigma, outside, inside in sides:
        assert outside == tuple(i for i in range(K.m) if not sigma >> i & 1)
        assert inside == tuple(i for i in range(K.m) if sigma >> i & 1)
        assert sorted(outside + inside) == list(range(K.m))
    assert K.facet_sides() is sides


def test_wide_complex_takes_transversals_without_a_table(monkeypatch):
    def refuse(facets, lows):
        raise AssertionError("a face set was built above SCAN_VERTEX_LIMIT")

    monkeypatch.setattr(complexes, "_face_set", refuse)
    # m = 64: a path on vertices 1..8 and two facets on the top vertices
    facets = [0b11 << i for i in range(7)] + [0b111 << 58, 0b11 << 62]
    K = SimplicialComplex(64, facets)
    ns = K.minimal_nonsimplices()
    assert K.face_bits() is None
    assert ns == tuple(minimal_nonsimplices_by_transversal(K))
    assert is_antichain(ns) and 1 << 8 in ns and 0b101 in ns
    assert K.contains_face(0b11 << 62) and not K.contains_face(1 << 8)


@pytest.mark.parametrize(
    "K",
    [
        cycle(6),
        random_complex(9, 5, 1, 2, 2),
        skeleton(15, 2),  # m = 16, the largest m with a face set
        skeleton(16, 2),  # m = 17
        SimplicialComplex(64, [0b11 << i for i in range(7)] + [0b111 << 58, 0b11 << 62]),
    ],
    ids=lambda K: f"m{K.m}",
)
def test_fresh_complex_face_tests_read_a_table_only_up_to_the_limit(K):
    # no N(K) asked for first: face tests read the face set at
    # m <= SCAN_VERTEX_LIMIT, and above it there is none to read
    top = full_mask(K.m)
    sigmas = [0, 1, 0b11, 0b111, 0b1111, 1 << K.m - 1, 0b11 << K.m - 2, top, -1, top + 1]
    assert [K.contains_face(s) for s in sigmas] == [is_face(K, s) for s in sigmas]
    assert (K.face_bits() is None) == (K.m > SCAN_VERTEX_LIMIT)
    if K.m <= 10:
        assert [K.contains_face(s) for s in range(1 << K.m)] == [
            is_face(K, s) for s in range(1 << K.m)
        ]


@pytest.mark.parametrize("m", [16, 17, 20])
def test_face_tests_match_the_facet_scan_on_both_sides_of_the_limit(m):
    rng = Lcg(m)
    # random facets of 2 to 5 vertices, leaving vertex m a ghost
    facets = []
    for _ in range(40):
        f = 0
        while f.bit_count() < 2 + rng.below(4):
            f |= 1 << rng.below(m - 1)
        facets.append(f)
    top = full_mask(m)
    for K in (SimplicialComplex(m, facets), SimplicialComplex(m, [])):
        sigmas = [-1, 0, top, top + 1, 1 << m - 1, *(1 << v for v in range(m))]
        sigmas += [rng.below(1 << m) & rng.below(1 << m) & rng.below(1 << m) for _ in range(2000)]
        sigmas += [f & rng.below(1 << m) for f in facets for _ in range(5)]
        assert [K.contains_face(s) for s in sigmas] == [is_face(K, s) for s in sigmas]
        assert (K.face_bits() is None) == (m > SCAN_VERTEX_LIMIT)


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
            assert is_face(K, sigma) == free


def test_scan_vs_transversal_cross_check():
    # both algorithms agree through m = 12, where minimal_nonsimplices()
    # takes the scan and the transversals are the independent check
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


@pytest.mark.parametrize(
    "K, count",
    [(cycle(5), 10), (boundary_simplex(3), 24), (points(6), 256)],
    ids=["cycle5", "boundary3", "points6"],
)
def test_automorphisms_map_the_facets_onto_themselves(K, count):
    def image(f, perm):
        return sum(1 << perm[v - 1] for v in face_vertices(f))

    auts = K.automorphisms()
    assert auts[0] == tuple(range(K.m))
    assert len(auts) == count <= 256
    assert len(set(auts)) == len(auts)
    facets = set(K.facets)
    for perm in auts:
        assert sorted(perm) == list(range(K.m))
        assert {image(f, perm) for f in K.facets} == facets
    if count < 256:
        # below the cap every facet-preserving permutation is found
        want = {p for p in permutations(range(K.m)) if {image(f, p) for f in K.facets} == facets}
        assert set(auts) == want
    assert K.automorphisms() is auts
