"""Property tests: the answers do not depend on how the vertices are labelled,
the two minimal non-face algorithms agree with the definition, the face
table agrees with the facet scan, the minimal transversals match a
brute-force oracle and satisfy Berge duality, the constructor keeps exactly
the maximal facets, the matrix verifiers agree with each other, the
GF(2) verifiers that read the shared transpose agree with the per-row loops
they replaced, the verifiers that read the facet table find the same
failing facet as a per-facet bit test, and the xi lift agrees with an
exhaustive scan for the least solution row."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buchstaber import gf2, zlattice
from buchstaber.complexes import (
    TRANSPOSE_MIN_MASKS,
    SimplicialComplex,
    minimal_nonsimplices_by_scan,
    minimal_nonsimplices_by_transversal,
    minimal_transversals,
)
from buchstaber.generators import skeleton
from buchstaber.invariant import (
    COVER_SEARCH_GUARD,
    SearchBudgetExceeded,
    XiWitness,
    _first_unspanning_facet,
    analyze,
    dual_lambda,
    verify_Lambda,
    verify_Lambda_detailed,
    verify_nonsimplex_condition,
    verify_S,
    verify_S_detailed,
    validate_xi,
    xi_search,
    xi_to_matrix,
)
from conftest import nonsimplex_condition_by_enumeration
from oracles import least_solution_rows


def test_hypothesis_profile_is_deterministic():
    assert settings.default.derandomize and settings.default.deadline is None


@st.composite
def complexes(draw):
    """Random facet families on m <= 8 vertices, plus full skeleta of a
    simplex, whose non-faces form one complete layer."""
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(1, 7))
        return skeleton(n, draw(st.integers(0, n - 1)))
    m = draw(st.integers(1, 8))
    facets = draw(st.lists(st.integers(1, (1 << m) - 1), min_size=1, max_size=8))
    K = SimplicialComplex(m, facets)
    assume(len(K.minimal_nonsimplices()) <= COVER_SEARCH_GUARD)
    return K


def relabel(K, perm):
    def image(mask):
        return sum(1 << perm[x] for x in range(K.m) if mask >> x & 1)

    return SimplicialComplex(K.m, [image(f) for f in K.facets])


def xi_outcome(K, k):
    try:
        return xi_search(K, k, use_existence_filter=False) is not None
    except SearchBudgetExceeded:
        return "budget"


def answers(K):
    rep = analyze(K)
    return (
        rep.m, rep.dim, rep.num_min_nonsimplices, rep.criteria_level,
        (rep.s_lower, rep.s_upper, rep.s_exact),
        (rep.s_real_lower, rep.s_real_upper, rep.s_real_exact),
        [xi_outcome(K, k) for k in (1, 2, 3)],
    )


@settings(max_examples=60)
@given(st.data())
def test_relabelling_preserves_answers(data):
    K = data.draw(complexes())
    perm = data.draw(st.permutations(range(K.m)))
    assert answers(relabel(K, perm)) == answers(K)


@st.composite
def facet_families(draw):
    m = draw(st.integers(1, 10))
    facets = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12))
    return SimplicialComplex(m, facets)


def nonfaces_by_definition(K):
    """Every non-face whose one-smaller subsets are all faces, ascending,
    with faces tested against the facets rather than the face table."""
    def is_face(sigma):
        return any(sigma & ~f == 0 for f in K.facets)

    return [s for s in range(1 << K.m)
            if not is_face(s) and all(is_face(s ^ (1 << v)) for v in range(K.m) if s >> v & 1)]


@settings(max_examples=150)
@given(facet_families())
def test_scan_and_transversals_agree(K):
    ns = list(K.minimal_nonsimplices())
    assert ns == minimal_nonsimplices_by_transversal(K) == nonfaces_by_definition(K)
    assert minimal_nonsimplices_by_scan(K) == ns
    assert SimplicialComplex.from_min_nonsimplex_masks(K.m, ns) == K


@st.composite
def set_families(draw):
    """Families of vertex sets on m <= 9 vertices, with repeated members,
    supersets of members, the empty member and the empty family."""
    m = draw(st.integers(0, 9))
    mask = st.integers(0, (1 << m) - 1)
    base = draw(st.lists(mask, max_size=8))
    supersets = [s | draw(mask) for s in base[: draw(st.integers(0, len(base)))]]
    repeats = base[: draw(st.integers(0, len(base)))]
    return m, draw(st.permutations(base + supersets + repeats))


def brute_minimal_transversals(family, m):
    """Every subset of [m] that meets each member and stops doing so when
    any one of its vertices is removed."""
    def hits(t):
        return all(t & s for s in family)

    return [t for t in range(1 << m)
            if hits(t) and not any(t >> v & 1 and hits(t ^ (1 << v)) for v in range(m))]


@settings(max_examples=300)
@given(set_families())
def test_minimal_transversals_match_brute_force(case):
    m, family = case
    assert minimal_transversals(family, m) == brute_minimal_transversals(family, m)


@settings(max_examples=200)
@given(set_families())
def test_berge_duality(case):
    m, family = case
    minimal = sorted({s for s in family if not any(t != s and t & ~s == 0 for t in family)})
    assert minimal_transversals(minimal_transversals(family, m), m) == minimal


@st.composite
def facet_lists(draw):
    """Facet lists on m <= 8 vertices with repeats and nested facets."""
    m = draw(st.integers(1, 8))
    base = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=10))
    subsets = [f & draw(st.integers(0, (1 << m) - 1)) for f in base]
    return m, draw(st.permutations(base + subsets + base[: draw(st.integers(0, len(base)))]))


@settings(max_examples=200)
@given(facet_lists())
def test_face_table_agrees_with_the_facet_scan(case):
    m, facets = case
    K = SimplicialComplex(m, facets)
    masks = [-1, *range(1 << m), 1 << m, (1 << m) | 1]
    # the definition: sigma is a face iff it lies inside some facet
    by_facets = [any(s & ~f == 0 for f in K.facets) for s in masks]
    assert [K.contains_face(s) for s in masks] == by_facets
    assert K._faces is not None


@settings(max_examples=300)
@given(facet_lists())
def test_constructor_keeps_exactly_the_maximal_facets(case):
    m, facets = case
    distinct = set(facets)
    maximal = sorted(f for f in distinct if not any(f != g and f & ~g == 0 for g in distinct))
    assert SimplicialComplex(m, facets).facets == tuple(maximal or [0])


def smith_outside_factors(K, rows, k):
    """The Smith invariant factors of every facet's outside-row matrix,
    padded with zeros to k. The rows span Z^k iff all are 1, and mod a
    prime p iff p divides none (a zero factor fails mod every prime)."""
    out = []
    for sigma in K.facets:
        outside = [rows[i] for i in range(K.m) if not sigma >> i & 1]
        factors = zlattice.smith_invariant_factors(outside) if outside else []
        out += list(factors) + [0] * (k - len(factors))
    return out


@st.composite
def complexes_with_matrices(draw):
    """A random complex on m <= 7 vertices with an m x k matrix over GF(2)
    (row masks) or over the integers. Integer entries are 0/1 for k <= 4 or
    in [-2, 2] for k <= 3, which keeps the primes the enumeration oracle
    checks small; a third of the integer matrices have their first
    column tripled, so that 3 divides the index of every full-rank facet."""
    m = draw(st.integers(1, 7))
    # small facets leave many rows outside, so that full-rank facets with an
    # index above 1 turn up as well as rank-deficient ones
    face = st.frozensets(st.integers(0, m - 1), max_size=draw(st.integers(0, m)))
    K = SimplicialComplex(m, [sum(1 << v for v in f) for f in draw(st.lists(face, min_size=1, max_size=6))])
    ring = draw(st.sampled_from(["gf2", "int"]))
    if ring == "gf2":
        k = draw(st.integers(1, min(m, 4)))
        rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=m, max_size=m))
    else:
        small = draw(st.booleans())
        k = draw(st.integers(1, min(m, 3 if small else 4)))
        entries = st.integers(-2, 2) if small else st.integers(0, 1)
        rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
        scale = draw(st.sampled_from([1, 1, 3]))
        rows = [[scale * row[0]] + row[1:] for row in rows]
    return K, rows, k, ring


def annihilates(lam, rows, k, ring):
    """Every dual row pairs to zero (mod 2 over GF(2)) with every column."""
    if ring == "gf2":
        rows = [[(row >> j) & 1 for j in range(k)] for row in rows]
        lam = [[(lrow >> i) & 1 for i in range(len(rows))] for lrow in lam]
    for lrow in lam:
        for j in range(k):
            dot = sum(x * row[j] for x, row in zip(lrow, rows))
            if (dot % 2 if ring == "gf2" else dot) != 0:
                return False
    return True


@settings(max_examples=400)
@given(complexes_with_matrices())
def test_verifiers_agree(case):
    K, rows, k, ring = case
    ok = verify_S(K, rows, k, ring)
    assert ok == verify_nonsimplex_condition(K, rows, k, ring)
    if ok:
        lam = dual_lambda(rows, K.m, k, ring)
        assert len(lam) == K.m - k
        assert annihilates(lam, rows, k, ring)
        assert verify_Lambda(K, lam, ring)
    if ring == "int":
        # the verdict against the Smith factors, and the definition,
        # enumerated at each prime p <= 5, against the factors p divides
        factors = smith_outside_factors(K, rows, k)
        assert ok == all(d == 1 for d in factors)
        for p in (2, 3, 5):
            assert nonsimplex_condition_by_enumeration(K, rows, k, [p]) == all(d % p for d in factors)


def gathered_verify_lambda(K, rows):
    """verify_Lambda_detailed over GF(2) by a per-row, per-facet bit gather:
    each facet's column submatrix, row by row, must span Z_2^|facet|."""
    if not rows:
        return True, None
    for sigma in K.facets:
        r = sigma.bit_count()
        if r == 0:
            continue
        cols = [c for c in range(K.m) if sigma >> c & 1]
        sub = [sum(((row >> c) & 1) << idx for idx, c in enumerate(cols)) for row in rows]
        if not gf2.spans_full(sub, r):
            return False, sigma
    return True, None


def parity_nonface_condition(K, rows, k):
    """The GF(2) non-face condition by a parity loop over every row for
    every vector, with faces tested against the facets."""
    for a in range(1, 1 << k):
        served = 0
        for i, row in enumerate(rows):
            if (a & row).bit_count() & 1:
                served |= 1 << i
        if any(served & ~f == 0 for f in K.facets):
            return False
    return True


def column_sum_dual(rows, m, k):
    """The kernel basis of the GF(2) columns, each summed bit by bit."""
    cols = [sum(((rows[i] >> j) & 1) << i for i in range(m)) for j in range(k)]
    return gf2.kernel_basis(cols, m)


@st.composite
def gf2_matrices_on_both_sides_of_the_transpose(draw):
    """A complex on m < TRANSPOSE_MIN_MASKS or m >= TRANSPOSE_MIN_MASKS
    vertices with an m x k GF(2) matrix (zero rows frequent, so that some
    served sets are faces) and m-bit dual rows, fewer than
    TRANSPOSE_MIN_MASKS of them or at least that many when m allows."""
    lo = TRANSPOSE_MIN_MASKS
    m = draw(st.one_of(st.integers(1, 10), st.integers(lo, lo + 8)))
    mask = st.integers(0, (1 << m) - 1)
    facets = [
        draw(mask) | draw(mask) if draw(st.booleans()) else draw(mask) & draw(mask)
        for _ in range(draw(st.integers(1, 6)))
    ]
    K = SimplicialComplex(m, facets)
    k = draw(st.integers(0, min(m, 5)))
    rows = draw(st.lists(st.one_of(st.just(0), st.integers(0, (1 << k) - 1)), min_size=m, max_size=m))
    n = draw(st.one_of(st.integers(0, min(m, lo - 1)), st.integers(min(m, lo), m)))
    dual = draw(st.lists(mask, min_size=n, max_size=n))
    return K, rows, k, dual


@settings(max_examples=300)
@given(gf2_matrices_on_both_sides_of_the_transpose())
def test_gf2_verifiers_match_the_per_row_loops(case):
    K, rows, k, dual = case
    assert verify_Lambda_detailed(K, dual, "gf2") == gathered_verify_lambda(K, dual)
    assert verify_nonsimplex_condition(K, rows, k, "gf2") == parity_nonface_condition(K, rows, k)
    want = column_sum_dual(rows, K.m, k)
    if len(want) == K.m - k:
        assert dual_lambda(rows, K.m, k, "gf2") == want
    else:
        with pytest.raises(ValueError):
            dual_lambda(rows, K.m, k, "gf2")


def per_facet_first_unspanning_facet(K, rows, k, ring):
    """The first facet whose outside rows, picked by a bit test per vertex,
    do not span the rank-k lattice, as (sigma, outside indices, inside
    indices)."""
    for sigma in K.facets:
        outside = tuple(i for i in range(K.m) if not sigma >> i & 1)
        if not (gf2.spans_full if ring == "gf2" else zlattice.rows_span_lattice)([rows[i] for i in outside], k):
            return sigma, outside, tuple(i for i in range(K.m) if sigma >> i & 1)
    return None


def per_facet_verify_lambda(K, rows, ring):
    """verify_Lambda_detailed by a bit test per vertex: over GF(2) each
    facet's columns gathered row by row, over Z the transpose's columns on
    the facet zipped back into rows."""
    if not rows:
        return True, None
    columns = list(zip(*rows)) if ring == "int" else None
    for sigma in K.facets:
        cols = [c for c in range(K.m) if sigma >> c & 1]
        if not cols:
            continue
        if ring == "gf2":
            good = gf2.spans_full([sum((row >> c & 1) << j for j, c in enumerate(cols)) for row in rows], len(cols))
        else:
            good = zlattice.rows_span_lattice(zip(*[columns[c] for c in cols]), len(cols))
        if not good:
            return False, sigma
    return True, None


@st.composite
def facet_table_cases(draw):
    """A complex on m <= 7 vertices (facets may leave ghost vertices or be
    only the empty face) with an m x k matrix, k = 0..m, so that some facets
    have fewer outside rows than k, and an r x m dual-shaped matrix,
    r = 0..m, over GF(2) or with integer entries in [-3, 3]."""
    m = draw(st.integers(1, 7))
    face = st.integers(0, (1 << m) - 1)
    # facets of at most a drawn size, so that many complexes keep several
    # and a check can fail past the first
    vertex_set = st.frozensets(st.integers(0, m - 1), min_size=1, max_size=draw(st.integers(1, m)))
    only_empty = draw(st.integers(0, 7)) == 0
    facets = [] if only_empty else draw(st.lists(vertex_set, min_size=1, max_size=6))
    K = SimplicialComplex(m, [sum(1 << v for v in f) for f in facets])
    ring = draw(st.sampled_from(["gf2", "int"]))
    k = draw(st.integers(0, m))
    r = draw(st.integers(0, m))
    if ring == "gf2":
        rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=m, max_size=m))
        dual = draw(st.lists(face, min_size=r, max_size=r))
    else:
        entry = st.integers(-3, 3)
        rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
        dual = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=r, max_size=r))
    return K, rows, k, dual, ring


@settings(max_examples=400)
@given(facet_table_cases())
def test_facet_table_verifiers_match_the_per_facet_bit_tests(case):
    K, rows, k, dual, ring = case
    got = _first_unspanning_facet(K, rows, k, ring)
    assert got == per_facet_first_unspanning_facet(K, rows, k, ring)
    # the helper hands back the facet table's own entry
    assert got is None or any(got is side for side in K.facet_sides())
    assert verify_Lambda_detailed(K, dual, ring) == per_facet_verify_lambda(K, dual, ring)


@pytest.mark.parametrize("ring", ["gf2", "int"])
def test_facet_table_verifiers_on_the_edge_cases(ring):
    def matrix(entries):
        if ring == "gf2":
            return [sum((x & 1) << j for j, x in enumerate(e)) for e in entries]
        return [list(e) for e in entries]

    empty = SimplicialComplex.from_facets(3, [])  # only the empty facet
    ghosts = SimplicialComplex.from_facets(5, [[1, 2], [2, 3]])  # ghost vertices 4, 5
    triangle = SimplicialComplex.from_facets(3, [[1, 2, 3]])  # no row outside the facet
    unit = matrix([(1, 0), (0, 1), (1, 1), (0, 1), (1, 0)])
    cases = [
        (empty, matrix([()] * 3), 0, None),
        (empty, matrix([(1, 0), (0, 1), (0, 0)]), 2, None),
        (ghosts, matrix([()] * 5), 0, None),
        (ghosts, unit, 2, None),
        (ghosts, matrix([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 0)]), 3, 0b11),
        (triangle, matrix([(1,), (1,), (1,)]), 1, 0b111),  # fewer outside rows than k
        (triangle, matrix([()] * 3), 0, None),
    ]
    for K, rows, k, want in cases:
        got = _first_unspanning_facet(K, rows, k, ring)
        assert (None if got is None else got[0]) == want, (K, rows, k)
        assert got == per_facet_first_unspanning_facet(K, rows, k, ring), (K, rows, k)
        assert verify_S_detailed(K, rows, k, ring) == (want is None, want), (K, rows, k)
    # the empty facet puts no column to the test; a ghost vertex's column is
    # never on a facet
    for K, dual, want in [
        (empty, matrix([(0, 0, 0)]), (True, None)),
        (ghosts, matrix([(1, 0, 1, 1, 1), (0, 1, 0, 1, 0)]), (True, None)),
        (ghosts, matrix([(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)]), (False, 0b11)),
        (triangle, matrix([(1, 0, 0), (0, 1, 0)]), (False, 0b111)),
    ]:
        assert verify_Lambda_detailed(K, dual, ring) == want, (K, dual)
        assert per_facet_verify_lambda(K, dual, ring) == want, (K, dual)


@st.composite
def xi_witnesses(draw):
    """A complex on m vertices with facets of at most one, two or three
    vertices, the last vertex a ghost, and a witness at k = 0..6. Its
    images are drawn from N(K); or read off the supports of a random matrix
    with a zero row (a vertex in no image), as a non-face inside the
    support or else the support itself, which always lifts; or taken as any
    vertex set, bits at or above m included. A vector may be left out."""
    m = draw(st.integers(2, 7))
    size = draw(st.integers(1, 3))
    facets = draw(st.lists(st.sets(st.integers(0, m - 2), min_size=1, max_size=size),
                           min_size=1, max_size=6))
    K = SimplicialComplex(m, [sum(1 << x for x in f) for f in facets])
    nonsimp = K.minimal_nonsimplices()
    k = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["nonfaces", "supports", "any"]))
    if kind == "supports":
        rows = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=m, max_size=m))
        rows[draw(st.integers(0, m - 1))] = 0
    images = {}
    for a in range(1, 1 << k):
        if kind == "any":
            images[a] = draw(st.integers(0, (1 << m + 2) - 1))
            continue
        if kind == "supports":
            support = sum(1 << x for x, r in enumerate(rows) if (r & a).bit_count() & 1)
            inside = [w for w in nonsimp if w & ~support == 0]
            images[a] = draw(st.sampled_from(inside)) if inside else support
            continue
        images[a] = draw(st.sampled_from(nonsimp))
    if images and draw(st.booleans()):
        del images[draw(st.sampled_from(sorted(images)))]
    return K, XiWitness(k, images)


@settings(max_examples=400)
@given(xi_witnesses())
def test_xi_lift_is_the_least_solution_row(case):
    K, w = case
    want = least_solution_rows(K.m, w.k, w.assignment)
    if None in want:
        with pytest.raises(ValueError, match="inconsistent"):
            xi_to_matrix(K, w)
    else:
        assert xi_to_matrix(K, w) == want
    well_formed = sorted(w.assignment) == list(range(1, 1 << w.k))
    nonfaces = set(K.minimal_nonsimplices()).issuperset(w.assignment.values())
    assert validate_xi(K, w) == (well_formed and nonfaces and None not in want)
