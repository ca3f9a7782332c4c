"""Property tests: the answers do not depend on how the vertices are labelled,
and the two minimal non-face algorithms agree."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buchstaber.complexes import (
    SimplicialComplex,
    minimal_nonsimplices_by_scan,
    minimal_nonsimplices_by_transversal,
)
from buchstaber.generators import skeleton
from buchstaber.invariant import (
    COVER_SEARCH_GUARD,
    SearchBudgetExceeded,
    analyze,
    xi_search,
)


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


@settings(max_examples=60, derandomize=True, deadline=None)
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(facet_families())
def test_scan_and_transversals_agree(K):
    ns = minimal_nonsimplices_by_scan(K)
    assert ns == minimal_nonsimplices_by_transversal(K)
    assert list(K.minimal_nonsimplices()) == ns
    assert SimplicialComplex.from_min_nonsimplex_masks(K.m, ns) == K
