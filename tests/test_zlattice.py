"""Exact integer matrices: determinants, Smith factors, the elimination
kernel behind the spanning test, 0/1 scans."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buchstaber import gf2, zlattice
from buchstaber.generators import Lcg


def test_det_paper_matrix():
    assert zlattice.det_exact([[1, 1, 0], [1, 0, 1], [1, 1, 1]]) == -1


def test_det_identity_and_empty():
    assert zlattice.det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert zlattice.det_exact([]) == 1


def test_det_requires_square():
    with pytest.raises(ValueError):
        zlattice.det_exact([[1, 2, 3], [4, 5, 6]])


def test_det_counterexample_pattern():
    for k, want in ((4, -3), (6, -5), (8, -7)):
        assert zlattice.det_exact(zlattice.counterexample_matrix(k)) == want
    # odd sizes: bordered block keeps the determinant of the even block
    assert zlattice.det_exact(zlattice.counterexample_matrix(5)) == -3
    assert zlattice.det_exact(zlattice.counterexample_matrix(7)) == -5


def test_counterexample_matrix_shape():
    a4 = zlattice.counterexample_matrix(4)
    assert a4 == [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    a5 = zlattice.counterexample_matrix(5)
    assert a5[0] == [1, 0, 0, 0, 0]
    assert [row[0] for row in a5] == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        zlattice.counterexample_matrix(3)


def test_det_random_vs_permutation_expansion():
    # small independent oracle: Leibniz expansion for 3x3
    rng = Lcg(71)
    from itertools import permutations

    for _ in range(120):
        mat = [[rng.below(11) - 5 for _ in range(3)] for _ in range(3)]
        want = 0
        for perm in permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(3):
                term *= mat[i][perm[i]]
            want += term
        assert zlattice.det_exact(mat) == want


def test_smith_examples():
    assert zlattice.smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert zlattice.smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert zlattice.smith_invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    assert zlattice.smith_invariant_factors([[0, 0], [0, 0]]) == [0, 0]
    assert zlattice.smith_invariant_factors([]) == []
    assert zlattice.smith_invariant_factors([[6, 4], [4, 6]]) == [2, 10]


def test_smith_divisibility_chain_and_det_product():
    rng = Lcg(73)
    for _ in range(150):
        r = 1 + rng.below(4)
        c = 1 + rng.below(4)
        mat = [[rng.below(9) - 4 for _ in range(c)] for _ in range(r)]
        factors = zlattice.smith_invariant_factors(mat)
        assert len(factors) == min(r, c)
        for a, b in zip(factors, factors[1:]):
            if b == 0:
                assert all(x == 0 for x in factors[factors.index(b):])
                break
            assert a != 0 and b % a == 0
        if r == c:
            det = zlattice.det_exact(mat)
            prod = 1
            for f in factors:
                prod *= f
            assert prod == abs(det)


def test_det_parity_matches_gf2_rank():
    rng = Lcg(77)
    for _ in range(200):
        n = 1 + rng.below(8)
        mat = [[rng.below(2) for _ in range(n)] for _ in range(n)]
        det = zlattice.det_exact(mat)
        rows = [sum(bit << j for j, bit in enumerate(row)) for row in mat]
        full_rank = gf2.rank(rows) == n
        assert (det % 2 != 0) == full_rank


def test_rows_span_lattice_examples():
    assert zlattice.rows_span_lattice([[1, 0], [0, 1], [1, 1]], 2)
    assert not zlattice.rows_span_lattice([[2, 0], [0, 1]], 2)
    assert zlattice.rows_span_lattice([[1, 2], [1, 3]], 2)
    assert zlattice.rows_span_lattice([], 0)
    assert not zlattice.rows_span_lattice([], 1)


def test_span_implies_gf2_span_and_converse_small():
    # integral spanning always gives mod-2 spanning; for 0/1 rows and k <= 3
    # the reverse lift also holds (odd determinant minors are +-1 there)
    for k in (1, 2, 3):
        all_rows = list(range(1 << k))
        for t in range(0, 7):
            for combo in combinations(all_rows, min(t, len(all_rows))):
                rows = [[(r >> j) & 1 for j in range(k)] for r in combo]
                z_span = zlattice.rows_span_lattice(rows, k)
                g_span = gf2.spans_full(list(combo), k)
                assert z_span == g_span


def test_lemma_scan_small_sizes_clean():
    assert zlattice.lemma_r23_scan(1) is None
    assert zlattice.lemma_r23_scan(2) is None
    assert zlattice.lemma_r23_scan(3) is None


def test_lemma_scan_finds_4x4_counterexample():
    hit = zlattice.lemma_r23_scan(4)
    assert hit is not None
    det = zlattice.det_exact(hit)
    assert det % 2 != 0 and det not in (1, -1)
    # canonical scan order pins the first counterexample
    assert hit == [[0, 1, 1, 1], [1, 0, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0]]
    assert det == 3


def test_lemma_scan_guard():
    with pytest.raises(ValueError):
        zlattice.lemma_r23_scan(5)


def test_smith_row_transform_is_unimodular():
    rng = Lcg(79)
    for _ in range(80):
        r = 1 + rng.below(4)
        c = 1 + rng.below(4)
        mat = [[rng.below(7) - 3 for _ in range(c)] for _ in range(r)]
        factors, u = zlattice.smith_row_transform(mat)
        assert factors == zlattice.smith_invariant_factors(mat)
        assert len(u) == r and all(len(row) == r for row in u)
        assert zlattice.det_exact(u) in (1, -1)


@st.composite
def integer_matrices(draw):
    """(rows, k): up to 8 rows of k <= 5 entries, in [-20, 20] or 0/1."""
    k = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([st.integers(-20, 20), st.integers(0, 1)]))
    rows = draw(st.lists(st.lists(entries, min_size=k, max_size=k), max_size=8))
    return rows, k


@settings(max_examples=400)
@given(integer_matrices())
def test_elimination_agrees_with_smith(case):
    rows, k = case
    factors = zlattice.smith_invariant_factors(rows)
    smith_spans = len(factors) == k and all(d == 1 for d in factors)
    assert zlattice.rows_span_lattice(rows, k) == smith_spans
    slots = zlattice.echelon(rows, k)
    full_rank = len(factors) == k and all(factors)
    assert all(b is not None for b in slots) == full_rank
    if full_rank:
        # both products are the index of the row lattice in Z^k
        assert math.prod(b[t] for t, b in enumerate(slots)) == math.prod(factors)


@settings(max_examples=300)
@given(integer_matrices())
def test_elimination_transform_is_unimodular_and_echelon(case):
    rows, k = case
    r = len(rows)
    # each row carries its unit vector; the slots and the zero rows are then
    # the rows of one transform U, and U @ rows is the echelon basis
    kernel = []
    slots = zlattice.echelon([row + [int(i == j) for j in range(r)] for i, row in enumerate(rows)], k, kernel)
    basis = [b for b in slots if b is not None]
    u = [v[k:] for v in basis + kernel]
    assert len(u) == r and zlattice.det_exact(u) in (1, -1)
    for v in basis + kernel:
        assert [sum(x * row[j] for x, row in zip(v[k:], rows)) for j in range(k)] == v[:k]
    for t, b in enumerate(slots):
        if b is not None:
            assert all(x == 0 for x in b[:t]) and b[t] > 0
    assert all(x == 0 for v in kernel for x in v[:k])


def test_elimination_stops_at_z_k():
    def rows():
        yield [2, 0]
        yield [0, 1]
        yield [1, 0]  # merges with the slot of pivot 2: the lattice is Z^2
        raise AssertionError("read a row past Z^2")

    assert zlattice.echelon(rows(), 2) == [[1, 0], [0, 1]]
    assert zlattice.rows_span_lattice(rows(), 2)
    # a pivot above 1 keeps the reading going to the last row
    assert zlattice.echelon([[2, 0], [0, 1]], 2) == [[2, 0], [0, 1]]
    assert zlattice.echelon([[1, 1], [2, 2]], 2) == [[1, 1], None]
    # with a kernel every row is read
    kernel = []
    assert zlattice.echelon([[1, 0], [0, 1], [3, -4]], 2, kernel) == [[1, 0], [0, 1]]
    assert kernel == [[0, 0]]


def test_unit_pivot_reduction_keeps_the_kernel_combinations():
    # rows 2 and 3 meet the unit pivot of slot 0 and lose 3 and -2 times it;
    # extended by the identity, the kernel row is the combination 2, 0, 1
    rows = [[1, 2], [3, 7], [-2, -4]]
    kernel = []
    slots = zlattice.echelon([row + [int(i == j) for j in range(3)] for i, row in enumerate(rows)], 2, kernel)
    assert slots == [[1, 2, 1, 0, 0], [0, 1, -3, 1, 0]]
    assert kernel == [[0, 0, 2, 0, 1]]
    assert zlattice.rows_span_lattice(rows, 2)
    assert not zlattice.rows_span_lattice([[1, 2], [3, 6], [-1, 1]], 2)
