"""GF(2) kernels: rank, the all-ones solution sets and their least member,
and the odd circuit oracle of tests/oracles.py."""

from itertools import combinations

import pytest

from buchstaber import gf2
from buchstaber.generators import Lcg
from oracles import CIRCUIT_MAX_DIM, odd_circuits


def test_rank_examples():
    assert gf2.rank([0b01, 0b10]) == 2
    assert gf2.rank([0b11, 0b11]) == 1
    assert gf2.rank([]) == 0


def test_spans_full():
    assert gf2.spans_full([0b01, 0b10, 0b11], 2)
    assert not gf2.spans_full([0b11], 2)
    assert gf2.spans_full([], 0)


def test_rank_monotone_under_new_rows():
    rng = Lcg(5)
    for _ in range(300):
        k = 1 + rng.below(6)
        rows = [rng.below(1 << k) for _ in range(rng.below(7))]
        r = gf2.rank(rows)
        assert r <= min(len(rows), k)
        extra = rng.below(1 << k)
        assert gf2.rank(rows + [extra]) >= r


def test_solve_all_ones_examples():
    assert gf2.solve_all_ones([0b01, 0b10], 2) == 0b11
    assert gf2.solve_all_ones([0b01, 0b10, 0b11], 2) is None
    assert gf2.solve_all_ones([0b01, 0b11], 2) == 0b01
    assert gf2.solve_all_ones([], 3) == 0


def test_solve_all_ones_dimension_guard():
    with pytest.raises(ValueError):
        gf2.solve_all_ones([1], 17)


def test_solutions_is_the_exhaustive_solution_set():
    rng = Lcg(13)
    for _ in range(600):
        k = rng.below(9)
        # a zero constraint <0, x> = 1 has no solution
        cons = [rng.below(1 << k) for _ in range(rng.below(7))]
        want = 0
        for x in range(1 << k):
            if all((a & x).bit_count() % 2 == 1 for a in cons):
                want |= 1 << x
        assert gf2.solutions(cons, k) == want, (cons, k)


def test_solutions_refuses_constraints_outside_the_space():
    for a in (4, 7, -1):
        with pytest.raises(ValueError, match="outside"):
            gf2.solutions([1, a], 2)
    for k in (-1, gf2.MAX_DIM + 1):
        with pytest.raises(ValueError, match="dimension"):
            gf2.solutions([], k)


def test_solve_all_ones_against_exhaustive_scan():
    rng = Lcg(11)
    for _ in range(600):
        k = 1 + rng.below(5)
        cons = [1 + rng.below((1 << k) - 1) for _ in range(rng.below(7))]
        got = gf2.solve_all_ones(cons, k)
        sols = [
            x
            for x in range(1 << k)
            if all((a & x).bit_count() % 2 == 1 for a in cons)
        ]
        if sols:
            assert got == min(sols)
        else:
            assert got is None


def test_solve_none_iff_odd_zero_sum_subset():
    rng = Lcg(23)
    for _ in range(300):
        k = 1 + rng.below(4)
        cons = sorted({1 + rng.below((1 << k) - 1) for _ in range(rng.below(6))})
        got = gf2.solve_all_ones(cons, k)
        obstruction = False
        for t in range(1, len(cons) + 1, 2):
            for sub in combinations(cons, t):
                acc = 0
                for a in sub:
                    acc ^= a
                if acc == 0:
                    obstruction = True
        assert (got is None) == obstruction


def test_kernel_basis():
    rng = Lcg(37)
    for _ in range(200):
        n = 1 + rng.below(8)
        rows = [rng.below(1 << n) for _ in range(rng.below(6))]
        basis = gf2.kernel_basis(rows, n)
        assert len(basis) == n - gf2.rank(rows)
        for v in basis:
            for r in rows:
                assert (v & r).bit_count() % 2 == 0
        assert gf2.rank(basis) == len(basis)


def test_odd_circuits_k2():
    assert odd_circuits(2) == ((1, 2, 3),)


def test_odd_circuits_k3_are_the_seven_triples():
    want = {
        (1, 2, 3),
        (1, 4, 5),
        (1, 6, 7),
        (2, 4, 6),
        (2, 5, 7),
        (3, 4, 7),
        (3, 5, 6),
    }
    got = odd_circuits(3)
    assert len(got) == 7
    assert set(got) == want


def test_odd_circuits_k4_against_subset_scan():
    # independent oracle: scan all odd subsets of the 15 nonzero vectors
    def indep(sub):
        return gf2.rank(list(sub)) == len(sub)

    want = set()
    for t in (3, 5):
        for sub in combinations(range(1, 16), t):
            acc = 0
            for v in sub:
                acc ^= v
            if acc == 0 and all(indep(c) for c in combinations(sub, t - 1)):
                want.add(sub)
    got = odd_circuits(4)
    assert set(got) == want
    assert len(got) == 203
    assert sum(1 for c in got if len(c) == 3) == 35
    assert sum(1 for c in got if len(c) == 5) == 168
    assert (1, 2, 4, 8, 15) in got


def test_odd_circuit_invariants():
    for k in (2, 3, 4, 5):
        for c in odd_circuits(k):
            acc = 0
            for v in c:
                acc ^= v
            assert acc == 0
            assert len(c) % 2 == 1
            for drop in range(len(c)):
                rest = [v for i, v in enumerate(c) if i != drop]
                assert gf2.rank(rest) == len(rest)


def test_odd_circuits_guard():
    with pytest.raises(ValueError):
        odd_circuits(0)
    with pytest.raises(ValueError):
        odd_circuits(CIRCUIT_MAX_DIM + 1)
