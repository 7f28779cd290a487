import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fatf.intlat import (
    IntMatrix,
    Lattice,
    NotSublatticeError,
    charpoly,
    cyclotomic,
    euler_phi,
    hnf,
    is_direct_summand,
    kernel_lattice,
    lattice_index,
    lattice_intersect,
    lattice_preimage,
    matrix_inverse,
    matrix_order,
    smith_divisors,
    solve_left,
    split_ker,
    unity_exponent,
)

small_int = st.integers(min_value=-6, max_value=6)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda e: IntMatrix(e, cols=cols))


class TestIntMatrix:
    def test_mul_identity(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M * IntMatrix.identity(2) == M
        assert IntMatrix.identity(2) * M == M

    def test_pow(self):
        M = IntMatrix([[1, 1], [0, 1]])
        assert (M ** 5).entries == ((1, 5), (0, 1))
        assert (M ** 0).is_identity()

    def test_hstack(self):
        A = IntMatrix([[1], [2]])
        B = IntMatrix([[3], [4]])
        assert IntMatrix.hstack([A, B]).entries == ((1, 3), (2, 4))

    def test_apply_row(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M.apply_row((1, 1)) == (4, 6)


class TestHermiteForm:
    def test_known(self):
        L = Lattice.from_rows([[2, 0], [0, 2], [1, 1]], 2)
        assert [list(r) for r in L.basis.entries] == [[1, 1], [0, 2]]

    @settings(max_examples=60, deadline=None)
    @given(matrices(3, 3), st.data())
    def test_unimodular_invariance(self, M, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        rows = [list(r) for r in M.entries]
        for _ in range(4):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                c = rng.choice([-1, 1])
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert Lattice.from_rows(rows, 3) == hnf(M)

    @settings(max_examples=60, deadline=None)
    @given(matrices(3, 4))
    def test_rank_nullity(self, M):
        assert hnf(M).rank + kernel_lattice(M).rank == M.rows

    @settings(max_examples=60, deadline=None)
    @given(matrices(3, 3))
    def test_kernel_annihilates(self, M):
        for k in kernel_lattice(M).basis.entries:
            assert all(x == 0 for x in M.apply_row(k))


class TestLattice:
    def test_contains_and_coords(self):
        L = Lattice.from_rows([[2, 1], [0, 3]], 2)
        assert L.contains((2, 1))
        assert L.contains((2, 4))
        assert not L.contains((1, 0))
        c = L.coords((2, 4))
        assert c == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(matrices(2, 3), matrices(2, 3), st.lists(small_int, min_size=3, max_size=3))
    def test_intersect_is_glb(self, A, B, v):
        L1, L2 = hnf(A), hnf(B)
        L = lattice_intersect(L1, L2)
        for r in L.basis.entries:
            assert L1.contains(r) and L2.contains(r)
        if L1.contains(v) and L2.contains(v):
            assert L.contains(v)

    def test_intersect_commutes(self):
        L1 = Lattice.from_rows([[2, 0], [0, 3]], 2)
        L2 = Lattice.from_rows([[3, 0], [0, 2]], 2)
        assert lattice_intersect(L1, L2) == lattice_intersect(L2, L1)
        assert lattice_intersect(L1, L1) == L1

    def test_index_and_cosets(self):
        sub = Lattice.from_rows([[2, 0], [0, 3]], 2)
        sup = Lattice.full(2)
        assert lattice_index(sub, sup) == 6

    def test_index_infinite(self):
        sub = Lattice.from_rows([[1, 0]], 2)
        assert lattice_index(sub, Lattice.full(2)) == math.inf

    def test_not_sublattice(self):
        with pytest.raises(NotSublatticeError):
            lattice_index(Lattice.full(2), Lattice.from_rows([[2, 0], [0, 2]], 2))

    def test_smith_divisors(self):
        assert smith_divisors(IntMatrix([[2, 0], [0, 4]])) == [2, 4]
        assert smith_divisors(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
        d = smith_divisors(IntMatrix([[6, 4], [4, 6]]))
        assert d == [2, 10]
        for a, b in zip(d, d[1:]):
            assert b % a == 0

    def test_direct_summand(self):
        assert is_direct_summand(Lattice.from_rows([[1, 0]], 2), Lattice.full(2))
        assert not is_direct_summand(Lattice.from_rows([[0, 2]], 2), Lattice.full(2))
        L = Lattice.from_rows([[0, 2]], 2)
        assert is_direct_summand(L, L)

    def test_preimage(self):
        # {v : v*M in target} inside a domain lattice
        M = IntMatrix([[1, 0], [0, 2], [0, 0]])
        target = Lattice.from_rows([[0, 2]], 2)
        dom = Lattice.full(3)
        pre = lattice_preimage(dom, M, target)
        assert pre.contains((0, 1, 0))
        assert pre.contains((0, 0, 1))
        assert not pre.contains((1, 0, 0))

    @settings(max_examples=40, deadline=None)
    @given(matrices(3, 2), matrices(2, 2))
    def test_preimage_characterization(self, M, T):
        target = hnf(T)
        pre = lattice_preimage(Lattice.full(3), M, target)
        for r in pre.basis.entries:
            assert target.contains(M.apply_row(r))


class TestReduce:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.integers(0, d).flatmap(lambda r: matrices(r, d)),
                st.lists(small_int, min_size=d, max_size=d),
                st.lists(small_int, min_size=d, max_size=d),
            )
        )
    )
    def test_residue_is_a_coset_key(self, data):
        # ranks 0..d cover lattices of less than full rank; membership of
        # the difference is decided without reduce: adding a vector of L
        # leaves the HNF of L unchanged
        G, v, w = data
        L = hnf(G)
        d = L.ambient
        rv, rw = L.reduce(v)[1], L.reduce(w)[1]
        diff = [a - b for a, b in zip(v, w)]
        in_L = Lattice.from_rows(list(G.entries) + [diff], d) == L
        assert (rv == rw) == in_L
        for row in L.basis.entries:
            j = next(t for t, a in enumerate(row) if a)
            assert 0 <= rv[j] < row[j]
        xs, res = L.reduce(v)
        assert tuple(a + b for a, b in zip(L.basis.apply_row(xs), res)) == tuple(v)

    def test_shift_by_lattice_keeps_residue(self):
        L = Lattice.from_rows([[2, 1, 0], [0, 3, 5]], 3)
        v = (7, -4, 2)
        for c in [(1, 0), (0, 1), (-3, 2), (5, -7)]:
            shifted = tuple(a + b for a, b in zip(v, L.basis.apply_row(c)))
            assert L.reduce(shifted)[1] == L.reduce(v)[1]
        assert L.reduce(v) == ((3, -3), (1, 2, 17))
        assert L.reduce(L.basis.apply_row((4, -1))) == ((4, -1), (0, 0, 0))


class TestSolveLeft:
    def test_deterministic_particular_solution(self):
        M = IntMatrix([[0, 0], [0, 2]])
        assert solve_left(M, (0, 2)) == (0, 1)

    def test_no_solution(self):
        M = IntMatrix([[2, 0], [0, 2]])
        assert solve_left(M, (1, 0)) is None

    @settings(max_examples=60, deadline=None)
    @given(matrices(3, 3), st.lists(small_int, min_size=3, max_size=3))
    def test_solution_verifies(self, M, y):
        b = M.apply_row(y)
        x = solve_left(M, b)
        assert x is not None
        assert M.apply_row(x) == tuple(b)


class TestMatrixInverse:
    def test_roundtrip(self):
        U = IntMatrix([[1, 2], [0, 1]])
        assert (U * matrix_inverse(U)).is_identity()

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            matrix_inverse(IntMatrix([[2, 0], [0, 1]]))


class TestCharpolyAndCyclotomic:
    def test_charpoly_companion(self):
        # x^2 - x - 1 for the Fibonacci matrix
        assert charpoly(IntMatrix([[0, 1], [1, 1]])) == [-1, -1, 1]

    def test_euler_phi(self):
        assert [euler_phi(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_cyclotomic(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)


class TestMatrixOrder:
    def test_small_orders(self):
        assert matrix_order(IntMatrix.identity(2)) == 1
        assert matrix_order(IntMatrix([[0, -1], [1, 0]])) == 4
        assert matrix_order(IntMatrix([[0, -1], [1, -1]])) == 3
        assert matrix_order(IntMatrix([[1, 1], [0, 1]])) == math.inf
        assert matrix_order(IntMatrix([[2]])) == math.inf

    def test_order_is_minimal(self):
        Q = IntMatrix([[0, -1], [1, 0]])
        k = matrix_order(Q)
        assert (Q ** k).is_identity()
        for j in range(1, k):
            assert not (Q ** j).is_identity()

    def test_unity_exponent(self):
        assert unity_exponent(IntMatrix([[2]])) == 1
        assert unity_exponent(IntMatrix([[1, 0], [0, -1]])) == 2
        assert unity_exponent(IntMatrix([[0, -1], [1, 0]])) == 4
        # swap matrix: eigenvalues 1 and -1
        assert unity_exponent(IntMatrix([[0, 1], [1, 0]])) == 2


class TestSplitKer:
    def test_projection_identities(self):
        Q = IntMatrix([[0, 1], [1, 0]])
        v = (1, 0)
        v1, v2 = split_ker(Q, 2, v)
        assert v1 == (Fraction(1, 2), Fraction(1, 2))
        assert tuple(a + b for a, b in zip(v1, v2)) == (Fraction(1), Fraction(0))
        # v1 is fixed by Q, v2 is killed by the averaging operator
        assert tuple(sum(Fraction(Q.entries[i][j]) * v1[i] for i in range(2)) for j in range(2)) == v1

    def test_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            split_ker(IntMatrix([[2]]), 3, (1,))
