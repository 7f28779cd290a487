import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    block_diagonal,
    companion,
    random_unimodular,
    reference_charpoly,
    reference_lattice_index,
    reference_row_echelon,
    reference_totients,
    slow_infinite_order_matrix,
)
from fatf import intlat
from fatf.intlat import (
    DimensionError,
    IntMatrix,
    Lattice,
    NotSublatticeError,
    _with_transform,
    charpoly,
    cyclotomic,
    cyclotomic_split,
    hnf,
    kernel_lattice,
    lattice_index,
    lattice_intersect,
    lattice_preimage,
    left_solver,
    matrix_inverse,
    matrix_order,
    solve_left,
    totient_at_most,
    unity_exponent,
)

small_int = st.integers(min_value=-6, max_value=6)
Z2 = hnf(IntMatrix.identity(2))
Z3 = hnf(IntMatrix.identity(3))


def matrices(rows, cols):
    return st.lists(
        st.lists(small_int, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda e: IntMatrix(e, cols=cols))


class TestIntMatrix:
    def test_mul_identity(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M * IntMatrix.identity(2) == M
        assert IntMatrix.identity(2) * M == M
        for bad in (lambda: M * IntMatrix.identity(3), lambda: M + IntMatrix([[1, 2]])):
            with pytest.raises(DimensionError):
                bad()

    def test_pow(self):
        M = IntMatrix([[1, 1], [0, 1]])
        assert (M ** 5).entries == ((1, 5), (0, 1))
        assert (M ** 0).is_identity()
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2]]) ** 2

    def test_hstack(self):
        A = IntMatrix([[1], [2]])
        B = IntMatrix([[3], [4]])
        assert IntMatrix.hstack([A, B]).entries == ((1, 3), (2, 4))
        for blocks in ([], [A, IntMatrix([[3]])]):
            with pytest.raises(DimensionError):
                IntMatrix.hstack(blocks)

    def test_apply_row(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M.apply_row((1, 1)) == (4, 6)
        with pytest.raises(DimensionError):
            M.apply_row((1, 1, 1))


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
        assert L.reduce((2, 4)) == ((1, 1), (0, 0))

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
        sup = Z2
        assert lattice_index(sub, sup) == 6

    def test_index_infinite(self):
        sub = Lattice.from_rows([[1, 0]], 2)
        assert lattice_index(sub, Z2) == math.inf

    def test_not_sublattice(self):
        with pytest.raises(NotSublatticeError):
            lattice_index(Z2, Lattice.from_rows([[2, 0], [0, 2]], 2))

    def test_preimage(self):
        # {v : v*M in target} inside a domain lattice
        M = IntMatrix([[1, 0], [0, 2], [0, 0]])
        target = Lattice.from_rows([[0, 2]], 2)
        dom = Z3
        pre = lattice_preimage(dom, M, target)
        assert pre.contains((0, 1, 0))
        assert pre.contains((0, 0, 1))
        assert not pre.contains((1, 0, 0))
        for domain, wrong in ((Z2, target), (dom, Z3)):
            with pytest.raises(DimensionError):
                lattice_preimage(domain, M, wrong)

    @settings(max_examples=40, deadline=None)
    @given(matrices(3, 2), matrices(2, 2))
    def test_preimage_characterization(self, M, T):
        target = hnf(T)
        pre = lattice_preimage(Z3, M, target)
        for r in pre.basis.entries:
            assert target.contains(M.apply_row(r))


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (DimensionError, NotSublatticeError) as e:
        return type(e)


def _random_lattice(rng: random.Random, d: int, rows: int) -> Lattice:
    return Lattice.from_rows([[rng.randint(-3, 3) for _ in range(d)] for _ in range(rows)], d)


def _reference_pivots(L: Lattice) -> tuple[int, ...]:
    return tuple(reference_row_echelon([list(r) for r in L.basis.entries])[2])


class TestPivots:
    """`Lattice.pivots`, recorded when the lattice is built, against the pivot
    columns of the reference elimination."""

    def test_random_row_sets(self):
        rng = random.Random(1983)
        seen = {"deficient": 0, "zero row": 0, "ambient 0": 0}
        for _ in range(600):
            d = rng.randint(0, 5)
            rows = [
                [rng.randint(-3, 3) * (rng.random() < 0.7) for _ in range(d)]
                for _ in range(rng.randint(0, d + 2))
            ]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(len(rows))] = [0] * d
            L = Lattice.from_rows(rows, d)
            assert L.pivots == tuple(reference_row_echelon([list(r) for r in rows])[2])
            seen["deficient"] += L.rank < min(len(rows), d)
            seen["zero row"] += [0] * d in rows
            seen["ambient 0"] += d == 0
        assert all(seen.values()), seen

    def test_derived_lattices(self):
        rng = random.Random(2002)
        for _ in range(200):
            d = rng.randint(1, 4)
            A, B = (_random_lattice(rng, d, rng.randint(0, d + 1)) for _ in range(2))
            M = _random_matrix(rng)
            T = _random_lattice(rng, M.cols, rng.randint(0, M.cols))
            domain = hnf(IntMatrix.identity(M.rows))
            for L in (kernel_lattice(M), lattice_preimage(domain, M, T), lattice_intersect(A, B)):
                assert L.pivots == _reference_pivots(L)


class TestContains:
    """`Lattice.contains`, which reads `reduce`'s residue, on lattices and
    vectors of either sign: v lies in L exactly when appending v to L's
    basis leaves the canonical HNF unchanged, a test that runs no `reduce`."""

    def test_random_lattices(self):
        rng = random.Random(1974)
        seen = {"rank 0": 0, "full rank": 0, "negative basis entry": 0, "negative vector": 0, True: 0, False: 0}
        for _ in range(400):
            d = rng.randint(0, 5)
            L = _random_lattice(rng, d, rng.randint(0, d + 1))
            seen["rank 0"] += L.rank == 0
            seen["full rank"] += L.rank == d > 0
            seen["negative basis entry"] += any(x < 0 for row in L.basis.entries for x in row)
            for _ in range(10):
                # a lattice point, moved by a unit vector half the time
                v = [sum(rng.randint(-3, 3) * row[j] for row in L.basis.entries) for j in range(d)]
                if d and rng.random() < 0.5:
                    v[rng.randrange(d)] += rng.choice([1, -1])
                inside = L.contains(v)
                xs, res = L.reduce(v)
                assert inside == (not any(res))
                assert [sum(x * row[j] for x, row in zip(xs, L.basis.entries)) + res[j] for j in range(d)] == v
                assert inside == (Lattice.from_rows([*L.basis.entries, v], d) == L)
                seen[inside] += 1
                seen["negative vector"] += any(x < 0 for x in v)
        assert all(seen.values()), seen

    def test_wrong_length(self):
        for L in (Lattice.from_rows([[2, 1], [0, 3]], 2), Lattice.from_rows([], 2), Lattice.from_rows([], 0)):
            for v in ((), (1,), (0, 0, 0)):
                if len(v) != L.ambient:
                    with pytest.raises(DimensionError):
                        L.contains(v)


class TestShift:
    """`Lattice.shift(r, a)` against `reduce(r +- e_|a|)[1]`, the reduction
    it skips wherever nothing wraps."""

    def test_random_lattices(self):
        rng = random.Random(1920)
        seen = {"deficient": 0, "zero row": 0, "pivot 1": 0, "ambient 0": 0, "free column": 0, "wrap": 0}
        for _ in range(400):
            d = rng.randint(0, 5)
            rows = [
                [rng.randint(-4, 4) * (rng.random() < 0.7) for _ in range(d)]
                for _ in range(rng.randint(0, d + 2))
            ]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(len(rows))] = [0] * d
            L = Lattice.from_rows(rows, d)
            seen["deficient"] += L.rank < min(len(rows), d)
            seen["zero row"] += [0] * d in rows
            seen["pivot 1"] += any(row[j] == 1 for row, j in zip(L.basis.entries, L.pivots))
            seen["ambient 0"] += d == 0
            # a walk of shifts from a residue, as the residue cover takes it
            r = L.reduce([rng.randint(-9, 9) for _ in range(d)])[1]
            for _ in range(30 if d else 0):
                j, s = rng.randrange(d), rng.choice([1, -1])
                want = L.reduce([x + s * (i == j) for i, x in enumerate(r)])[1]
                assert L.shift(r, s * (j + 1)) == want
                seen["free column"] += j not in L.pivots
                seen["wrap"] += want != tuple(x + s * (i == j) for i, x in enumerate(r))
                r = want
        assert all(seen.values()), seen


class TestPublicConstructor:
    """`Lattice(ambient, basis)` checks that its basis is in HNF, and is the
    only constructor: `from_rows` and `left_solver` build through it too."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1], [1, 0]],  # spans Z^2, two pivots in one column
            [[0, 1], [1, 0]],  # pivot columns decrease
            [[0, 0]],  # zero row
            [[1, 0], [0, 0]],
            [[-1, 0]],  # negative pivot
            [[1, 2], [0, 2]],  # entry above a pivot past it
            [[1, -1], [0, 2]],  # entry above a pivot below 0
        ],
        ids=["one-column", "decreasing", "zero", "zero-last", "negative", "above-past", "above-negative"],
    )
    def test_rejects_rows_that_are_no_hnf(self, rows):
        with pytest.raises(ValueError):
            Lattice(2, IntMatrix(rows, cols=2))
        L = Lattice.from_rows(rows, 2)
        assert Lattice(2, L.basis) == L

    def test_spanning_rows_are_refused_not_misread(self):
        # the rows span Z^2; taken as they are, reduce would leave (0, 1) a
        # nonzero residue and contains would answer False
        with pytest.raises(ValueError, match="strictly increasing"):
            Lattice(2, IntMatrix([[1, 1], [1, 0]]))
        assert Lattice.from_rows([[1, 1], [1, 0]], 2).contains((0, 1))
        with pytest.raises(ValueError, match="zero"):
            Lattice(2, IntMatrix([[0, 0]]))
        with pytest.raises(DimensionError):
            Lattice(3, IntMatrix([[1, 0]]))
        with pytest.raises(DimensionError):
            Lattice.from_rows([[1, 0], [1]], 2)

    def test_accepts_every_built_lattice(self):
        rng = random.Random(1892)
        for _ in range(200):
            d = rng.randint(0, 4)
            A, B = (_random_lattice(rng, d, rng.randint(0, d + 2)) for _ in range(2))
            M = _random_matrix(rng)
            T = _random_lattice(rng, M.cols, rng.randint(0, M.cols))
            domain = hnf(IntMatrix.identity(M.rows))
            for L in (A, lattice_intersect(A, B), kernel_lattice(M), lattice_preimage(domain, M, T)):
                again = Lattice(L.ambient, L.basis)
                assert again == L and again.pivots == L.pivots


class TestLatticeIndexReference:
    """lattice_index (pivot products) against the coordinate-matrix route
    (conftest.reference_lattice_index)."""

    def test_nested_pairs(self):
        rng = random.Random(16)
        seen = {"unequal": 0, "rank 0": 0, "ambient 0": 0, "finite > 1": 0}
        for _ in range(600):
            d = rng.randint(0, 4)
            sup = _random_lattice(rng, d, rng.randint(0, d + 1))
            # integer combinations of sup's rows, fewer than its rank at times
            combos = [[rng.randint(-3, 3) for _ in range(sup.rank)] for _ in range(rng.randint(0, sup.rank + 1))]
            sub = Lattice.from_rows([sup.basis.apply_row(c) for c in combos], d)
            got = lattice_index(sub, sup)
            assert got == reference_lattice_index(sub, sup)
            seen["unequal"] += got == math.inf
            seen["rank 0"] += sub.rank == 0
            seen["ambient 0"] += d == 0
            seen["finite > 1"] += got != math.inf and got > 1
        assert all(seen.values()), seen
        E = Lattice.from_rows([], 0)
        assert lattice_index(E, E) == 1

    def test_pairs_that_are_not_nested(self):
        rng = random.Random(61)
        refused = 0
        for _ in range(400):
            d = rng.randint(1, 4)
            sub = _random_lattice(rng, d, rng.randint(1, d))
            sup = _random_lattice(rng, d, rng.randint(0, d + 1))
            expected = _outcome(reference_lattice_index, sub, sup)
            assert _outcome(lattice_index, sub, sup) == expected
            refused += expected is NotSublatticeError
        assert refused > 100

    def test_mismatched_ambients(self):
        rng = random.Random(5)
        for _ in range(50):
            d = rng.randint(0, 3)
            sub, sup = _random_lattice(rng, d, 2), _random_lattice(rng, d + 1, 2)
            for a, b in ((sub, sup), (sup, sub)):
                assert _outcome(reference_lattice_index, a, b) is DimensionError
                with pytest.raises(DimensionError):
                    lattice_index(a, b)
                with pytest.raises(DimensionError):
                    lattice_intersect(a, b)


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
        with pytest.raises(DimensionError):
            solve_left(M, (2, 0, 0))

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
        with pytest.raises(DimensionError):
            matrix_inverse(IntMatrix([[1, 0]]))


class TestCharpolyAndCyclotomic:
    def test_charpoly_companion(self):
        # x^2 - x - 1 for the Fibonacci matrix
        assert charpoly(IntMatrix([[0, 1], [1, 1]])) == [-1, -1, 1]

    def test_euler_phi(self):
        assert reference_totients(12)[1:] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_totients_count_coprime_residues(self):
        phi = reference_totients(300)
        assert phi[0] == 0
        for d in range(1, 301):
            assert phi[d] == sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)

    def test_totient_at_most_matches_the_sieve(self):
        # phi(d) >= sqrt(d/2), so every d with phi(d) <= 150 is at most 45,001
        phi = reference_totients(2 * 150 * 150 + 1)
        by_totient: dict[int, list[int]] = {}
        for d in range(1, len(phi)):
            by_totient.setdefault(phi[d], []).append(d)
        expected: list[int] = []
        for m in range(151):
            expected += by_totient.get(m, [])
            assert sorted(totient_at_most(m)) == sorted(expected)

    def test_cyclotomic(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(4) == (1, 0, 1)
        assert cyclotomic(6) == (1, -1, 1)
        assert cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_divisor_must_be_monic(self):
        # explicit checks, kept under python -O
        with pytest.raises(ValueError, match="not monic"):
            intlat._poly_divmod_monic([1, 0, 1], [1, 2])

    def test_cyclotomic_checks_its_remainder(self, monkeypatch):
        monkeypatch.setattr(intlat, "_poly_divmod_monic", lambda a, b: ([0], [1]))
        with pytest.raises(ArithmeticError, match="does not divide"):
            cyclotomic.__wrapped__(6)


def _det(M: IntMatrix) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in M.entries]
    m, det = len(a), Fraction(1)
    for j in range(m):
        p = next((i for i in range(j, m) if a[i][j]), None)
        if p is None:
            return 0
        if p != j:
            a[j], a[p] = a[p], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, m):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    assert det.denominator == 1
    return int(det)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_entries(rng: random.Random, m: int) -> IntMatrix:
    return IntMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)], cols=m)


class TestCharpolyReference:
    """charpoly (Berkowitz) against Faddeev-LeVerrier (conftest.reference_charpoly)."""

    def _check(self, Q: IntMatrix) -> list[int]:
        chi = charpoly(Q)
        assert chi == reference_charpoly(Q)
        assert len(chi) == Q.rows + 1 and chi[-1] == 1
        assert chi[0] == (-1) ** Q.rows * _det(Q)
        return chi

    def test_random_up_to_12(self):
        rng = random.Random(20240612)
        for m in range(13):
            for _ in range(8):
                self._check(_random_entries(rng, m))

    def test_random_24(self):
        rng = random.Random(24)
        for _ in range(3):
            self._check(_random_entries(rng, 24))

    def test_cyclotomic_block_companions(self):
        rng = random.Random(5)
        for _ in range(25):
            blocks, expected = [], [1]
            while len(expected) < 8:
                f = [1]
                for d in rng.sample([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12], rng.randint(1, 2)):
                    f = _poly_mul(f, list(cyclotomic(d)))
                blocks.append(companion(f))
                expected = _poly_mul(expected, f)
            C = block_diagonal(blocks)
            U = random_unimodular(rng, C.rows, steps=6)
            assert self._check(matrix_inverse(U) * C * U) == expected

    def test_empty_and_non_square(self):
        assert charpoly(IntMatrix.identity(0)) == [1]
        with pytest.raises(DimensionError):
            charpoly(IntMatrix([[1, 2]]))


class TestTrustedConstructor:
    """Results built without re-checking equal the same matrices rebuilt
    through the public constructor, and hold plain ints only."""

    @staticmethod
    def _public_equal(M: IntMatrix) -> None:
        rebuilt = IntMatrix([list(r) for r in M.entries], cols=M.cols)
        assert M == rebuilt and hash(M) == hash(rebuilt)
        assert type(M.entries) is tuple
        assert all(type(r) is tuple and len(r) == M.cols for r in M.entries)
        assert all(type(x) is int for r in M.entries for x in r)

    def test_operations_match_public_constructor(self):
        rng = random.Random(31)
        for _ in range(200):
            r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
            # bools and decimal strings enter through the public constructor
            pick = lambda: rng.choice([rng.randint(-4, 4), True, False, str(rng.randint(-4, 4))])
            A = IntMatrix([[pick() for _ in range(k)] for _ in range(r)], cols=k)
            B = IntMatrix([[pick() for _ in range(c)] for _ in range(k)], cols=c)
            A2 = IntMatrix([[pick() for _ in range(k)] for _ in range(r)], cols=k)
            S = IntMatrix([[pick() for _ in range(k)] for _ in range(k)], cols=k)
            for M in (A, B, A * B, A + A2, A - A2, -A, S ** rng.randint(0, 6),
                      IntMatrix.identity(k), IntMatrix.zeros(r, c), IntMatrix.hstack([A, A2])):
                self._public_equal(M)
            U = random_unimodular(rng, k, steps=5)
            self._public_equal(matrix_inverse(U))
            self._public_equal(hnf(A).basis)
            self._public_equal(kernel_lattice(A).basis)

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2]], cols=3)
        with pytest.raises(DimensionError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([["x"]])
        assert IntMatrix([[True, "2"]]).entries == ((1, 2),)
        # int() would truncate these silently
        for bad in (0.5, 1.9, -2.7, Fraction(5, 2)):
            with pytest.raises(ValueError, match="not an integer"):
                IntMatrix([[1, bad]])
            with pytest.raises(ValueError, match="not an integer"):
                Lattice.from_rows([[bad, 2]], 2)
        assert IntMatrix([[2.0, Fraction(4, 2)]]).entries == ((2, 2),)
        assert Lattice.from_rows([[True, "2"]], 2) == Lattice.from_rows([[1, 2]], 2)


class TestMatrixOrder:
    def test_small_orders(self):
        assert matrix_order(IntMatrix.identity(2)) == 1
        assert matrix_order(IntMatrix([[0, -1], [1, 0]])) == 4
        assert matrix_order(IntMatrix([[0, -1], [1, -1]])) == 3
        assert matrix_order(IntMatrix([[1, 1], [0, 1]])) == math.inf
        assert matrix_order(IntMatrix([[2]])) == math.inf
        assert matrix_order(IntMatrix.identity(0)) == 1
        with pytest.raises(DimensionError):
            matrix_order(IntMatrix([[1, 0]]))

    def test_order_is_minimal(self):
        Q = IntMatrix([[0, -1], [1, 0]])
        k = matrix_order(Q)
        assert (Q ** k).is_identity()
        for j in range(1, k):
            assert not (Q ** j).is_identity()

    def test_infinite_order_needs_no_power(self):
        # chi(Q) keeps the factor x^2 - 3x + 1; the power Q^60060 that would
        # show the same takes seconds
        Q = slow_infinite_order_matrix()
        t0 = time.perf_counter()
        assert matrix_order(Q) == math.inf
        assert time.perf_counter() - t0 < 1.0

    def test_cyclotomic_but_not_diagonalizable(self):
        # two coupled companions of Phi_3: chi(Q) = Phi_3^2, yet Q^3 != I, so
        # only the power check answers inf
        C3 = companion(list(cyclotomic(3)))
        rows = [r + [1 if i == j else 0 for j in range(2)] for i, r in enumerate(C3)]
        rows += [[0, 0] + r for r in C3]
        U = random_unimodular(random.Random(3), 4, steps=6)
        Q = matrix_inverse(U) * IntMatrix(rows) * U
        assert cyclotomic_split(Q) == (3, [1])
        assert matrix_order(Q) == math.inf

    def test_cyclotomic_part_counts_multiplicity(self):
        # Phi_1^2 Phi_2 fills all three degrees; Phi_1 Phi_2 and a factor
        # x - 2 leave one over
        assert cyclotomic_split(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == (2, [1])
        assert cyclotomic_split(IntMatrix([[1, 0, 0], [0, 2, 0], [0, 0, -1]])) == (2, [-2, 1])
        assert cyclotomic_split(IntMatrix.identity(0)) == (1, [1])

    def test_unity_exponent(self):
        assert unity_exponent(IntMatrix([[2]])) == 1
        assert unity_exponent(IntMatrix([[1, 0], [0, -1]])) == 2
        assert unity_exponent(IntMatrix([[0, -1], [1, 0]])) == 4
        # swap matrix: eigenvalues 1 and -1
        assert unity_exponent(IntMatrix([[0, 1], [1, 0]])) == 2


def _random_matrix(rng: random.Random) -> IntMatrix:
    """0-6 rows, 1-6 columns: full-rank entries, low-rank products, or a
    unimodular square matrix."""
    rows, cols = rng.randint(0, 6), rng.randint(1, 6)
    kind = rng.random()
    if rows == cols and kind < 0.4:
        return random_unimodular(rng, rows, steps=rng.randint(0, 8))
    if rows and kind < 0.6:
        k = rng.randint(0, min(rows, cols) - 1)
        A = IntMatrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)], cols=k)
        B = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)], cols=cols)
        return A * B
    return IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols=cols)


class TestTransformReference:
    """The transforms read off [M | I] equal those of the reference
    elimination that carries U beside the rows (conftest.reference_row_echelon)."""

    def test_identity_block_is_not_eliminated(self):
        # eliminating inside the identity block would give (0, 1, 0, 0)
        M = IntMatrix([[3], [3], [0], [-6]])
        assert solve_left(M, (3,)) == (1, 0, 0, 0)

    def test_matches_reference(self):
        rng = random.Random(20190606)
        total = deficient = unsolvable = inverted = singular = 0
        for _ in range(2400):
            M = _random_matrix(rng)
            H, U, piv = reference_row_echelon([list(r) for r in M.entries])
            r = len(piv)
            total += 1
            deficient += r < min(M.rows, M.cols)
            assert _with_transform(M) == (H, U, r)
            assert Lattice.from_rows(M.entries, M.cols).basis.entries == tuple(map(tuple, H[:r]))
            assert kernel_lattice(M) == Lattice.from_rows(U[r:], M.rows)
            assert left_solver(M)[0] == Lattice.from_rows(M.entries, M.cols)

            if rng.random() < 0.5:
                b = M.apply_row([rng.randint(-3, 3) for _ in range(M.rows)])
            else:
                b = tuple(rng.randint(-4, 4) for _ in range(M.cols))
            y, res = Lattice(M.cols, IntMatrix(H[:r], cols=M.cols)).reduce(b)
            expected = None if any(res) else IntMatrix(U[:r], cols=M.rows).apply_row(y)
            unsolvable += expected is None
            assert solve_left(M, b) == expected

            if M.rows == M.cols:
                if r != M.rows or any(H[i][i] != 1 for i in range(M.rows)):
                    singular += 1
                    with pytest.raises(ValueError, match="not unimodular"):
                        matrix_inverse(M)
                else:
                    inverted += 1
                    assert matrix_inverse(M) == IntMatrix(U, cols=M.rows)
        assert deficient * 3 >= total
        assert 0 < unsolvable < total
        assert inverted >= 100 and singular >= 100
