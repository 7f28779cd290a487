import math
import random

import pytest

from conftest import random_finite_order_matrix, reference_thresholds
from fatf.bounds import (
    MAX_M,
    MAX_N,
    automorphism_order_bound,
    constants,
    free_periodic_exponent,
    group_periodic_exponent,
    order_bound,
    periodic_exponent_bound,
    phi_threshold,
)
from fatf.intlat import matrix_order, unity_exponent


class TestThreshold:
    def test_known_values(self):
        assert phi_threshold(1) == 2
        assert phi_threshold(2) == 6
        assert phi_threshold(3) == 6
        assert phi_threshold(4) == 12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            phi_threshold(0)

    def test_first_hundred(self):
        # every constants report reads phi_threshold, and the golden
        # constants fixture covers one m only
        expected = (
            [2, 6, 6, 12, 12, 18, 18] + [30] * 4 + [42] * 4 + [60] * 4 + [66] * 4
            + [90] * 8 + [120] * 4 + [126] * 4 + [150] * 8 + [210] * 16
            + [240] * 8 + [270] * 8 + [330] * 16 + [420] * 5
        )
        assert [phi_threshold(m) for m in range(1, 101)] == expected

    def test_matches_the_sieve_scan(self):
        assert [phi_threshold(m) for m in range(1, 301)] == list(reference_thresholds(300)[1:])


class TestConstants:
    def test_report_1_2(self):
        r = constants(1, 2)
        assert (r.C, r.L1, r.L3, r.free_per, r.C3) == (2, 2, 2, 720, 720)

    def test_report_2_2(self):
        r = constants(2, 2)
        assert r.L1 == 36
        assert r.C1 == 36 * 36

    def test_degenerate_free_rank(self):
        assert free_periodic_exponent(0) == 1
        assert free_periodic_exponent(1) == 1
        assert constants(1, 0).free_per == 1
        # rank <= 1 collapses to a free-abelian group of rank m + n
        assert automorphism_order_bound(3, 1) == order_bound(4)
        assert automorphism_order_bound(0, 3) == order_bound(3)

    def test_zero_abelian_rank(self):
        assert order_bound(0) == 1
        with pytest.raises(ValueError):
            order_bound(-1)
        assert constants(0, 2).L1 == 1

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (3, 5), (100, 250)])
    def test_report_fields_equal_bounds_alone(self, m, n):
        r = constants(m, n)
        assert (r.C, r.L1, r.L3) == (phi_threshold(max(m, 1)), order_bound(m), periodic_exponent_bound(m))
        assert (r.C1, r.C3) == (automorphism_order_bound(m, n), group_periodic_exponent(m, n))

    def test_matches_the_sieve_scan(self):
        T = reference_thresholds(300)

        def L1(k):
            return 1 if k == 0 else T[k] ** k

        def L3(k):
            return math.factorial(T[max(k, 1)])

        for m, n in [(m, n) for m in range(13) for n in range(13)] + [(MAX_M, MAX_N)]:
            free_per = 1 if n <= 1 else math.factorial(6 * n - 6)
            C1 = L1(m + n) if n <= 1 else L1(n) if m == 0 else L1(n) * L1(m)
            C3 = math.lcm(L3(m), L3(m + 1), free_per)
            r = constants(m, n)
            assert (r.m, r.n, r.C, r.L1, r.L3, r.free_per, r.C1, r.C3) == (
                m, n, T[max(m, 1)], L1(m), L3(m), free_per, C1, C3
            )

    def test_exponent_is_factorial_of_threshold(self):
        assert periodic_exponent_bound(2) == math.factorial(6)
        assert group_periodic_exponent(1, 2) == math.lcm(2, 720, 720)


class TestInstanceBounds:
    def test_matrix_order_within_bound(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(1, 4)
            Q = random_finite_order_matrix(rng, m)
            k = matrix_order(Q)
            assert k != math.inf
            assert k <= order_bound(m)

    def test_unity_exponent_divides_uniform_exponent(self):
        rng = random.Random(8)
        for _ in range(60):
            m = rng.randint(1, 3)
            Q = random_finite_order_matrix(rng, m)
            assert periodic_exponent_bound(m) % unity_exponent(Q) == 0
