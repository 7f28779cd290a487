import random

import pytest

from conftest import random_element, random_finite_order_morphism
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism, member, subgroup_basis
from fatf.oracle import (
    Bounds,
    bounded_products,
    brute_fixed,
    closure_check,
    enumerate_elements,
    reduced_words,
)


class TestEnumeration:
    def test_word_counts_match_closed_form(self):
        for n in (1, 2, 3):
            words = list(reduced_words(n, 4))
            assert len(words) == len(set(words))
            by_len = {}
            for w in words:
                by_len[len(w)] = by_len.get(len(w), 0) + 1
            assert by_len[0] == 1
            for ell in range(1, 5):
                assert by_len[ell] == 2 * n * (2 * n - 1) ** (ell - 1)

    def test_element_counts(self):
        assert sum(1 for _ in enumerate_elements(Ambient(1, 1), Bounds(1, 1))) == 9
        assert sum(1 for _ in enumerate_elements(Ambient(0, 2), Bounds(2, 0))) == 17
        assert list(enumerate_elements(Ambient(1, 1), Bounds(0, 0))) == [
            GroupElement.identity(Ambient(1, 1))
        ]

    def test_deterministic(self):
        a = list(enumerate_elements(Ambient(2, 2), Bounds(2, 1)))
        b = list(enumerate_elements(Ambient(2, 2), Bounds(2, 1)))
        assert a == b


class TestBruteFixed:
    def test_identity_fixes_everything(self):
        amb = Ambient(1, 2)
        bounds = Bounds(2, 1)
        fixed = brute_fixed([Morphism.identity(amb)], bounds)
        assert len(fixed) == sum(1 for _ in enumerate_elements(amb, bounds))

    def test_spiral_fixes_nothing(self):
        amb = Ambient(1, 2)
        phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
        psi = Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))
        assert brute_fixed([psi], Bounds(4, 2)) == [GroupElement.identity(amb)]

    def test_set_intersection_law(self):
        rng = random.Random(41)
        for _ in range(10):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
            p1, _, _ = random_finite_order_morphism(rng, amb)
            p2, _, _ = random_finite_order_morphism(rng, amb)
            bounds = Bounds(3, 2)
            both = set(brute_fixed([p1, p2], bounds))
            inter = set(brute_fixed([p1], bounds)) & set(brute_fixed([p2], bounds))
            assert both == inter

    def test_requires_morphisms(self):
        with pytest.raises(ValueError):
            brute_fixed([], Bounds(1, 1))


class TestClosureCheck:
    def test_parallel_generator_example(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,)), GroupElement(amb, (0, 1), (1,))]
        H = subgroup_basis(gens, amb)
        assert closure_check(H, gens, 3)
        assert GroupElement(amb, (1, -1), ()) in bounded_products(gens, amb, 3)

    def test_trivial(self):
        amb = Ambient(1, 1)
        H = subgroup_basis([], amb)
        assert closure_check(H, [], 2)

    def test_corrupted_basis_detected(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,))]
        good = subgroup_basis(gens, amb)
        from fatf import SubgroupBasis

        bad = SubgroupBasis.from_words(amb, [((0, 1), (1,))], good.abelian_part)
        assert closure_check(good, gens, 3)
        assert not closure_check(bad, gens, 3)

    def test_random_subgroups(self):
        rng = random.Random(42)
        for _ in range(10):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
            gens = [random_element(rng, amb, max_len=2, bound=1) for _ in range(2)]
            H = subgroup_basis(gens, amb)
            for g in bounded_products(gens, amb, 3):
                assert member(H, g)
