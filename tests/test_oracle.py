import random

import pytest

from conftest import (
    random_element,
    random_finite_order_morphism,
    random_morphism,
    reference_brute_fixed,
)
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism, member, subgroup_basis
from fatf.oracle import (
    Bounds,
    bounded_products,
    brute_fixed,
    closure_check,
    enumerate_elements,
    reduced_words,
)
from test_acceptance import finite_order_suite, spiral_morphism, worked_morphism


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


class TestAgainstReference:
    """The meet-in-the-middle join returns exactly the list of the exhaustive
    reference, order included."""

    @staticmethod
    def same(maps, bounds):
        got = brute_fixed(maps, bounds)
        assert got == reference_brute_fixed(maps, bounds)
        return got

    def test_acceptance_suite_one_per_shape(self):
        # the reference costs seconds per hundred morphisms at Bounds(5, 2),
        # so take the first morphism of each (m, n) of the suite
        shapes = {}
        for psi, _, _ in finite_order_suite():
            shapes.setdefault((psi.ambient.m, psi.ambient.n), psi)
        assert len(shapes) == 20
        for psi in [worked_morphism(), spiral_morphism(), *shapes.values()]:
            self.same([psi], Bounds(5, 2))

    @pytest.mark.parametrize("L", range(6))
    def test_identity_fixes_every_word(self, L):
        for m, n, c in [(0, 1, 0), (1, 1, 2), (0, 2, 0), (1, 2, 1), (2, 3, 1)]:
            amb = Ambient(m, n)
            bounds = Bounds(L if n < 3 else min(L, 4), c)
            fixed = self.same([Morphism.identity(amb)], bounds)
            assert len(fixed) == sum(1 for _ in enumerate_elements(amb, bounds))

    @pytest.mark.parametrize("L", range(6))
    def test_random_tuples(self, L):
        rng = random.Random(100 + L)
        for _ in range(12):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            maps = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(["identity", "finite", "unimodular", "any"])
                if kind == "identity":
                    maps.append(Morphism.identity(amb))
                elif kind == "finite":
                    maps.append(random_finite_order_morphism(rng, amb)[0])
                else:
                    maps.append(random_morphism(rng, amb, invertible=kind == "unimodular"))
            self.same(maps, Bounds(L if amb.n < 3 else min(L, 4), rng.randint(0, 2)))

    def test_non_finite_order_maps(self):
        rng = random.Random(7)
        for _ in range(20):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 2))
            self.same([random_morphism(rng, amb)], Bounds(5, 2))

    def test_rank_one(self):
        amb = Ambient(1, 1)
        inversion = Morphism(amb, FreeMap([(-1,)], [(-1,)], 1), IntMatrix([[1]]), IntMatrix([[0]]))
        for L in range(8):
            assert len(self.same([Morphism.identity(amb)], Bounds(L, 1))) == 3 * (2 * L + 1)
            assert self.same([inversion], Bounds(L, 1)) == [
                GroupElement(amb, (a,), ()) for a in (-1, 0, 1)
            ]


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
