import ast
import itertools
import random
from pathlib import Path

import pytest

from conftest import (
    bounded_products,
    letter_map,
    random_element,
    random_finite_order_morphism,
    random_free_aut,
    random_matrix,
    random_morphism,
    random_signed_targets,
    reference_brute_fixed,
    signed_perm_matrix,
)
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism, SubgroupBasis, member, oracle, subgroup_basis
from fatf.morphisms import power
from fatf.oracle import Bounds, brute_fixed, reduced_words
from test_acceptance import finite_order_suite, spiral_morphism, worked_morphism


def box_size(amb: Ambient, bounds: Bounds) -> int:
    """Elements t^a w with |w| <= L and every |a_j| <= c."""
    words = sum(1 for _ in reduced_words(amb.n, bounds.word_len_max))
    return words * (2 * bounds.coord_abs_max + 1) ** amb.m


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
        # the identity fixes every element of the box
        amb = Ambient(1, 1)
        ident = [Morphism.identity(amb)]
        assert len(brute_fixed(ident, Bounds(1, 1))) == 9
        assert len(brute_fixed([Morphism.identity(Ambient(0, 2))], Bounds(2, 0))) == 17
        assert brute_fixed(ident, Bounds(0, 0)) == [GroupElement(amb, (0,) * amb.m, ())]

    def test_deterministic(self):
        # the identity fixes the whole box, listed in the documented order:
        # words shortlex, then vectors ascending
        amb, bounds = Ambient(2, 2), Bounds(2, 1)
        box = list(itertools.product(range(-1, 2), repeat=2))
        want = [GroupElement(amb, a, w) for w in reduced_words(2, 2) for a in box]
        assert brute_fixed([Morphism.identity(amb)], bounds) == want


class TestBruteFixed:
    def test_identity_fixes_everything(self):
        amb = Ambient(1, 2)
        bounds = Bounds(2, 1)
        fixed = brute_fixed([Morphism.identity(amb)], bounds)
        assert len(fixed) == box_size(amb, bounds)

    def test_spiral_fixes_nothing(self):
        amb = Ambient(1, 2)
        phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
        psi = Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))
        assert brute_fixed([psi], Bounds(4, 2)) == [GroupElement(amb, (0,) * amb.m, ())]

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
        for word_len_max, coord_abs_max in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                Bounds(word_len_max, coord_abs_max)


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
            assert len(fixed) == box_size(amb, bounds)

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

    @pytest.mark.parametrize("m", [0, 3, 4, 5])
    def test_split_box(self, m):
        # brute_fixed splits the box into the first ceil(m/2) and the last
        # floor(m/2) coordinates: odd and even halves, the one-vector boxes
        # of m = 0 and of c = 0, with one and two maps. Q = I + N, N strictly
        # upper triangular, ties the halves together, and a - aQ = -aN
        # leaves the last coordinate free; P = -BN makes the shift of w
        # that of a = w_ab B, so most words take 2c + 1 vectors or more. The
        # first map fixes every word
        rng = random.Random(300 + m)

        def unitriangular() -> IntMatrix:
            return IntMatrix([[int(i == j) if j <= i else rng.randint(-1, 1) for j in range(m)] for i in range(m)], cols=m)

        several = 0
        for k in (1, 2):
            for c in (0, 1) if m == 5 else (0, 1, 2):
                amb = Ambient(m, 2)
                Q = unitriangular()
                B = random_matrix(rng, 2, m, bound=1)
                maps = [Morphism(amb, FreeMap.identity(2), Q, B - B * Q)]
                if k == 2:
                    phi = random_free_aut(rng, 2) if c else letter_map(random_signed_targets(rng, 2))
                    Q = IntMatrix.identity(m) if c == 1 else unitriangular()
                    maps.append(Morphism(amb, phi, Q, IntMatrix.zeros(2, m)))
                fixed = self.same(maps, Bounds(2 if c == 2 else 3, c))
                words = [g.w for g in fixed]
                several += len(set(words)) > 1 and len(words) > len(set(words))
        assert several >= (0 if m == 0 else 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rest_filter(self, n):
        # the half-word tables are keyed by F_1 alone, so where the first map
        # fixes more words than the tuple, the join must drop the pairs whose
        # F_2, ..., F_k differ
        rng = random.Random(400 + n)
        dropped = 0
        for m in (0, 1):
            amb = Ambient(m, n)
            identity = Morphism.identity(amb)
            for _ in range(2):
                psi = random_finite_order_morphism(rng, amb)[0]
                square = power(psi, 2)
                for maps in ([identity, psi], [psi, identity], [psi, square], [square, psi]):
                    words = {g.w for g in self.same(maps, Bounds(5, 2))}
                    dropped += len(words) < len({g.w for g in brute_fixed(maps[:1], Bounds(5, 2))})
        assert dropped >= 1

    def test_random_triples(self):
        # three maps with distinct Q_i solve one stacked system
        # a [I - Q_1 | I - Q_2 | I - Q_3] = (w_ab P_1, w_ab P_2, w_ab P_3).
        # P_i = B - B Q_i with one B per triple makes a = w_ab B a common
        # solution, and each I - Q_i adds solutions of its own that the
        # other maps drop: the list equals the reference and the first map's
        # list filtered by the other two
        rng = random.Random(500)
        shared = narrowed = 0
        for _ in range(40):
            amb = Ambient(rng.randint(1, 3), rng.randint(1, 2))
            m, n = amb.m, amb.n
            B = random_matrix(rng, n, m, bound=1)
            maps = []
            while len(maps) < 3:
                Q = signed_perm_matrix(random_signed_targets(rng, m)) if rng.random() < 0.5 else random_matrix(rng, m, m, bound=1)
                phi = FreeMap.identity(n) if rng.random() < 0.6 else letter_map(random_signed_targets(rng, n))
                if all(Q != psi.Q for psi in maps):
                    maps.append(Morphism(amb, phi, Q, B - B * Q))
            bounds = Bounds(3, 1)
            got = self.same(maps, bounds)
            singles = [brute_fixed([psi], bounds) for psi in maps]
            allowed = set(singles[1]) & set(singles[2])
            assert got == [g for g in singles[0] if g in allowed]
            shared += len(got) > 1
            narrowed += len(got) < len(singles[0])
        assert shared >= 15 and narrowed >= 15

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


class TestIndependence:
    """The oracle shares no code with the algorithms it checks: no lattice
    code, no Stallings graph, no membership test and no `FreeMap.apply`."""

    BANNED = {"stallings", "pullback", "StallingsGraph", "Lattice", "member", "members"}

    def test_source(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        modules, names, attrs = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module or "")
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        assert {"freewords", "GroupElement", "_extend"} <= names
        assert "apply_row" in attrs
        assert not any("intlat" in mod.split(".") for mod in modules), modules
        assert not (names | attrs) & self.BANNED
        assert "apply" not in attrs


class TestClosureCheck:
    def test_parallel_generator_example(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,)), GroupElement(amb, (0, 1), (1,))]
        H = subgroup_basis(gens, amb)
        products = bounded_products(gens, amb, 3)
        assert GroupElement(amb, (1, -1), ()) in products
        assert all(member(H, g) for g in products)

    def test_trivial(self):
        amb = Ambient(1, 1)
        H = subgroup_basis([], amb)
        assert member(H, GroupElement(amb, (0,) * amb.m, ()))
        gens = [GroupElement(amb, (1,), ()), GroupElement(amb, (0,), (1,))]
        assert [g for g in bounded_products(gens, amb, 2) if member(H, g)] == [GroupElement(amb, (0,) * amb.m, ())]

    def test_corrupted_basis_detected(self):
        amb = Ambient(2, 1)
        gens = [GroupElement(amb, (1, 0), (1,))]
        good = subgroup_basis(gens, amb)
        bad = SubgroupBasis.from_words(amb, [((0, 1), (1,))], good.abelian_part)
        products = bounded_products(gens, amb, 3)
        assert all(member(good, g) for g in products)
        assert not any(member(bad, g) for g in products if g.w)

    def test_random_subgroups(self):
        rng = random.Random(42)
        for _ in range(10):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
            gens = [random_element(rng, amb, max_len=2, bound=1) for _ in range(2)]
            H = subgroup_basis(gens, amb)
            for g in bounded_products(gens, amb, 3):
                assert member(H, g)
