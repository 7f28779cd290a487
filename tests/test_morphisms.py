import dataclasses
import math
import random
from collections import Counter

import pytest

from conftest import (
    inner,
    letter_map,
    nielsen,
    random_element,
    random_finite_order_morphism,
    random_free_aut,
    random_matrix,
    random_morphism,
    random_word,
    reference_apply,
)
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism
from fatf.bounds import automorphism_order_bound
from fatf.freewords import LetterError
from fatf import intlat, morphisms
from fatf.intlat import matrix_order
from fatf.morphisms import apply, compose, invert, linear_power, order, power, power_vector_matrix


def _spy(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that records the arguments of each
    call in the list returned."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def worked_morphism():
    amb = Ambient(2, 3)
    phi = FreeMap([(-1,), (2,), (3,)], [(-1,), (2,), (3,)], 3)
    Q = IntMatrix([[1, 0], [0, -1]])
    P = IntMatrix([[1, 0], [0, 1], [0, 2]])
    return Morphism(amb, phi, Q, P)


def spiral_morphism():
    # z1 -> t z1^-1, z2 -> z2^-1, t -> t^-1 in Z x F2
    amb = Ambient(1, 2)
    phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
    return Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))


class TestFreeMap:
    def test_inverse_validation(self):
        with pytest.raises(ValueError):
            FreeMap([(1, 2), (2,)], [(1,), (2,)], 2)
        FreeMap([(1, 2), (2,)], [(1, -2), (2,)], 2)
        with pytest.raises(ValueError, match="no inverse images"):
            FreeMap([(1, 2), (2,)]).invert()
        with pytest.raises(ValueError, match="different ranks"):
            FreeMap.identity(2).compose(FreeMap.identity(3))

    def test_letters_checked_before_counts(self):
        # the images' letters, then the inverse images', then the counts: the
        # order in which the CLI names the faults of a payload
        with pytest.raises(LetterError, match="letter 5"):
            FreeMap([(1,), (5,)], None, 3)
        with pytest.raises(LetterError, match="letter 3"):
            FreeMap([(1,), (2,)], [(1,), (2,), (3,)], 2)
        with pytest.raises(ValueError, match="one image per generator"):
            FreeMap([(1,), (2,)], [(1,)], 3)

    def test_inverse_checked_one_way_as_both_ways(self):
        # the constructor checks only that the claim undoes the map on every
        # generator; that makes the claim onto, hence an automorphism (F_n is
        # Hopfian) undone by the map, so both ways reject the same claims
        rng = random.Random(27)
        outcomes = Counter()
        for _ in range(240):
            n = rng.randint(2, 4)
            f = FreeMap.identity(n)
            for _ in range(rng.randint(1, 5)):
                i, j = rng.sample(range(1, n + 1), 2)
                f = f.compose(nielsen(i, j, rng.choice([-1, 1]), n))
            claimed = list(f.inverse_images)
            kind = rng.choice(["inverse", "one more move", "one changed letter"])
            if kind == "one more move":
                i, j = rng.sample(range(1, n + 1), 2)
                claimed = list(f.invert().compose(nielsen(i, j, rng.choice([-1, 1]), n)).images)
            elif kind == "one changed letter":
                i = rng.randrange(n)
                w = list(claimed[i])
                k = rng.randrange(len(w))
                w[k] = rng.choice([a for a in range(-n, n + 1) if a not in (0, w[k])])
                claimed[i] = tuple(w)
            back, gens = FreeMap(claimed, None, n), [(i,) for i in range(1, n + 1)]
            both_ways = [reference_apply(back, u) for u in f.images] == gens and [
                reference_apply(f, u) for u in back.images
            ] == gens
            try:
                FreeMap(f.images, claimed, n)
                rejected = False
            except ValueError:
                rejected = True
            assert rejected == (not both_ways), kind
            outcomes[rejected] += 1
        assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes

    def test_apply_matches_substitution_on_every_construction_path(self):
        # __init__ and compose build the signed image table; identity, power
        # and invert reach it through them
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(1, 4)
            f = random_free_aut(rng, n)
            # images that are not reduced, with no inverse
            g = FreeMap([random_word(rng, n, 3) + (1, -1) + random_word(rng, n, 3) for _ in range(n)], None, n)
            maps = {
                "init": FreeMap(list(f.images), list(f.inverse_images), n),
                "init without inverse": g,
                "identity": FreeMap.identity(n),
                "compose": f.compose(nielsen(1, n, 1, n) if n > 1 else f),
                "compose without inverse": f.compose(g),
                "power": f.power(rng.randint(2, 4)),
                "negative power": f.power(-rng.randint(1, 3)),
                "invert": f.invert(),
            }
            words = [(), tuple(range(-n, 0)), *(random_word(rng, n, 10) for _ in range(6))]
            for name, h in maps.items():
                for w in words:
                    assert h.apply(w) == reference_apply(h, w), name

    def test_apply_rejects_letters_outside_the_alphabet(self):
        f = FreeMap([(1,), (2,)], [(1,), (2,)], 2)
        for a in (3, -3, 0, 4):
            with pytest.raises(LetterError):
                f.apply((1, a))

    def test_nielsen_and_letter_constructors(self):
        f = nielsen(1, 2, 1, 2)
        assert f.apply((1,)) == (1, 2)
        assert f.compose(f.invert()).is_identity()
        g = letter_map([2, -1])
        assert g.apply((1, 2)) == (2, -1)
        assert g.compose(g.invert()).is_identity()

    def test_conjugation(self):
        c = inner(Ambient(0, 2), (1,)).phi
        assert c.apply((2,)) == (-1, 2, 1)
        assert c.apply((1,)) == (1,)

    def test_abelianization_matrix(self):
        f = nielsen(1, 2, -1, 2)
        assert f.abelianization_matrix().entries == ((1, -1), (0, 1))

    def test_order(self):
        assert FreeMap.identity(3).order() == 1
        assert letter_map([-1, -2]).order() == 2
        assert letter_map([2, 3, 1]).order() == 3
        assert nielsen(1, 2, 1, 2).order() == math.inf
        # abelianizes to finite order but is not torsion
        twisted = FreeMap([(2,), (1, 2, -1)], None, 2)
        assert twisted.order() == math.inf


class TestApplication:
    def test_worked_images(self):
        psi = worked_morphism()
        amb = psi.ambient
        assert apply(psi, GroupElement(amb, (0, 0), (1,))) == GroupElement(amb, (1, 0), (-1,))
        assert apply(psi, GroupElement(amb, (0, 1), ())) == GroupElement(amb, (0, -1), ())
        ident = Morphism.identity(amb)
        g = GroupElement(amb, (3, -2), (1, 2, -3))
        assert apply(ident, g) == g

    def test_homomorphism_random(self):
        rng = random.Random(21)
        for _ in range(40):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            psi = random_morphism(rng, amb, invertible=False)
            g, h = random_element(rng, amb), random_element(rng, amb)
            from fatf.fatfcore import mul

            assert apply(psi, mul(g, h)) == mul(apply(psi, g), apply(psi, h))

    def test_constructor_checks_the_shapes(self):
        psi = worked_morphism()
        amb, phi, Q, P = psi.ambient, psi.phi, psi.Q, psi.P
        for args, error in (
            ((FreeMap.identity(2), Q, P), "free map rank disagrees with the ambient"),
            ((phi, IntMatrix.identity(3), P), "Q must be m x m"),
            ((phi, IntMatrix.zeros(2, 3), P), "Q must be m x m"),
            ((phi, Q, IntMatrix.zeros(2, 2)), "P must be n x m"),
            ((phi, Q, IntMatrix.zeros(3, 1)), "P must be n x m"),
        ):
            with pytest.raises(ValueError, match=error):
                Morphism(amb, *args)

    def test_frozen_with_field_repr_and_equality(self):
        psi = Morphism(Ambient(1, 2), FreeMap.identity(2), IntMatrix([[1]]), IntMatrix([[0], [0]]))
        assert repr(psi) == (
            "Morphism(ambient=Ambient(m=1, n=2), phi=FreeMap(['z1', 'z2']), "
            "Q=IntMatrix([[1]]), P=IntMatrix([[0], [0]]))"
        )
        assert psi == Morphism.identity(Ambient(1, 2))
        assert psi != Morphism(Ambient(1, 2), FreeMap.identity(2), IntMatrix([[-1]]), IntMatrix([[0], [0]]))
        assert psi != worked_morphism() and psi != psi.phi
        with pytest.raises(dataclasses.FrozenInstanceError):
            psi.Q = IntMatrix([[2]])


class TestComposition:
    def test_worked_involution(self):
        # the worked map, an involution with no free part and the identity
        # of the trivial group, whose blocks have no P or no rows at all
        swap = Morphism(Ambient(2, 0), FreeMap.identity(0), IntMatrix([[0, 1], [1, 0]]), IntMatrix.zeros(0, 2))
        for psi, k in ((worked_morphism(), 2), (swap, 2), (Morphism.identity(Ambient(0, 0)), 1)):
            ident = Morphism.identity(psi.ambient)
            assert compose(psi, psi) == ident
            assert compose(psi, ident) == psi
            assert invert(psi) == psi
            assert power(psi, 3) == psi
            assert [linear_power(psi, j) for j in range(4)] == [(power(psi, j).Q, power(psi, j).P) for j in range(4)]
            assert order(psi) == k

    def test_application_order(self):
        rng = random.Random(22)
        for _ in range(40):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            a = random_morphism(rng, amb, invertible=False)
            b = random_morphism(rng, amb, invertible=False)
            g = random_element(rng, amb)
            assert apply(compose(a, b), g) == apply(b, apply(a, g))

    def test_inverse(self):
        psi = worked_morphism()
        assert invert(psi) == psi
        # det Q = 2: phi is invertible, the block [[A, P], [0, Q]] is not
        doubled = Morphism(psi.ambient, psi.phi, IntMatrix([[2, 0], [0, 1]]), psi.P)
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            invert(doubled)
        # a free map without inverse images is refused before any matrix
        with pytest.raises(ValueError, match="no inverse images available"):
            invert(Morphism(psi.ambient, FreeMap(psi.phi.images), doubled.Q, psi.P))
        rng = random.Random(23)
        for _ in range(20):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            a = random_morphism(rng, amb, invertible=True)
            assert compose(a, invert(a)) == Morphism.identity(amb)
            assert compose(invert(a), a) == Morphism.identity(amb)
            k = rng.randint(1, 3)
            assert power(a, -k) == power(invert(a), k)
            assert compose(power(a, -k), power(a, k)) == Morphism.identity(amb)


class TestPowers:
    def test_closed_form_matches_iteration(self):
        rng = random.Random(24)
        for _ in range(30):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            # short free-map images keep the k-fold substitution small
            a = random_morphism(rng, amb, invertible=False)
            a = Morphism(amb, random_free_aut(rng, amb.n, steps=1), a.Q, a.P)
            k = rng.randint(0, 8)
            pk = power(a, k)
            it = Morphism.identity(amb)
            for _ in range(k):
                it = compose(it, a)
            assert pk == it
            assert pk.P == power_vector_matrix(a, k)

    def test_splitting_identity(self):
        rng = random.Random(25)
        for _ in range(30):
            amb = Ambient(rng.randint(1, 3), rng.randint(1, 3))
            a = random_morphism(rng, amb, invertible=False)
            C = rng.randint(1, 4)
            lam = rng.randint(1, 4)
            A = a.phi.abelianization_matrix()
            AC, QC, PC = A ** C, a.Q ** C, power_vector_matrix(a, C)
            total = IntMatrix.zeros(amb.n, amb.m)
            for j in range(lam):
                total = total + (AC ** j) * PC * (QC ** (lam - 1 - j))
            assert power_vector_matrix(a, lam * C) == total

    def test_spiral_square(self):
        sq = power(spiral_morphism(), 2)
        assert sq.P.entries == ((-2,), (0,))
        assert sq.Q.is_identity()
        assert sq.phi.is_identity()

    def test_trivial_powers(self):
        psi = worked_morphism()
        assert power(psi, 0) == Morphism.identity(psi.ambient)
        assert power(psi, 1) == psi

    def test_ladder_wastes_no_product(self, monkeypatch):
        # k.bit_length() - 1 squarings and k.bit_count() - 1 products by the
        # base: no product with the identity and no squaring past the last bit;
        # a matrix power multiplies its sparse rows by intlat._sparse_product
        calls = {
            "matrix": _spy(monkeypatch, intlat, "_sparse_product"),
            "free map": _spy(monkeypatch, FreeMap, "compose"),
            "morphism": _spy(monkeypatch, morphisms, "compose"),
        }
        psi = spiral_morphism()
        ladders = {"matrix": lambda k: psi.Q ** k, "free map": psi.phi.power, "morphism": lambda k: power(psi, k)}
        for k in range(1, 18):
            for label, ladder in ladders.items():
                calls[label].clear()
                ladder(k)
                assert len(calls[label]) == k.bit_length() + k.bit_count() - 2, (label, k)


class TestWorkDoneOnce:
    # compose and invert read the linear part off one product or inverse of
    # blocks [[A, P], [0, Q]], and a free map is checked once, when built
    def test_compose_makes_one_product(self, monkeypatch):
        calls = _spy(monkeypatch, intlat, "_sparse_product")
        rng = random.Random(30)
        for _ in range(30):
            amb = Ambient(rng.randint(0, 3), rng.randint(0, 3))
            a, b = (random_morphism(rng, amb, invertible=False) for _ in range(2))
            calls.clear()
            compose(a, b)
            assert len(calls) == 1

    def test_invert_makes_one_inverse(self, monkeypatch):
        calls = _spy(monkeypatch, morphisms, "matrix_inverse")
        rng = random.Random(31)
        for _ in range(30):
            a = random_morphism(rng, Ambient(rng.randint(0, 3), rng.randint(0, 3)))
            calls.clear()
            invert(a)
            assert len(calls) == 1

    def test_free_maps_are_checked_once(self, monkeypatch):
        # the claimed inverse is checked through the map's own inverse, and
        # compose builds its result from the words it has just reduced
        calls = _spy(monkeypatch, FreeMap, "__init__")
        rng = random.Random(32)
        for _ in range(30):
            n = rng.randint(1, 4)
            f, g = random_free_aut(rng, n), random_free_aut(rng, n)
            calls.clear()
            FreeMap(f.images, f.inverse_images, n)
            assert len(calls) == 1
            calls.clear()
            assert f.compose(g).inverse_images is not None
            assert not calls

    def test_order_ladder_carries_no_inverse(self, monkeypatch):
        seen = []
        real = FreeMap.compose

        def wrapper(f, g):
            out = real(f, g)
            seen.append((f.inverse_images, g.inverse_images, out.inverse_images))
            return out

        rng = random.Random(33)
        maps = [random_finite_order_morphism(rng, Ambient(0, rng.randint(2, 4)))[0].phi for _ in range(20)]
        monkeypatch.setattr(FreeMap, "compose", wrapper)
        for phi in maps:
            seen.clear()
            k = phi.order()
            assert len(seen) == k.bit_length() + k.bit_count() - 2
            assert all(images == (None, None, None) for images in seen)


def _spelled(f: FreeMap, g: FreeMap) -> int:
    """The letters f.compose(g) spells before reducing, counted from the
    spelled lists themselves: g's images substituted into f's, and f's
    inverse images into g's when both carry them."""
    out = len([b for w in f.images for a in w for b in g.apply((a,))])
    if f.inverse_images is not None and g.inverse_images is not None:
        out += len([b for w in g.inverse_images for a in w for b in f.invert().apply((a,))])
    return out


class TestSpelledLetters:
    # substitutions are budgeted by their exact length before reduction,
    # read off the image lengths before anything is spelled
    def test_letters_are_the_unreduced_length(self):
        rng = random.Random(34)
        for _ in range(40):
            n = rng.randint(1, 4)
            f, g = random_free_aut(rng, n, steps=6), random_free_aut(rng, n, steps=6)
            assert morphisms._letters(g.images, f.images) == _spelled(FreeMap(f.images, None, n), g)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_power_budget_at_its_edge(self, monkeypatch, inverse):
        # a budget of exactly what the ladder to f^6 spells passes; one
        # letter less is refused before the last product, which is not spelled
        f = random_free_aut(random.Random(35), 3, steps=4)
        if not inverse:
            f = FreeMap(f.images, None, 3)
        spelled = []
        real = FreeMap.compose
        monkeypatch.setattr(FreeMap, "compose", lambda f, g: spelled.append(_spelled(f, g)) or real(f, g))
        want = f.power(6)
        assert len(spelled) == 3 and all(spelled)
        monkeypatch.setattr(morphisms, "MAX_SPELLED_LETTERS", sum(spelled))
        spelled.clear()
        assert f.power(6) == want
        monkeypatch.setattr(morphisms, "MAX_SPELLED_LETTERS", sum(spelled) - 1)
        spelled.clear()
        with pytest.raises(ValueError, match="would spell more than"):
            f.power(6)
        assert len(spelled) == 2

    def test_inverse_check_budget_at_its_edge(self, monkeypatch):
        f = random_free_aut(random.Random(36), 3, steps=6)
        cost = morphisms._letters(f.inverse_images, f.images)
        assert cost == len([b for w in f.images for a in w for b in f.invert().apply((a,))])
        monkeypatch.setattr(morphisms, "MAX_SPELLED_LETTERS", cost)
        assert FreeMap(f.images, f.inverse_images, 3) == f
        monkeypatch.setattr(morphisms, "MAX_SPELLED_LETTERS", cost - 1)
        with pytest.raises(ValueError, match="would spell more than"):
            FreeMap(f.images, f.inverse_images, 3)

    def test_order_refuses_a_long_ladder(self, monkeypatch):
        # the conjugate of the 8-cycle of F_8: the ladder to phi^8 is refused
        # under a budget below what it spells, and answers under the cap
        n = 8
        alpha = random_free_aut(random.Random(37), n, steps=12)
        phi = alpha.invert().compose(letter_map([i % n + 1 for i in range(1, n + 1)])).compose(alpha)
        ladder = FreeMap(phi.images, None, n)
        assert FreeMap(phi.images, phi.inverse_images, n).order() == 8
        spelled = []
        real = FreeMap.compose
        monkeypatch.setattr(FreeMap, "compose", lambda f, g: spelled.append(_spelled(f, g)) or real(f, g))
        ladder.power(8)
        assert sum(spelled) > morphisms._letters(phi.inverse_images, phi.images)
        monkeypatch.setattr(morphisms, "MAX_SPELLED_LETTERS", sum(spelled) - 1)
        with pytest.raises(ValueError, match="the power would spell more than"):
            FreeMap(phi.images, phi.inverse_images, n).order()


class TestLinearPower:
    def test_matches_power_on_finite_order(self):
        rng = random.Random(28)
        for _ in range(30):
            amb = Ambient(rng.randint(0, 4), rng.randint(1, 3))
            psi, _, _ = random_finite_order_morphism(rng, amb)
            if rng.random() < 0.5:
                psi = Morphism(amb, psi.phi, psi.Q, random_matrix(rng, amb.n, amb.m, bound=1))
            for k in range(13):
                pk = power(psi, k)
                assert linear_power(psi, k) == (pk.Q, pk.P)

    def test_matches_power_on_any_morphism(self):
        rng = random.Random(29)
        for _ in range(30):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            a = random_morphism(rng, amb, invertible=False)
            a = Morphism(amb, random_free_aut(rng, amb.n, steps=1), a.Q, a.P)
            k = rng.randint(0, 6)
            pk = power(a, k)
            assert linear_power(a, k) == (pk.Q, pk.P)

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            linear_power(worked_morphism(), -1)


class TestOrder:
    def test_worked_cases(self):
        assert order(worked_morphism()) == 2
        assert order(Morphism.identity(Ambient(2, 2))) == 1
        assert order(spiral_morphism()) == math.inf

    def test_cyclotomic_q_of_infinite_order(self):
        # chi(Q) = Phi_1^2 is all cyclotomic, so the power check on Q^s, not
        # the factorization, finds that Q = [[1, 1], [0, 1]] has infinite order
        amb = Ambient(2, 1)
        psi = Morphism(amb, FreeMap.identity(1), IntMatrix([[1, 1], [0, 1]]), IntMatrix.zeros(1, 2))
        assert order(psi) == math.inf

    def test_minimality_and_bound(self):
        rng = random.Random(26)
        for _ in range(25):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            psi, _, expected = random_finite_order_morphism(rng, amb)
            k = order(psi)
            assert k == expected
            assert k <= automorphism_order_bound(amb.m, amb.n)
            assert power(psi, k) == Morphism.identity(amb)
            for j in range(1, min(k, 6)):
                assert power(psi, j) != Morphism.identity(amb)


    def test_finite_exactly_when_closed_form_vanishes(self):
        # phi and Q have finite order, so psi has finite order exactly when
        # the P block of psi^lcm(ord phi, ord Q) vanishes
        rng = random.Random(27)
        seen = set()
        for i in range(40):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            psi, _, _ = random_finite_order_morphism(rng, amb)
            if i % 2:
                psi = Morphism(amb, psi.phi, psi.Q, random_matrix(rng, amb.n, amb.m, bound=1))
            r3 = math.lcm(int(psi.phi.order()), int(matrix_order(psi.Q)))
            k = order(psi)
            assert (k != math.inf) == (power_vector_matrix(psi, r3) == IntMatrix.zeros(amb.n, amb.m))
            assert k in (r3, math.inf)
            seen.add(k == math.inf)
        assert seen == {True, False}


class TestInner:
    def test_basic(self):
        amb = Ambient(1, 2)
        c = inner(amb, (1,))
        assert apply(c, GroupElement(amb, (0,), (2,))) == GroupElement(amb, (0,), (-1, 2, 1))
        assert apply(c, GroupElement(amb, (1,), ())) == GroupElement(amb, (1,), ())
        assert inner(amb, ()) == Morphism.identity(amb)
        assert compose(c, invert(c)) == Morphism.identity(amb)
