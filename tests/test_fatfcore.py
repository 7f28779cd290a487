import functools
import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    bounded_products,
    equal_by_membership,
    random_element,
    random_word,
    reference_contains,
    reference_from_words,
    reference_member,
    reference_projection_word_vector,
)
from fatf import cli, jsonio
from fatf.fatfcore import members, subgroup_contains
from fatf import (
    Ambient,
    GroupElement,
    Lattice,
    SubgroupBasis,
    inv,
    member,
    mul,
    project,
    subgroup_basis,
    subgroup_equal,
)
from fatf.fatfcore import AmbientMismatch
from fatf.fixpoint import FixInput, autofixed_closure, fix_single
from fatf.freewords import LetterError, invert, reduce_word, stallings
from fatf.morphisms import apply
from fatf.oracle import Bounds, brute_fixed

AMB = Ambient(2, 2)


def elements(m=2, n=2):
    amb = Ambient(m, n)
    return st.builds(
        lambda t, seed: GroupElement(amb, t, random_word(random.Random(seed), n, 4)),
        st.tuples(*([st.integers(-3, 3)] * m)),
        st.integers(0, 10**6),
    )


class TestElements:
    def test_mul_inv_project(self):
        g = GroupElement(AMB, (1, 0), (1,))
        h = GroupElement(AMB, (0, 1), (-1,))
        assert mul(g, h) == GroupElement(AMB, (1, 1), ())
        assert inv(GroupElement(AMB, (0, 1), (2, 2))) == GroupElement(AMB, (0, -1), (-2, -2))
        assert project(GroupElement(AMB, (0, 1), (2, 2))) == (2, 2)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            mul(GroupElement(AMB, (0, 0), ()), GroupElement(Ambient(1, 2), (0,), ()))

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), elements())
    def test_group_axioms(self, g, h, k):
        assert mul(mul(g, h), k) == mul(g, mul(h, k))
        e = GroupElement(AMB, (0,) * AMB.m, ())
        assert mul(g, inv(g)) == e
        assert mul(g, e) == g


class TestSubgroupBasis:
    def test_parallel_generators(self):
        g1 = GroupElement(AMB, (1, 0), (1,))
        g2 = GroupElement(AMB, (0, 1), (1,))
        H = subgroup_basis([g1, g2], AMB)
        assert len(H.free_part) == 1
        assert H.abelian_part == Lattice.from_rows([[1, -1]], 2)
        assert member(H, GroupElement(AMB, (1, -1), ()))

    def test_pure_abelian(self):
        H = subgroup_basis([GroupElement(AMB, (0, 1), ())], AMB)
        assert H.free_part == ()
        assert H.abelian_part == Lattice.from_rows([[0, 1]], 2)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(20):
            gens = [random_element(rng, AMB) for _ in range(rng.randint(1, 3))]
            H = subgroup_basis(gens, AMB)
            K = subgroup_basis(H.basis_elements(), AMB)
            assert subgroup_equal(H, K)

    def test_no_unit_exponent_witness(self):
        # generators whose rewriting exponents are 2 and 3: the vector of
        # the basis word must still be recovered exactly, reduced modulo 3Z
        amb = Ambient(1, 1)
        H = subgroup_basis(
            [GroupElement(amb, (1,), (1, 1)), GroupElement(amb, (0,), (1, 1, 1))], amb
        )
        assert H.free_part == (((2,), (1,)),)
        assert H.abelian_part == Lattice.from_rows([[3]], 1)

    def test_vectors_must_be_integers(self):
        # 0.5 would truncate to 0
        with pytest.raises(ValueError, match="0.5 is not an integer"):
            SubgroupBasis(Ambient(1, 1), stallings([(1,)], 1), [(0.5,)], Lattice.from_rows([], 1))

    def test_basis_independent_of_generator_order(self):
        # <t^(1,0) z1, t^(0,1) z1>: the free vector is reduced modulo the
        # abelian lattice [(1,-1)], so both orders give the same bytes
        g1 = GroupElement(AMB, (1, 0), (1,))
        g2 = GroupElement(AMB, (0, 1), (1,))
        outs = []
        for gens in ([g1, g2], [g2, g1]):
            payload = {"m": 2, "n": 2, "generators": [jsonio.element_to_json(g) for g in gens]}
            code, out = cli.run(["basis"], json.dumps(payload))
            assert code == cli.EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]
        new = jsonio.subgroup_from_json(json.loads(outs[0])["basis"], AMB)
        assert new.free_part == (((0, 1), (1,)),)
        old = SubgroupBasis.from_words(AMB, [((1, 0), (1,))], Lattice.from_rows([[1, -1]], 2))
        assert subgroup_equal(new, old)
        assert member(new, g1) and member(new, g2)

    def test_one_elimination(self, monkeypatch):
        # the HNF of the rows (E_j | c_j) has pivots 1 in its first r
        # columns, so its later rows are already L's HNF
        calls = []
        real = Lattice.from_rows.__func__
        monkeypatch.setattr(Lattice, "from_rows", classmethod(lambda cls, rows, d: calls.append(d) or real(cls, rows, d)))
        rng = random.Random(6)
        for _ in range(25):
            gens = [random_element(rng, AMB, max_len=2) for _ in range(rng.randint(0, 4))]
            calls.clear()
            subgroup_basis(gens, AMB)
            assert len(calls) == 1

    def test_generators_are_members(self):
        rng = random.Random(4)
        for _ in range(25):
            gens = [random_element(rng, AMB) for _ in range(rng.randint(0, 3))]
            H = subgroup_basis(gens, AMB)
            for g in gens:
                assert member(H, g)

    def test_members_closed_under_ops(self):
        rng = random.Random(5)
        gens = [GroupElement(AMB, (1, 1), (1, 2)), GroupElement(AMB, (0, 2), (2,))]
        H = subgroup_basis(gens, AMB)
        pool = list(bounded_products(gens, AMB, 3))
        for g in pool:
            assert member(H, g)
            assert member(H, inv(g))
        for _ in range(20):
            a, b = rng.choice(pool), rng.choice(pool)
            assert member(H, mul(a, b))


class TestMembership:
    def setup_method(self):
        amb = Ambient(2, 3)
        self.amb = amb
        self.H = SubgroupBasis.from_words(
            amb,
            [((0, 1), (2, 2)), ((0, 1), (3,)), ((0, 1), (-2, 3, 2))],
            Lattice.from_rows([[1, 0]], 2),
        )

    def test_listed_basis_element(self):
        assert member(self.H, GroupElement(self.amb, (0, 1), (3,)))

    def test_identity(self):
        assert member(self.H, GroupElement(self.amb, (0,) * self.amb.m, ()))

    def test_wrong_vector(self):
        assert not member(self.H, GroupElement(self.amb, (0, 0), (3,)))

    def test_word_outside_projection(self):
        assert not member(self.H, GroupElement(self.amb, (0, 1), (2,)))

    def test_runs_of_one_word(self, monkeypatch):
        # t^(5,1) z3 lies in H and t^(0,0) z3 does not: a maximal run of one
        # word is traced once, and each element gets its own lattice check
        cases = [((5, 1), (3,), True), ((0, 0), (3,), False), ((0, 1), (2,), False),
                 ((0, 1), (2,), False), ((0, 0), (), True), ((0, 1), (3,), True)]
        gs = [GroupElement(self.amb, t, w) for t, w, _ in cases]
        want = [inside for _, _, inside in cases]
        traced = []
        trace = self.H.graph.trace
        monkeypatch.setattr(self.H.graph, "trace", lambda w: traced.append(w) or trace(w))
        assert list(members(self.H, gs)) == want
        assert traced == [(3,), (2,), (), (3,)]
        assert [member(self.H, g) for g in gs] == want

    def test_equal_ambient_object(self):
        twin = Ambient(2, 3)
        assert twin == self.amb and twin is not self.amb
        gs = [GroupElement(twin, (5, 1), (3,)), GroupElement(twin, (0, 0), (3,)), GroupElement(twin, (0, 1), (2,))]
        assert list(members(self.H, gs)) == [True, False, False]

    @pytest.mark.parametrize("word", [(3,), (2,)])
    def test_other_ambient(self, word):
        # raised whether or not the word lies in the projection
        g = GroupElement(Ambient(2, 4), (0, 1), word)
        with pytest.raises(AmbientMismatch):
            list(members(self.H, [g]))
        with pytest.raises(AmbientMismatch):
            member(self.H, g)


class TestMembersByResidue:
    """`members` compares the residues of t and v under `Lattice.reduce`;
    the reference checks each element's t - v with `Lattice.contains`."""

    @staticmethod
    def sample(rng: random.Random):
        """A subgroup and 40 elements drawn from small pools of words and
        vectors, so vectors recur under several words and one word recurs in
        runs that are not adjacent."""
        amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
        gens = [random_element(rng, amb, 3, 2) for _ in range(rng.randint(1, 3))]
        H = subgroup_basis(gens, amb)
        inside = list(bounded_products(gens, amb, 2))
        words = [g.w for g in rng.sample(inside, min(4, len(inside)))] + [random_word(rng, amb.n, 3) for _ in range(2)]
        vectors = [g.t for g in rng.sample(inside, min(3, len(inside)))] + [random_element(rng, amb, 0, 2).t]
        gs = [rng.choice(inside) if rng.random() < 0.3 else GroupElement(amb, rng.choice(vectors), rng.choice(words))
              for _ in range(40)]
        return H, gs

    def test_matches_per_element_reference(self):
        rng = random.Random(29)
        seen = Counter()
        for _ in range(60):
            H, gs = self.sample(rng)
            want = [reference_member(H, g) for g in gs]
            assert list(members(H, gs)) == want
            assert [member(H, g) for g in gs] == want
            for g, inside in zip(gs, want):
                traced = H.projection_word_vector(g.w) is not None
                seen["inside" if inside else "wrong vector" if traced else "outside projection"] += 1
            runs = [w for w, _ in itertools.groupby(g.w for g in gs)]
            seen["split runs"] += len(runs) > len(set(runs))
            seen["shared vectors"] += any(len({g.w for g in gs if g.t == t}) > 1 for t in {g.t for g in gs})
        assert min(seen.values()) >= 20 and len(seen) == 5, seen

    def test_one_reduce_per_vector_and_traced_run(self, monkeypatch):
        # a residue per distinct vector whose word traces, and one per run
        # whose word traces; words outside the projection reduce nothing
        rng = random.Random(31)
        cases = [self.sample(rng) for _ in range(20)]
        amb = Ambient(2, 3)
        H = subgroup_basis([GroupElement(amb, (0, 1), (3,))], amb)
        cases.append((H, [GroupElement(amb, (7, 7), (2,)), GroupElement(amb, (5, 1), (3,))]))
        expected = []
        for H, gs in cases:
            traced = [g for g in gs if H.projection_word_vector(g.w) is not None]
            runs = [w for w, _ in itertools.groupby(g.w for g in gs) if H.projection_word_vector(w) is not None]
            expected.append(len({g.t for g in traced}) + len(runs))
        calls = []
        reduce = Lattice.reduce
        monkeypatch.setattr(Lattice, "reduce", lambda L, v: calls.append(v) or reduce(L, v))
        for (H, gs), want in zip(cases, expected):
            calls.clear()
            list(members(H, gs))
            assert len(calls) == want
        assert sum(expected) < sum(len(gs) for _, gs in cases)

    def test_other_ambient_after_a_cached_vector(self):
        amb = Ambient(2, 3)
        H = subgroup_basis([GroupElement(amb, (0, 1), (3,))], amb)
        gs = [GroupElement(amb, (0, 1), (3,)), GroupElement(Ambient(2, 4), (0, 1), (3,))]
        got = members(H, gs)
        assert next(got) is True
        with pytest.raises(AmbientMismatch):
            next(got)


class TestSubgroupEqual:
    def test_permuted_generators(self):
        amb = Ambient(2, 2)
        gens = [GroupElement(amb, (1, 0), (1,)), GroupElement(amb, (0, 1), (2,))]
        H = subgroup_basis(gens, amb)
        K = subgroup_basis(list(reversed(gens)), amb)
        assert subgroup_equal(H, K)

    def test_different_vectors_differ(self):
        amb = Ambient(2, 2)
        H = subgroup_basis([GroupElement(amb, (0, 1), (2, 2))], amb)
        K = subgroup_basis([GroupElement(amb, (0, 2), (2, 2))], amb)
        assert not subgroup_equal(H, K)

    def test_trivial_and_full(self):
        amb = Ambient(2, 2)
        trivial = SubgroupBasis.from_words(amb, [], Lattice.from_rows([], 2))
        assert subgroup_equal(trivial, subgroup_basis([], amb))
        assert not member(trivial, GroupElement(amb, (0, 1), ()))
        gens = [GroupElement(amb, t, ()) for t in ((1, 0), (0, 1))]
        F = subgroup_basis(gens + [GroupElement(amb, (0, 0), (i,)) for i in (1, 2)], amb)
        assert member(F, GroupElement(amb, (5, -7), (1, 2, -1)))


class TestCanonicalEquality:
    def test_equality_matches_membership(self):
        # K is H regenerated from shuffled and multiplied generators (equal),
        # H with one more random element (sometimes equal) or an unrelated
        # subgroup; == must agree with two-way membership on every pair
        rng = random.Random(41)
        outcomes = set()
        for trial in range(150):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            gens = [random_element(rng, amb, 3, 2) for _ in range(rng.randint(1, 3))]
            H = subgroup_basis(gens, amb)
            kind = trial % 3
            if kind == 0:
                other = list(gens) + [mul(rng.choice(gens), inv(rng.choice(gens)))]
                rng.shuffle(other)
            elif kind == 1:
                other = gens + [random_element(rng, amb, 2, 1)]
            else:
                other = [random_element(rng, amb, 3, 2) for _ in range(rng.randint(1, 3))]
            K = subgroup_basis(other, amb)
            same = H == K
            assert same == equal_by_membership(H, K)
            assert same == subgroup_equal(H, K)
            if same:
                assert hash(H) == hash(K)
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_words_restated_over_the_graph(self):
        # a basis given by words and vectors, read back through from_words
        # in any order, with Nielsen-moved words and with vectors shifted by
        # the abelian lattice, is the same triple
        rng = random.Random(42)
        for _ in range(40):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            H = subgroup_basis([random_element(rng, amb) for _ in range(3)], amb)
            L = H.abelian_part.basis
            pairs = []
            for a, u in H.free_part:
                shift = L.apply_row([rng.randint(-2, 2) for _ in range(L.rows)])
                pairs.append((tuple(x + y for x, y in zip(a, shift)), u))
            rng.shuffle(pairs)
            if len(pairs) >= 2:
                (a, u), (b, v) = pairs[0], pairs[1]
                g = mul(GroupElement(amb, a, u), GroupElement(amb, b, v))
                pairs[0] = (g.t, g.w)
            K = SubgroupBasis.from_words(amb, pairs, H.abelian_part)
            assert K == H and hash(K) == hash(H)
            assert K.basis_elements() == H.basis_elements()

    def test_ambient_is_part_of_the_key(self):
        H, K = subgroup_basis([], Ambient(1, 2)), subgroup_basis([], Ambient(2, 2))
        assert H != K
        with pytest.raises(AmbientMismatch):
            subgroup_equal(H, K)


class TestProjectionWordVector:
    def test_matches_the_rank_length_reference(self):
        # words inside the projection are products of basis words; random
        # words mostly fall outside it
        rng = random.Random(44)
        seen = Counter()
        for _ in range(150):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            H = subgroup_basis([random_element(rng, amb, 4, 3) for _ in range(rng.randint(0, 4))], amb)
            words = [random_word(rng, amb.n, 6) for _ in range(3)]
            pool = [u for _, u in H.free_part] + [invert(u) for _, u in H.free_part]
            for _ in range(3 if pool else 0):
                words.append(reduce_word([a for u in rng.choices(pool, k=rng.randint(1, 5)) for a in u]))
            for w in words:
                got = H.projection_word_vector(w)
                assert got == reference_projection_word_vector(H, w)
                seen["inside" if got is not None else "outside"] += 1
        assert seen["inside"] >= 100 and seen["outside"] >= 100, seen


class TestContainment:
    """`subgroup_contains` decides K <= H on the graphs; the reference
    traces every basis element of K through H."""

    def test_matches_the_membership_reference(self):
        rng = random.Random(19)
        outcomes = Counter()
        for trial in range(300):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            gens = [random_element(rng, amb, 3, 2) for _ in range(rng.randint(1, 3))]
            gens += [random_element(rng, amb, 0, 2) for _ in range(rng.randint(0, amb.m))]
            H = subgroup_basis(gens, amb)
            # products of H's generators lie in H
            pool = gens + [inv(g) for g in gens]
            inside = [functools.reduce(mul, rng.choices(pool, k=rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
            kind = trial % 3
            if kind == 1 or not amb.m:
                inside.append(random_element(rng, amb, 3, 2))
            elif kind == 2:
                # the same word with its vector moved by a unit vector, in H
                # exactly when the unit vector lies in H's abelian part
                g = rng.choice(inside + gens)
                e = [int(i == rng.randrange(amb.m)) for i in range(amb.m)]
                inside.append(GroupElement(amb, [x + y for x, y in zip(g.t, e)], g.w))
            K = subgroup_basis(inside, amb)
            got = subgroup_contains(H, K)
            assert got == reference_contains(H, K)
            outcomes[got] += 1
            outcomes["graph maps, vector outside"] += not got and K.graph.maps_into(H.graph) is not None
        assert outcomes[True] >= 50 and outcomes[False] >= 50, outcomes
        assert outcomes["graph maps, vector outside"] >= 20, outcomes

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subgroup_contains(subgroup_basis([], Ambient(1, 2)), subgroup_basis([], Ambient(2, 2)))


class TestValidation:
    def test_identity_word_rejected(self):
        with pytest.raises(ValueError):
            SubgroupBasis.from_words(AMB, [((0, 0), ())], Lattice.from_rows([], 2))

    def test_dependent_words_rejected(self):
        with pytest.raises(ValueError):
            SubgroupBasis.from_words(AMB, [((0, 0), (1,)), ((0, 0), (1, 1))], Lattice.from_rows([], 2))

    def test_constructor_rejects_parts_that_do_not_fit(self):
        H = subgroup_basis([GroupElement(AMB, (1, 0), (1,))], AMB)
        assert SubgroupBasis(AMB, H.graph, H.vectors, H.abelian_part) == H
        other = subgroup_basis([GroupElement(Ambient(2, 3), (1, 0), (1,))], Ambient(2, 3))
        for graph, vectors, lattice, error in (
            (H.graph, H.vectors, Lattice.from_rows([], 3), "abelian lattice lives in the wrong ambient"),
            (other.graph, H.vectors, H.abelian_part, "graph lives in the wrong ambient"),
            (H.graph, H.vectors * 2, H.abelian_part, "one vector per basis word"),
            (H.graph, (), H.abelian_part, "one vector per basis word"),
        ):
            with pytest.raises(ValueError, match=error):
                SubgroupBasis(AMB, graph, vectors, lattice)


class TestFromWordsReference:
    def test_same_bytes_or_same_error_as_reference(self):
        # from_words goes through subgroup_basis; the reference folds the
        # words and restates the vectors as T^-1 A
        rng = random.Random(29)
        outcomes = set()
        for _ in range(1000):
            m, n = rng.randint(0, 3), rng.randint(1, 3)
            amb = Ambient(m, n)
            words = [random_word(rng, n, 5) for _ in range(rng.randint(0, n + 1))]
            if len(words) >= 2 and rng.random() < 0.3:
                words[1] = words[0] + words[1]
            free = [(tuple(rng.randint(-4, 4) for _ in range(m)), u) for u in words]
            rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))]
            lat = Lattice.from_rows(rows, m)
            results = []
            for build in (SubgroupBasis.from_words, reference_from_words):
                try:
                    results.append(json.dumps(jsonio.subgroup_to_json(build(amb, free, lat))))
                except ValueError as e:
                    results.append(str(e))
            assert results[0] == results[1]
            outcomes.add(results[0].startswith("{"))
        assert outcomes == {True, False}


class TestTrustedConstructor:
    """Internal builders make elements with GroupElement._trusted, which
    checks nothing; what they make must equal what the public constructor
    makes of the same t and w."""

    @staticmethod
    def _public_equal(g: GroupElement) -> None:
        rebuilt = GroupElement(g.ambient, g.t, g.w)
        assert g == rebuilt and hash(g) == hash(rebuilt)
        assert type(g.t) is tuple and len(g.t) == g.ambient.m
        assert all(type(x) is int for x in g.t)
        assert type(g.w) is tuple and all(type(a) is int for a in g.w)

    def test_builders_match_public_constructor(self, monkeypatch):
        from test_acceptance import finite_order_suite

        # every _trusted call checks its element and counts its builder, the
        # nearest enclosing function that is not a comprehension
        builders = Counter()
        real = GroupElement._trusted

        def checked(cls, ambient, t, w):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            builders[frame.f_code.co_name] += 1
            g = real(ambient, t, w)
            self._public_equal(g)
            return g

        monkeypatch.setattr(GroupElement, "_trusted", classmethod(checked))
        rng = random.Random(16)
        for psi, basis, _ in finite_order_suite():
            amb = psi.ambient
            res = fix_single(psi, basis)
            fixed = brute_fixed([psi], Bounds(3, 1))
            if res.basis is not None:
                gens = res.basis.basis_elements()
                H = autofixed_closure(res.basis, FixInput((psi,), (tuple(basis),))).basis
                fixed += H.basis_elements()
                fixed += [mul(g, inv(h)) for g in gens for h in gens]
            fixed += [apply(psi, random_element(rng, amb)) for _ in range(3)]
            for g in fixed:
                self._public_equal(g)
        assert set(builders) == {"mul", "inv", "basis_elements", "apply", "brute_fixed"}

    def test_public_constructor_keeps_its_checks(self):
        amb = Ambient(1, 2)
        assert GroupElement(amb, (0,), (1, -1)).w == ()
        assert GroupElement(amb, ["2"], [2, 1, -1]) == GroupElement(amb, (2,), (2,))
        for letter in (0, 3, -3):
            with pytest.raises(LetterError):
                GroupElement(amb, (0,), (1, letter))
        for t in ((), (0, 0)):
            with pytest.raises(ValueError, match="wrong length"):
                GroupElement(amb, t, (1,))
        # int() would truncate these silently
        for t in ((2.7,), (-0.5,)):
            with pytest.raises(ValueError, match="not an integer"):
                GroupElement(Ambient(1, 1), t, (1,))
        assert GroupElement(amb, (True,), ()).t == (1,)
        for m, n in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                Ambient(m, n)
