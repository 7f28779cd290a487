import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import as_reference, delta_of, edges_of, random_word, reference_finish, reference_stallings
from fatf import Ambient, FreeMap, GroupElement
from fatf.freewords import (
    MAX_WORD_LETTERS,
    IndexBoundExceeded,
    StallingsGraph,
    LetterError,
    abelianize,
    alphabet,
    format_word,
    invert,
    multiply,
    pullback,
    reduce_word,
    schreier_basis,
    spell_word,
    stallings,
)
from fatf.intlat import IntMatrix, Lattice

words3 = st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool), min_size=0, max_size=8
).map(lambda ls: reduce_word(ls))


class TestWords:
    def test_reduce(self):
        assert reduce_word([1, -1, 2]) == (2,)
        assert reduce_word([1, 2, -2, -1]) == ()

    def test_multiply_cancels(self):
        assert multiply((2, 2), (-2, 3, 2)) == (2, 3, 2)

    def test_invert(self):
        assert invert((1, 2)) == (-2, -1)

    def test_letter_range_check(self):
        with pytest.raises(LetterError, match="letter 4 outside alphabet of rank 3"):
            reduce_word([1, 4], n=3)
        # a float or a bool can compare equal to an in-range int, yet spells
        # no letter: the word boundary refuses it behind every constructor
        for build in (
            lambda: reduce_word([1.0], n=2),
            lambda: GroupElement(Ambient(0, 2), (), (1.5,)),
            lambda: GroupElement(Ambient(0, 2), (), (True,)),
            lambda: FreeMap([(1.5,), (2,)]),
            lambda: stallings([(1.5, 2)], 2),
        ):
            with pytest.raises(LetterError, match="outside alphabet of rank 2"):
                build()

    @settings(max_examples=80, deadline=None)
    @given(words3, words3, words3)
    def test_group_laws(self, u, v, w):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        assert multiply(u, invert(u)) == ()
        assert multiply((), u) == u

    @settings(max_examples=50, deadline=None)
    @given(words3, words3)
    def test_abelianize_homomorphism(self, u, v):
        au = abelianize(u, 3)
        av = abelianize(v, 3)
        assert abelianize(multiply(u, v), 3) == tuple(a + b for a, b in zip(au, av))

    def test_abelianize_examples(self):
        assert abelianize((-2, 3, 2), 3) == (0, 0, 1)
        assert abelianize((), 3) == (0, 0, 0)
        assert abelianize((1, 1, -2, -2, -2), 3) == (2, -3, 0)

    def test_parse_format_roundtrip(self):
        w = reduce_word(spell_word("z1 z2^-1 z1"))
        assert w == (1, -2, 1)
        assert format_word(w) == "z1 z2^-1 z1"
        assert spell_word("") == []
        assert spell_word("z2^3 z2^-1") == [2, 2, 2, -2]
        with pytest.raises(ValueError):
            spell_word("x1")

    def test_parse_word_budget(self):
        assert len(spell_word(f"z1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
        for text in (f"z1^{MAX_WORD_LETTERS + 1}", "z1^-100000000", f"z2 z1^{MAX_WORD_LETTERS}"):
            with pytest.raises(ValueError, match="longer than"):
                spell_word(text)


class TestStallings:
    def test_worked_subgroup(self):
        g = stallings([(2, 2), (3,), (-2, 3, 2)], 3)
        assert g.num_vertices == 2
        assert g.rank == 3

    def test_single_loop(self):
        g = stallings([(1,)], 2)
        assert g.num_vertices == 1
        assert g.rank == 1

    def test_generator_and_inverse_fold(self):
        assert stallings([(1,), (-1,)], 2) == stallings([(1,)], 2)

    def test_order_independence(self):
        a = stallings([(1, 2), (2, 1), (1, 1)], 2)
        b = stallings([(1, 1), (1, 2), (2, 1)], 2)
        c = stallings([(1, 2), (2, 1), (1, 1), (1, 2)], 2)
        assert a == b == c
        # the hash reads sizes that equal edge tables share
        assert hash(a) == hash(b) == hash(c) and len({a, b, c}) == 1

    def test_member_expression_reexpands(self):
        g = stallings([(2, 2), (3,), (-2, 3, 2)], 3)
        expr = g.trace((2, 3, 2))
        assert expr is not None
        basis = g.basis_words
        w = ()
        for idx in expr:
            u = basis[abs(idx) - 1]
            w = multiply(w, u if idx > 0 else invert(u))
        assert w == (2, 3, 2)

    def test_member_identity_and_absent(self):
        g = stallings([(2, 2), (3,), (-2, 3, 2)], 3)
        assert g.trace(()) == []
        assert g.trace((2,)) is None

    def test_member_brute_agreement(self):
        rng = random.Random(5)
        for _ in range(30):
            gens = [random_word(rng, 3, 4) for _ in range(rng.randint(1, 3))]
            g = stallings(gens, 3)
            basis = g.basis_words
            # all products of a few basis elements are members
            pool = {()}
            for _ in range(3):
                pool |= {
                    multiply(w, s if pos else invert(s))
                    for w in pool
                    for s in basis
                    for pos in (True, False)
                }
            for w in pool:
                assert g.trace(w) is not None
            w = random_word(rng, 3, 8)
            expr = g.trace(w)
            if expr is not None:
                assert _expand(expr, basis) == w


class TestReferenceFold:
    """The worklist fold and the one-pass constructor against the fixpoint fold,
    trim loop and BFS tree they replaced (conftest.reference_stallings)."""

    def test_random_generator_sets(self):
        rng = random.Random(2006)
        cancelling = 0
        for _ in range(2400):
            n = rng.randint(1, 4)
            gens = [random_word(rng, n, 8) for _ in range(rng.randint(0, 5))]
            if gens and rng.random() < 0.5:
                # unreduced generators: a prefix of one generator, a detour
                # and the prefix's inverse, and a word times its own inverse
                u = gens[0][: rng.randint(0, len(gens[0]))]
                gens.append(u + random_word(rng, n, 3) + invert(u))
                gens.append(gens[-1] + invert(gens[-1]))
                cancelling += 1
            assert as_reference(stallings(gens, n)) == reference_stallings(gens, n)
        assert cancelling >= 900

    def test_finish_peels_hanging_trees(self):
        # a folded graph with trees hung on it and a second component, on
        # shuffled vertex names: the constructor keeps only the core of the
        # basepoint component, numbered canonically
        rng = random.Random(2002)
        peeled = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            g = stallings([random_word(rng, n, 6) for _ in range(rng.randint(1, 3))], n)
            other = stallings([random_word(rng, n, 6)], n)
            size = g.num_vertices
            delta = delta_of(g)
            delta.update({(v + size, a): w + size for (v, a), w in delta_of(other).items()})
            total = size + other.num_vertices
            for _ in range(rng.randint(0, 8)):
                v, a = rng.randrange(total), rng.choice([x for x in range(-n, n + 1) if x])
                if (v, a) not in delta:
                    delta[(v, a)] = total
                    delta[(total, -a)] = v
                    total += 1
            names = list(range(total))
            rng.shuffle(names)
            # shuffled edges too: the constructor orders each vertex's letters
            items = list(delta.items())
            rng.shuffle(items)
            named = {(names[v], a): names[w] for (v, a), w in items}
            got = as_reference(StallingsGraph(n, names[0], edges_of(named)))
            assert got == reference_finish(n, names[0], named)
            peeled += total > got[0] + other.num_vertices
        assert peeled >= 200

    def test_numbered_graph_is_kept(self):
        # a graph searched again along its own numbered transitions comes back
        # as the same graph with the same spanning tree, and so does every
        # graph the one search builds from a transition function: products of
        # two folds, and residue covers over congruence lattices
        rng = random.Random(1983)
        # <z1 z2^-1, z2^-1 z1^-1> meets <z2 z1, z1 z2> in <z1 z2>: the search
        # reaches the product vertex (1, 2) by z2 and finds no other edge
        # there, so it is peeled and the survivors are renumbered
        g = stallings([(1, -2), (-2, -1)], 2)
        h = stallings([(2, 1), (1, 2)], 2)
        hanging = pullback(g, lambda v, a: h.edges[v].get(a), 0)
        assert (hanging.num_vertices, hanging.basis_words) == (2, [(1, 2)])
        graphs = [hanging]
        for _ in range(300):
            n = rng.randint(1, 4)
            g = stallings([random_word(rng, n, 8) for _ in range(rng.randint(1, 4))], n)
            h = stallings([random_word(rng, n, 8) for _ in range(rng.randint(1, 4))], n)
            congruence = Lattice.from_rows([[rng.randint(1, 3) * (i == j) for j in range(n)] for i in range(n)], n)
            graphs += [g, pullback(g, lambda v, a: h.edges[v].get(a), 0), pullback(g, congruence.shift, (0,) * n)]
        traced = 0
        for graph in graphs:
            again = StallingsGraph(graph.n, 0, graph.edges.__getitem__)
            assert again == graph and again.basis_words == graph.basis_words
            # the edge table is the canonical form: each vertex's letters in
            # alphabet order, each tree and basis edge stored once each way,
            # and each basis edge crossed once from each end, with both signs
            assert all(list(row) == [a for a in alphabet(graph.n) if a in row] for row in graph.edges)
            assert sum(map(len, graph.edges)) == 2 * (graph.num_vertices - 1 + graph.rank)
            hits = [(v, a, i) for v, row in enumerate(graph.crossings) for a, i in row.items()]
            assert sorted(i for _, _, i in hits) == [*range(-graph.rank, 0), *range(1, graph.rank + 1)]
            assert all(graph.crossings[graph.edges[v][a]][-a] == -i for v, a, i in hits)
            assert as_reference(graph) == reference_stallings(graph.basis_words, graph.n)
            # trace returns its crossings as walked: a reduced word never
            # crosses a basis edge and then straight back over it
            basis = graph.basis_words
            for _ in range(10):
                member = ()
                for u in rng.choices(basis, k=rng.randint(0, 5)) if basis else ():
                    member = multiply(member, u if rng.random() < 0.5 else invert(u))
                for w in (member, random_word(rng, graph.n, 8)):
                    expr = graph.trace(w)
                    assert expr is not None or w != member
                    if expr is not None:
                        assert all(x != -y for x, y in zip(expr, expr[1:])), (w, expr)
                        assert _expand(expr, basis) == w
                        traced += 1
        assert traced >= 9000

    def test_refold_of_basis_words(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            g = stallings([random_word(rng, n, 8) for _ in range(rng.randint(1, 5))], n)
            assert stallings(g.basis_words, n) == g
            assert g.basis_words is g.basis_words


class TestPullback:
    def test_cyclic_powers(self):
        cube = stallings([(1, 1, 1)], 2)
        g = pullback(stallings([(1, 1)], 2), lambda v, a: cube.edges[v].get(a), 0)
        assert g.basis_words == [(1,) * 6]

    def test_self_intersection(self):
        h = stallings([(1, 2), (2, 2)], 2)
        assert pullback(h, lambda v, a: h.edges[v].get(a), 0) == h

    def test_disjoint(self):
        other = stallings([(2,)], 2)
        g = pullback(stallings([(1,)], 2), lambda v, a: other.edges[v].get(a), 0)
        assert g.rank == 0

    def test_soundness_random(self):
        rng = random.Random(11)
        for _ in range(25):
            g1 = stallings([random_word(rng, 2, 4) for _ in range(2)], 2)
            g2 = stallings([random_word(rng, 2, 4) for _ in range(2)], 2)
            pb = pullback(g1, lambda v, a: g2.edges[v].get(a), 0)
            for _ in range(10):
                w = random_word(rng, 2, 8)
                both = g1.trace(w) is not None and g2.trace(w) is not None
                assert (pb.trace(w) is not None) == both

    def test_products_equal_the_reference_intersection(self):
        # pullback keeps each transition it steps with its inverse, so no
        # transition is stepped twice and no edge's reverse is stepped; the
        # product is still the one built from every pair of vertices
        rng = random.Random(33)
        for _ in range(150):
            n = rng.randint(1, 3)
            g1, g2 = (stallings([random_word(rng, n, 6) for _ in range(rng.randint(1, 3))], n) for _ in range(2))
            calls = {}

            def step(s, a):
                t = g2.edges[s].get(a)
                assert calls.get((s, a)) is None
                calls[s, a] = t
                return t

            got = pullback(g1, step, 0)
            delta = {
                ((v, s), a): (w, t)
                for v, row in enumerate(g1.edges)
                for s, other in enumerate(g2.edges)
                for a, w in row.items()
                if (t := other.get(a)) is not None
            }
            assert as_reference(got) == reference_finish(n, (0, 0), delta)
            assert not any(calls.get((t, -a)) == s for (s, a), t in calls.items() if t is not None)


class TestGraphQueries:
    """`basis_abelianized` and `maps_into` read the graph only; the words
    they stand for are the reference."""

    @staticmethod
    def graphs(rng: random.Random, n: int):
        """A fold of random words, its intersection with another and its
        cover by the residues of a full-rank lattice in Z^n."""
        g = stallings([random_word(rng, n, 6) for _ in range(rng.randint(1, 4))], n)
        h = stallings([random_word(rng, n, 6) for _ in range(rng.randint(1, 4))], n)
        rows = [[rng.randint(1, 3) if i == j else rng.randint(0, 2) * (i < j) for j in range(n)] for i in range(n)]
        L = Lattice.from_rows(rows, n)
        cover = pullback(g, TestIndexAndSchreier.residue_step(L), (0,) * n)
        return g, h, pullback(g, lambda v, a: h.edges[v].get(a), 0), cover

    def test_basis_abelianized_matches_words(self):
        rng = random.Random(1902)
        for _ in range(200):
            n = rng.randint(1, 4)
            for graph in self.graphs(rng, n):
                got = graph.basis_abelianized
                assert "basis_words" not in graph.__dict__
                assert got == [abelianize(u, n) for u in graph.basis_words]

    def test_maps_into_is_containment(self):
        rng = random.Random(1983)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(1, 3)
            g, h, meet, cover = self.graphs(rng, n)
            contained = all(h.trace(u) is not None for u in g.basis_words)
            image = g.maps_into(h)
            assert (image is not None) == contained
            if contained:
                # the vertex map sends base to base and each edge onto an edge
                assert image[0] == 0 and len(image) == g.num_vertices
                assert all(h.edges[image[v]].get(a) == image[w] for (v, a), w in delta_of(g).items())
            assert all(x.maps_into(y) is not None for x, y in ((meet, g), (meet, h), (cover, g)))
            outcomes.add(contained)
        assert outcomes == {True, False}


class TestIndexAndSchreier:
    @staticmethod
    def complete(g: StallingsGraph) -> bool:
        """Every vertex carries all 2n labels, so the subgroup's index is the
        number of vertices."""
        return sum(map(len, g.edges)) == 2 * g.n * g.num_vertices

    def test_worked_index(self):
        g = stallings([(2, 2), (3,), (-2, 3, 2)], 3)
        # complete on the two-letter sub-alphabet only
        sub = stallings([(1, 1), (2,), (-1, 2, 1)], 2)
        assert self.complete(sub) and sub.num_vertices == 2
        assert not self.complete(g)

    def test_whole_group(self):
        g = stallings([(1,), (2,)], 2)
        assert self.complete(g) and g.num_vertices == 1
        assert not self.complete(stallings([(1,)], 2))

    def test_schreier_even_exponent(self):
        key = lambda w: abelianize(w, 2)[0] % 2
        basis = schreier_basis([(2,), (3,)], key, 2)
        got = stallings([tuple(w) for w in basis], 3)
        want = stallings([(2, 2), (3,), (-2, 3, 2)], 3)
        assert got == want

    def test_schreier_full_group(self):
        basis = schreier_basis([(1,), (2,)], lambda w: 0, 1)
        assert stallings(basis, 2) == stallings([(1,), (2,)], 2)

    def test_schreier_cyclic_mod3(self):
        key = lambda w: abelianize(w, 1)[0] % 3
        basis = schreier_basis([(1,)], key, 3)
        assert basis == [(1, 1, 1)]

    def test_schreier_rank_formula(self):
        # index ell in rank r ambient gives rank ell*(r-1)+1
        for mod, r in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            ambient = [(i,) for i in range(1, r + 1)]
            key = lambda w, mod=mod: abelianize(w, r)[0] % mod
            basis = schreier_basis(ambient, key, mod)
            assert len(basis) == mod * (r - 1) + 1

    def test_bound_violation_detected(self):
        key = lambda w: abelianize(w, 1)[0] % 3
        with pytest.raises(IndexBoundExceeded):
            schreier_basis([(1,)], key, 2)

    @staticmethod
    def residue_step(L: Lattice):
        """Z^n acting on its residues modulo L: letter a adds +-e_|a|."""

        def step(r, a):
            v = list(r)
            v[abs(a) - 1] += 1 if a > 0 else -1
            return L.reduce(v)[1]

        return step

    @staticmethod
    def schreier_graph(ambient, n, L, bound):
        """The refolded Schreier basis of the words of <ambient> whose
        abelianization lies in L; an abstract word's coset is the residue of
        the abelianization of the ambient word it spells."""
        R = IntMatrix([abelianize(w, n) for w in ambient], cols=n)
        key = lambda x: L.reduce(R.apply_row(abelianize(x, len(ambient))))[1]
        return stallings(schreier_basis(ambient, key, bound), n)

    @staticmethod
    def congruence(n, j, mod):
        """{v in Z^n : v[j] = 0 mod mod}, the lattice whose residues are the
        keys abelianize(w, n)[j] % mod."""
        rows = [[mod if i == j else 0 for i in range(n)]]
        rows += [[int(i == k) for i in range(n)] for k in range(n) if k != j]
        return Lattice.from_rows(rows, n)

    # (ambient basis, n, coordinate j, mod): the words of <ambient> whose
    # exponent sum in z_(j+1) is 0 mod mod
    ROSE_CASES = [
        ([(2,), (3,)], 3, 1, 2),
        ([(1,), (2,)], 2, 0, 1),
        ([(1,)], 1, 0, 3),
    ] + [([(i,) for i in range(1, r + 1)], r, 0, mod) for mod, r in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]]

    @pytest.mark.parametrize("case", range(len(ROSE_CASES)))
    def test_cover_of_rose_is_schreier_graph(self, case):
        ambient, n, j, mod = self.ROSE_CASES[case]
        rose = stallings(ambient, n)
        assert rose.basis_words == ambient
        L = self.congruence(n, j, mod)
        got = pullback(rose, self.residue_step(L), (0,) * n)
        # every vertex carries all labels of the sub-alphabet: index mod
        assert got.num_vertices == mod and sum(map(len, got.edges)) == 2 * len(ambient) * mod
        assert got == self.schreier_graph(ambient, n, L, mod)

    def test_cover_of_folded_graph_matches_refold(self):
        # over any folded graph, the residue pullback recognizes the same
        # subgroup as the folded substituted Schreier basis
        rng = random.Random(17)
        checked = 0
        for _ in range(40):
            g = stallings([random_word(rng, 2, 5) for _ in range(rng.randint(1, 3))], 2)
            if g.rank == 0:
                continue
            mod = rng.randint(2, 4)
            L = self.congruence(2, rng.randrange(2), mod)
            got = pullback(g, self.residue_step(L), (0, 0))
            assert got.num_vertices <= mod * g.num_vertices
            assert got == self.schreier_graph(g.basis_words, 2, L, mod)
            checked += 1
        assert checked >= 30


def _expand(expr, basis):
    """The word of a `trace` expression over `basis`."""
    word = ()
    for idx in expr:
        u = basis[abs(idx) - 1]
        word = multiply(word, u if idx > 0 else invert(u))
    return word
