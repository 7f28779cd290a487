import functools
import hashlib
import json
import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from conftest import (
    ia_map,
    inner,
    letter_map,
    nielsen,
    random_finite_order_morphism,
    random_matrix,
    reference_autofixed_closure,
    reference_certify,
)
from fatf import cli, fixpoint, freewords, intlat, jsonio
from fatf import (
    Ambient,
    FreeMap,
    GroupElement,
    IntMatrix,
    Lattice,
    Morphism,
    SubgroupBasis,
    fix_single,
    fix_tuple,
    inv,
    member,
    mul,
    periodic_exponent,
    periodic_subgroup,
    subgroup_basis,
    subgroup_equal,
)
from fatf.fixpoint import (
    CertificateError,
    FixInput,
    InvalidFixInput,
    autofixed_closure,
    fix_power,
    is_autofixed,
)
from fatf.freewords import StallingsGraph, abelianize, stallings
from fatf.intlat import kernel_lattice, lattice_intersect, matrix_inverse
from fatf.morphisms import apply, power
from fatf.oracle import Bounds, brute_fixed

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def worked_morphism():
    amb = Ambient(2, 3)
    phi = FreeMap([(-1,), (2,), (3,)], [(-1,), (2,), (3,)], 3)
    Q = IntMatrix([[1, 0], [0, -1]])
    P = IntMatrix([[1, 0], [0, 1], [0, 2]])
    return Morphism(amb, phi, Q, P)


def spiral_morphism():
    amb = Ambient(1, 2)
    phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
    return Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))


WORKED_BASIS = SubgroupBasis.from_words(
    Ambient(2, 3),
    [((0, 1), (2, 2)), ((0, 1), (3,)), ((0, 1), (-2, 3, 2))],
    Lattice.from_rows([[1, 0]], 2),
)


class TestFixSingle:
    def test_worked_example(self):
        psi = worked_morphism()
        res = fix_single(psi, [(2,), (3,)])
        assert res.finitely_generated
        d = res.diagnostics
        assert d.im_P == Lattice.from_rows([[0, 1]], 2)
        assert d.M == Lattice.from_rows([[0, 2]], 2)
        assert d.N == Lattice.from_rows([[0, 2]], 2)
        assert d.preimage == Lattice.from_rows([[0, 2, 0], [0, 0, 1]], 3)
        assert d.ell == 2
        assert subgroup_equal(res.basis, WORKED_BASIS)

    def test_trivial_free_intersection(self):
        psi = spiral_morphism()
        res = fix_single(psi, [])
        assert res.finitely_generated
        assert res.basis.free_part == ()
        assert res.basis.abelian_part.rank == 0

    def test_not_finitely_generated(self):
        sq = power(spiral_morphism(), 2)
        res = fix_single(sq, [(1,), (2,)])
        assert not res.finitely_generated
        assert res.basis is None
        assert res.diagnostics.N.rank == 0
        assert res.diagnostics.im_P.rank == 1

    def test_identity_gives_whole_group(self):
        amb = Ambient(2, 2)
        res = fix_single(Morphism.identity(amb), [(1,), (2,)])
        assert res.finitely_generated
        assert subgroup_equal(
            res.basis,
            SubgroupBasis.from_words(
                amb, [((0, 0), (1,)), ((0, 0), (2,))], Lattice.from_rows([[1, 0], [0, 1]], 2)
            ),
        )

    def test_cyclic_with_abelian_defect(self):
        # free part fixes only powers of z1 and every power picks up a
        # nonzero abelian shift, so only the lattice survives
        amb = Ambient(1, 2)
        phi = FreeMap([(1,), (-2,)], [(1,), (-2,)], 2)
        psi = Morphism(amb, phi, IntMatrix([[1]]), IntMatrix([[1], [0]]))
        res = fix_single(psi, [(1,)])
        assert res.finitely_generated
        assert res.basis.free_part == ()
        assert res.basis.abelian_part == Lattice.from_rows([[1]], 1)
        assert res.diagnostics.N.rank == 0 and res.diagnostics.im_P.rank == 1
        fx = brute_fixed([psi], Bounds(4, 3))
        assert all(member(res.basis, g) for g in fx)

    def test_rejects_unfixed_basis(self):
        with pytest.raises(InvalidFixInput):
            fix_single(worked_morphism(), [(1,)])
        psi = worked_morphism()
        with pytest.raises(InvalidFixInput, match="one fixed free-basis per morphism"):
            FixInput((psi, psi), (((2,), (3,)),))


class TestFixTuple:
    def test_basis_letters_checked_before_the_maps(self):
        # the first map is not onto, but the letter z5 of the second basis is
        # the fault named, as the CLI names it
        amb = Ambient(1, 2)
        not_onto = Morphism(amb, FreeMap([(1, 1), (2,)], None, 2), IntMatrix([[1]]), IntMatrix.zeros(2, 1))
        with pytest.raises(freewords.LetterError, match="letter 5"):
            FixInput((not_onto, Morphism.identity(amb)), ((), ((5,),)))

    def test_two_morphisms(self):
        amb = Ambient(1, 2)
        a = Morphism(
            amb, letter_map([1, -2]), IntMatrix([[1]]), IntMatrix([[0], [1]])
        )
        b = Morphism(
            amb, letter_map([-1, 2]), IntMatrix([[1]]), IntMatrix([[0], [0]])
        )
        res = fix_tuple(
            FixInput((a, b), (((1,),), ((2,),)))
        )
        assert res.finitely_generated
        # only the central lattice is fixed by both
        assert res.basis.free_part == ()
        assert res.basis.abelian_part == Lattice.from_rows([[1]], 1)
        fx = brute_fixed([a, b], Bounds(4, 2))
        assert all(member(res.basis, g) for g in fx)

    def test_intersection_contains_pairwise(self):
        rng = random.Random(31)
        for _ in range(15):
            amb = Ambient(rng.randint(0, 2), rng.randint(1, 3))
            p1, b1, _ = random_finite_order_morphism(rng, amb)
            p2, b2, _ = random_finite_order_morphism(rng, amb)
            res = fix_tuple(FixInput((p1, p2), (tuple(b1), tuple(b2))))
            if not res.finitely_generated:
                continue
            for g in res.basis.basis_elements():
                assert apply(p1, g) == g and apply(p2, g) == g

    @pytest.mark.parametrize("ell", [16, 64, 256])
    def test_large_index_family(self, ell):
        # phi = id on F_2, Q = [[ell+2, 1], [-1, 0]], P = I: det(I - Q) = -ell,
        # so Fix is the index-ell subgroup of F_2, of rank ell + 1
        amb = Ambient(2, 2)
        Q = IntMatrix([[ell + 2, 1], [-1, 0]])
        psi = Morphism(amb, FreeMap.identity(2), Q, IntMatrix.identity(2))
        res = fix_single(psi, [(1,), (2,)])
        assert res.finitely_generated and res.diagnostics.ell == ell
        assert res.basis.rank == ell + 1
        # every vertex of the cover carries all 2n labels: index ell in F_2
        graph = res.basis.graph
        assert graph.num_vertices == ell and sum(map(len, graph.edges)) == 4 * ell
        # the cover fix_tuple builds is the graph its own words fold to
        assert stallings(res.basis.graph.basis_words, 2) == res.basis.graph
        for g in res.basis.basis_elements():
            assert apply(psi, g) == g

    def test_refolded_answer_is_the_same_triple(self):
        # folding the answer's own words again gives the graph fix_tuple
        # built as a cover, and the same reduced vectors
        indices = set()
        for inp in _fix_inputs():
            res = fix_tuple(inp)
            if not res.finitely_generated:
                continue
            B = res.basis
            assert B == SubgroupBasis.from_words(inp.ambient, B.free_part, B.abelian_part)
            indices.add(res.diagnostics.ell)
        assert max(indices) >= 4

    def test_kernel_is_common_eigenspace(self):
        psi = worked_morphism()
        res = fix_single(psi, [(2,), (3,)])
        eye = IntMatrix.identity(2)
        assert res.basis.abelian_part == kernel_lattice(eye - psi.Q)


class TestLetterMapBases:
    def test_transport_by_conjugation(self):
        rng = random.Random(32)
        for _ in range(10):
            amb = Ambient(1, 3)
            psi, basis, _ = random_finite_order_morphism(rng, amb)
            for w in basis:
                assert psi.phi.apply(w) == w


class TestPeriodic:
    def test_exponents(self):
        assert periodic_exponent(spiral_morphism()) == 2
        assert periodic_exponent(Morphism.identity(Ambient(2, 2))) == 1
        assert periodic_exponent(worked_morphism()) == 2

    def test_infinite_order_free_map_rejected(self):
        amb = Ambient(1, 2)
        psi = Morphism(
            amb, nielsen(1, 2, 1, 2), IntMatrix([[1]]), IntMatrix.zeros(2, 1)
        )
        with pytest.raises(ValueError):
            periodic_exponent(psi)

    def test_spiral_periodic_not_fg(self):
        res = periodic_subgroup(spiral_morphism())
        assert not res.finitely_generated

    def test_identity_periodic_is_whole_group(self):
        amb = Ambient(1, 2)
        res = periodic_subgroup(Morphism.identity(amb))
        assert res.finitely_generated
        assert member(res.basis, GroupElement(amb, (5,), (1, 2)))

    def test_stretch_matrix_periodic(self):
        amb = Ambient(2, 2)
        Q = IntMatrix([[2, 0], [0, -1]])
        psi = Morphism(amb, FreeMap.identity(2), Q, IntMatrix.zeros(2, 2))
        assert periodic_exponent(psi) == 2
        res = periodic_subgroup(psi)
        assert res.finitely_generated
        want = SubgroupBasis.from_words(
            amb,
            [((0, 0), (1,)), ((0, 0), (2,))],
            Lattice.from_rows([[0, 1]], 2),
        )
        assert subgroup_equal(res.basis, want)

    def test_fix_power_needs_trivial_free_power(self):
        psi = worked_morphism()
        with pytest.raises(ValueError):
            fix_power(psi, 1)
        res = fix_power(psi, 2)
        assert res.finitely_generated
        for g in res.basis.basis_elements():
            assert apply(power(psi, 2), g) == g

    def test_fix_power_rejects_infinite_free_order_at_once(self):
        # phi = K12 K23 K31 with K_ij: z_i -> z_j z_i z_j^-1 has A = I but
        # infinite order; its image lengths grow about 4.2x per power, so a
        # free power to e would not finish
        amb = Ambient(1, 3)
        phi = ia_map()
        assert phi.abelianization_matrix().is_identity()
        psi = Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix.zeros(3, 1))
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            fix_power(psi, 2 * 10**6)
        assert time.perf_counter() - t0 < 1.0

    def test_fix_power_matches_the_free_power(self):
        # fix_power reads psi^e off the block matrix; the composed power
        # gives the same fixed subgroup and diagnostics
        rng = random.Random(41)
        for _ in range(25):
            amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
            psi, _, k = random_finite_order_morphism(rng, amb)
            if rng.random() < 0.5:
                psi = Morphism(amb, psi.phi, psi.Q, random_matrix(rng, amb.n, amb.m, bound=1))
            e = k * rng.randint(1, 3)
            full = [(i,) for i in range(1, amb.n + 1)]
            assert fix_power(psi, e) == fix_single(power(psi, e), full)

    def test_power_budget_at_its_edge(self):
        # the eigenvalues (3 +- sqrt 5)/2 of [[2, 1], [1, 1]] grow by about 1.39
        # bits per power, estimated at 2: e = 7,142 is the last exponent under
        # MAX_POWER_BITS = 14,284
        amb = Ambient(2, 1)
        psi = Morphism(amb, FreeMap.identity(1), IntMatrix([[2, 1], [1, 1]]), IntMatrix.zeros(1, 2))
        assert intlat.power_bits(psi.Q, 7142) == fixpoint.MAX_POWER_BITS
        assert fix_power(psi, 7142).finitely_generated
        with pytest.raises(fixpoint.BudgetExceeded, match="14286 bits"):
            fix_power(psi, 7143)

    def test_power_budget_reads_the_eigenvalues(self):
        # a conjugate of the companion of Phi_3 has order 3 and row sums past
        # 2^10, so e times the row-sum bound passes the budget; chi(Q) is all
        # cyclotomic, so the estimate is 0 and the power is taken
        amb = Ambient(2, 1)
        U = IntMatrix([[1, 1000], [0, 1]])
        Q = matrix_inverse(U) * IntMatrix([[0, 1], [-1, -1]]) * U
        assert max(sum(map(abs, r)) for r in Q.entries).bit_length() * 3000 > fixpoint.MAX_POWER_BITS
        assert intlat.power_bits(Q, 3000) == 0
        psi = Morphism(amb, FreeMap.identity(1), Q, IntMatrix.zeros(1, 2))
        res = fix_power(psi, 3000)
        assert res.basis.abelian_part.rank == 2

    def test_periodic_captures_low_periods(self):
        psi = worked_morphism()
        res = periodic_subgroup(psi)
        assert res.finitely_generated
        for p in range(1, 5):
            fx = brute_fixed([power(psi, p)], Bounds(3, 2))
            for g in fx:
                assert member(res.basis, g)


class TestClosure:
    def test_worked_fixed_subgroup_is_autofixed(self):
        psi = worked_morphism()
        inp = FixInput((psi,), (((2,), (3,)),))
        res = autofixed_closure(WORKED_BASIS, inp)
        assert res.finitely_generated
        assert subgroup_equal(res.basis, WORKED_BASIS)
        assert is_autofixed(WORKED_BASIS, inp)

    def test_identity_closure_is_whole_group(self):
        amb = Ambient(2, 2)
        ident = Morphism.identity(amb)
        inp = FixInput((ident,), (((1,), (2,)),))
        H = SubgroupBasis.from_words(amb, [], Lattice.from_rows([[0, 2]], 2))
        assert not is_autofixed(H, inp)
        G = SubgroupBasis.from_words(
            amb, [((0, 0), (1,)), ((0, 0), (2,))], Lattice.from_rows([[1, 0], [0, 1]], 2)
        )
        assert is_autofixed(G, inp)

    def test_rejects_non_stabilizing_generator(self):
        psi = worked_morphism()
        H = SubgroupBasis.from_words(psi.ambient, [((0, 0), (1,))], Lattice.from_rows([], 2))
        with pytest.raises(ValueError):
            autofixed_closure(H, FixInput((psi,), (((2,), (3,)),)))

    def test_ambient_mismatch(self):
        amb = Ambient(1, 2)
        H = SubgroupBasis.from_words(amb, [((0,), (1,))], Lattice.from_rows([], 1))
        psi = worked_morphism()
        with pytest.raises(ValueError):
            autofixed_closure(H, FixInput((psi,), (((2,), (3,)),)))


def ell_family(ell):
    """phi = id, Q = [[ell+2, 1], [-1, 0]], P = I on Z^2 x F_2: Fix has
    coset index ell, and its graph ell vertices."""
    amb = Ambient(2, 2)
    return Morphism(amb, FreeMap.identity(2), IntMatrix([[ell + 2, 1], [-1, 0]]), IntMatrix.identity(2))


def _closure_outcome(closure, H, inp):
    try:
        return "closure", closure(H, inp).basis
    except CertificateError:
        return "must contain", None
    except ValueError:
        return "does not fix", None


class TestClosureOnTheGraph:
    def test_same_outcome_as_the_word_reference(self):
        # H is the answer, a subgroup of it, the answer with a vector or row
        # moved by a unit vector, or the full answer against a fixed basis
        # with one word dropped (fixed, but off the fixed-basis graph)
        rng = random.Random(19)
        outcomes = Counter()
        for inp, B in _fix_suites():
            if B is None:
                continue
            amb = B.ambient
            gens = B.basis_elements()
            pool = gens + [inv(g) for g in gens]
            sub = [functools.reduce(mul, rng.choices(pool, k=2)) for _ in range(rng.randint(0, 2))] if pool else []
            cases = [(B, inp), (subgroup_basis(sub, amb), inp)]
            if amb.m:
                e = tuple(int(i == rng.randrange(amb.m)) for i in range(amb.m))
                vectors, rows = list(B.vectors), list(B.abelian_part.basis.entries)
                if vectors and rng.random() < 0.5:
                    vectors[0] = tuple(map(operator.add, vectors[0], e))
                else:
                    rows.append(e)
                cases.append((SubgroupBasis(amb, B.graph, vectors, Lattice.from_rows(rows, amb.m)), inp))
            bases = inp.fixed_free_bases
            if len(inp.morphisms) == 1 and bases[0] and not inp.morphisms[0].phi.is_identity():
                cases.append((B, FixInput(inp.morphisms, (bases[0][1:],))))
            for H, stab in cases:
                got = _closure_outcome(autofixed_closure, H, stab)
                assert got == _closure_outcome(reference_autofixed_closure, H, stab)
                outcomes[got[0]] += 1
        assert min(outcomes[k] for k in ("closure", "must contain", "does not fix")) >= 50, outcomes

    def test_fixed_subgroup_spells_no_word(self, monkeypatch):
        # H = Fix psi at ell 256 is checked and found in the closure on the
        # graphs: no word is traced, applied or spelled
        psi = ell_family(256)
        inp = FixInput((psi,), (((1,), (2,)),))
        H = fix_tuple(inp).basis
        calls = Counter()
        for cls, name in ((StallingsGraph, "trace"), (FreeMap, "apply")):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, w, real=real, name=name: calls.update([name]) or real(self, w))
        res = autofixed_closure(H, inp)
        assert is_autofixed(H, inp)
        assert calls == Counter()
        for graph in (H.graph, inp.graph, res.basis.graph):
            assert "basis_words" not in graph.__dict__

    def test_cover_steps_call_no_reduce(self, monkeypatch):
        # the cover steps once per edge of its graph, by
        # Lattice.shift; reduce is left for the answer's vectors and
        # coordinates, one call each per basis word
        psi = ell_family(256)
        calls, in_cover = [], []
        real_reduce, real_pullback = Lattice.reduce, freewords.pullback
        monkeypatch.setattr(Lattice, "reduce", lambda self, v: calls.append(bool(in_cover)) or real_reduce(self, v))

        def pullback(*args):
            in_cover.append(True)
            try:
                return real_pullback(*args)
            finally:
                in_cover.pop()

        monkeypatch.setattr(freewords, "pullback", pullback)
        B = fix_single(psi, [(1,), (2,)]).basis
        assert B.graph.num_vertices == 256
        assert not any(calls)
        assert len(calls) < sum(map(len, B.graph.edges))

    def test_cover_steps_each_edge_once(self, monkeypatch):
        # the rose's cover at ell 256 has 1,024 directed edges; pullback
        # records each shift's inverse, so it shifts once per edge pair
        calls = Counter()
        real = Lattice.shift
        monkeypatch.setattr(Lattice, "shift", lambda self, r, a: calls.update([(r, a)]) or real(self, r, a))
        B = fix_single(ell_family(256), [(1,), (2,)]).basis
        assert sum(map(len, B.graph.edges)) == 1024
        assert calls.total() == 512 and max(calls.values()) == 1


def test_fix_reads_diagnostics_on_demand(monkeypatch):
    # five row reductions: im_rho, Qt with its kernel, and the preimage's
    # transform and HNF; im_P and N cost one more each, when first read,
    # and equal their eager references
    psi = ell_family(256)
    reductions = []
    real = intlat._row_echelon
    monkeypatch.setattr(intlat, "_row_echelon", lambda rows, cols: reductions.append(cols) or real(rows, cols))
    res = fix_single(psi, [(1,), (2,)])
    assert res.basis.graph.num_vertices == 256 and len(reductions) == 5
    d = res.diagnostics
    im_P, N = d.im_P, d.N
    assert d.im_P is im_P and d.N is N and len(reductions) == 7
    assert im_P == Lattice.from_rows([psi.P.apply_row(r) for r in d.im_rho.basis.entries], 2)
    assert N == lattice_intersect(d.M, im_P)
    assert d == fix_single(psi, [(1,), (2,)]).diagnostics


def test_fixed_subgroup_needs_no_containment_walk(monkeypatch):
    # a closure equal to H contains H; a smaller one is still walked and
    # refused (test_closure_missing_the_subgroup_is_caught)
    psi = ell_family(64)
    inp = FixInput((psi,), (((1,), (2,)),))
    H = fix_tuple(inp).basis
    monkeypatch.setattr(fixpoint, "subgroup_contains", lambda *args: pytest.fail("containment walked"))
    assert is_autofixed(H, inp)


def test_qt_reduced_once(monkeypatch):
    # M, the abelian kernel and one solve per preimage row all read the one
    # row reduction of Qt = I - Q
    psi = ell_family(256)
    Qt = IntMatrix.identity(2) - psi.Q
    reductions = []
    real = intlat._row_echelon

    def counted(rows, cols):
        reductions.append(tuple([tuple(r[:cols]) for r in rows]) == Qt.entries)
        return real(rows, cols)

    monkeypatch.setattr(intlat, "_row_echelon", counted)
    res = fix_single(psi, [(1,), (2,)])
    assert res.diagnostics.preimage.rank == 2 and res.basis.graph.num_vertices == 256
    assert sum(reductions) == 1


def _corrupt_first_solution(monkeypatch):
    real = fixpoint.left_solver
    calls = []

    def corrupted(M):
        image, kernel, solve = real(M)

        def corrupted_solve(b):
            x = solve(b)
            calls.append(x)
            return x if len(calls) > 1 else tuple(c + 1 for c in x)

        return image, kernel, corrupted_solve

    monkeypatch.setattr(fixpoint, "left_solver", corrupted)


def conjugated_flip():
    """z1 -> z1^-1, z2 fixed, conjugated by z1, so Fix phi = <z1 z2 z1^-1>,
    whose graph has two vertices. With Q = -1 and P = (0, 1) the element
    t^a (z1 z2 z1^-1)^k is fixed when 2a = k: Fix psi is generated by
    t z1 z2^2 z1^-1, read off a three-vertex cover."""
    images = [(-1,), (1, 1, 2, -1, -1)]
    return Morphism(Ambient(1, 2), FreeMap(images, images, 2), IntMatrix([[-1]]), IntMatrix([[0], [1]]))


def _redirect(graph, v, a, w):
    """graph with its edge (v, a) moved to end at w, which has no edge -a."""
    edges = [dict(row) for row in graph.edges]
    del edges[edges[v][a]][-a]
    edges[v][a], edges[w][-a] = w, v
    return StallingsGraph(graph.n, 0, edges.__getitem__)


def _outcome(check, *args):
    try:
        check(*args)
    except CertificateError:
        return "caught"
    return "accepted"


def _fix_inputs():
    """The inputs of the randomized fix suites: the acceptance suite of
    finite-order maps, and random Q, P with one map or two."""
    from test_acceptance import finite_order_suite

    for psi, basis, _ in finite_order_suite():
        yield FixInput((psi,), (tuple(basis),))
    rng = random.Random(43)
    for trial in range(40):
        amb = Ambient(rng.randint(1, 2), rng.randint(1, 3))
        psi, basis, _ = random_finite_order_morphism(rng, amb)
        psi = Morphism(amb, psi.phi, random_matrix(rng, amb.m, amb.m, 3), random_matrix(rng, amb.n, amb.m, 3))
        maps, bases = [psi], [tuple(basis)]
        if trial % 2:
            other, other_basis, _ = random_finite_order_morphism(rng, amb)
            maps.append(other)
            bases.append(tuple(other_basis))
        yield FixInput(tuple(maps), tuple(bases))


def _fix_suites():
    """(input, answer) of the randomized fix suites."""
    for inp in _fix_inputs():
        yield inp, fix_tuple(inp).basis


class TestCertificates:
    def test_graph_certificate_and_reference_accept(self):
        checked = 0
        for inp, B in _fix_suites():
            if B is None:
                continue
            fixpoint._certify(inp, B)
            reference_certify(inp.morphisms, B)
            checked += B.rank > 0
        assert checked >= 80

    def test_both_catch_the_same_corrupted_vectors_and_rows(self):
        # a vector or abelian row moved by a unit vector; the graph is the
        # answer's own, so the two certificates must agree
        rng = random.Random(18)
        outcomes = Counter()
        for inp, B in _fix_suites():
            if B is None or not B.ambient.m:
                continue
            m = B.ambient.m
            e = tuple(int(i == rng.randrange(m)) for i in range(m))
            vectors, rows = list(B.vectors), list(B.abelian_part.basis.entries)
            if vectors and rng.random() < 0.5:
                i = rng.randrange(len(vectors))
                vectors[i] = tuple(map(operator.add, vectors[i], e))
            else:
                rows.append(e)
            bad = SubgroupBasis(B.ambient, B.graph, vectors, Lattice.from_rows(rows, m))
            got = _outcome(fixpoint._certify, inp, bad)
            assert got == _outcome(reference_certify, inp.morphisms, bad)
            outcomes[got] += 1
        assert outcomes["caught"] >= 50 and outcomes["accepted"] >= 5, outcomes

    def test_corrupted_vector_is_caught(self, monkeypatch):
        _corrupt_first_solution(monkeypatch)
        with pytest.raises(CertificateError, match="not fixed"):
            fix_single(worked_morphism(), [(2,), (3,)])

    def test_redirected_edge_is_caught(self, monkeypatch):
        psi = conjugated_flip()
        inp = FixInput((psi,), (((1, 2, -1),),))
        B = fix_tuple(inp).basis
        assert B.graph.basis_words == [(1, 2, 2, -1)] and B.vectors == ((1,),)
        # 0 -z1-> 1 -z2-> 2 -z2-> 1 becomes the loop z1 z2 z2 at 0, whose
        # second z2 has no edge to follow in the fixed-basis graph
        bad = SubgroupBasis(B.ambient, _redirect(B.graph, 2, 2, 0), B.vectors, B.abelian_part)
        assert bad.graph.basis_words == [(1, 2, 2)]
        with pytest.raises(CertificateError, match="does not map"):
            fixpoint._certify(inp, bad)
        with pytest.raises(CertificateError):
            reference_certify(inp.morphisms, bad)
        # inside fix_tuple the moved edge is caught as well
        real = freewords.pullback
        monkeypatch.setattr(freewords, "pullback", lambda *args: _redirect(real(*args), 2, 2, 0))
        with pytest.raises(CertificateError):
            fix_tuple(inp)

    def test_wrong_kernel_row_is_caught(self, monkeypatch):
        # Q = diag(1, -1) fixes (1, 0) only; (0, 1) goes to (0, -1)
        psi = worked_morphism()
        inp = FixInput((psi,), (((2,), (3,)),))
        B = fix_tuple(inp).basis
        wrong = Lattice.from_rows([[0, 1]], 2)
        bad = SubgroupBasis(B.ambient, B.graph, B.vectors, wrong)
        with pytest.raises(CertificateError, match="abelian basis row not fixed"):
            fixpoint._certify(inp, bad)
        with pytest.raises(CertificateError):
            reference_certify(inp.morphisms, bad)
        real = fixpoint.left_solver

        def wrong_kernel(M):
            image, _, solve = real(M)
            return image, wrong, solve

        monkeypatch.setattr(fixpoint, "left_solver", wrong_kernel)
        with pytest.raises(CertificateError, match="abelian basis row not fixed"):
            fix_tuple(inp)

    def test_closure_missing_the_subgroup_is_caught(self, monkeypatch):
        psi = worked_morphism()
        inp = FixInput((psi,), (((2,), (3,)),))
        small = fix_tuple(FixInput((psi,), (((3,),),)))
        monkeypatch.setattr(fixpoint, "fix_tuple", lambda _inp: small)
        with pytest.raises(CertificateError, match="must contain"):
            autofixed_closure(WORKED_BASIS, inp)

    def test_cover_larger_than_the_index_is_caught(self, monkeypatch):
        # an index that undercounts the residues: the cover of the ell-16
        # family has 16 vertices over the one-vertex rose, more than 8 x 1
        monkeypatch.setattr(fixpoint, "lattice_index", lambda sub, sup: 8)
        amb = Ambient(2, 2)
        psi = Morphism(amb, FreeMap.identity(2), IntMatrix([[18, 1], [-1, 0]]), IntMatrix.identity(2))
        with pytest.raises(CertificateError, match="exceeds index 8"):
            fix_single(psi, [(1,), (2,)])

    def test_preimage_index_agrees_with_the_intersection(self):
        # fix_tuple reads N off the preimage of M and decides finite
        # generation by the preimage's index; the route it replaced took
        # N = M meet im_P and compared ranks
        spiral_square = FixInput((power(spiral_morphism(), 2),), (((1,), (2,)),))
        seen = Counter()
        for inp in [*_fix_inputs(), spiral_square]:
            res = fix_tuple(inp)
            d = res.diagnostics
            assert d.N == lattice_intersect(d.M, d.im_P)
            assert (d.ell != math.inf) == (d.N.rank == d.im_P.rank)
            seen["finite index" if d.ell != math.inf else "infinite index"] += 1
            seen["not fg"] += not res.finitely_generated
        assert seen["finite index"] and seen["infinite index"] >= 3 and seen["not fg"], seen

    def test_checked_under_optimization(self):
        # the certificates are explicit checks, so python -O keeps them
        script = (
            "import pytest\n"
            "from test_fixpoint import _corrupt_first_solution, worked_morphism\n"
            "from fatf.fixpoint import CertificateError, fix_single\n"
            "mp = pytest.MonkeyPatch()\n"
            "_corrupt_first_solution(mp)\n"
            "try:\n"
            "    fix_single(worked_morphism(), [(2,), (3,)])\n"
            "except CertificateError:\n"
            "    print('caught')\n"
        )
        here = pathlib.Path(__file__).resolve().parent
        src = pathlib.Path(fixpoint.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "caught"


# sha256 of the ell-256 answer's JSON (sorted keys, no spaces), as fix_tuple
# gave it when it still spelled and applied every answer word
ELL_256_DIGEST = "a3f14bd8e28d9e4c0dc2d1f18f07e7f10ff760b1a9f576c98a8a61869c2a68eb"


class TestAnswerBasis:
    def test_answer_words_are_spelled_only_when_read(self):
        ell = 256
        amb = Ambient(2, 2)
        psi = Morphism(amb, FreeMap.identity(2), IntMatrix([[ell + 2, 1], [-1, 0]]), IntMatrix.identity(2))
        B = fix_single(psi, [(1,), (2,)]).basis
        assert "basis_words" not in B.graph.__dict__
        text = json.dumps(jsonio.subgroup_to_json(B), sort_keys=True, separators=(",", ":"))
        assert "basis_words" in B.graph.__dict__
        assert hashlib.sha256(text.encode()).hexdigest() == ELL_256_DIGEST
        assert [abelianize(u, 2) for _, u in B.free_part] == B.graph.basis_abelianized

    def test_four_constructions_are_one_key(self):
        psi = worked_morphism()
        amb = psi.ambient
        free = [((0, 1), (2, 2)), ((0, 1), (3,)), ((0, 1), (-2, 3, 2))]
        gens = [GroupElement(amb, a, u) for a, u in free] + [GroupElement(amb, (1, 0), ())]
        code, out = cli.run(["fix"], (FIXTURES / "fix.in.json").read_text())
        assert code == cli.EXIT_OK
        built = [
            subgroup_basis(gens[::-1], amb),
            SubgroupBasis.from_words(amb, free, Lattice.from_rows([[1, 0]], 2)),
            fix_tuple(FixInput((psi,), (((2,), (3,)),))).basis,
            jsonio.subgroup_from_json(json.loads(out)["result"]["basis"], amb),
        ]
        for H in built:
            assert H == built[0] and hash(H) == hash(built[0])
        assert len(set(built)) == 1
        assert built[2].graph is not built[3].graph


class TestConjugationInvariance:
    def test_fix_of_inner_contains_centralizer_elements(self):
        amb = Ambient(1, 2)
        c = inner(amb, (1,))
        res = fix_single(c, [(1,)])
        assert res.finitely_generated
        assert member(res.basis, GroupElement(amb, (0,), (1,)))
        assert member(res.basis, GroupElement(amb, (3,), (1, 1)))
        assert not member(res.basis, GroupElement(amb, (0,), (2,)))
