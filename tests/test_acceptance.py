"""Acceptance suite: ten criteria, one pass/fail line each.

Every check is exact integer arithmetic; property suites report zero
violations over their full sample counts.
"""

import math
import random
from functools import lru_cache

from conftest import (
    random_element,
    random_finite_order_matrix,
    random_finite_order_morphism,
    random_free_aut,
    random_matrix,
    random_word,
)
from fatf import (
    Ambient,
    FreeMap,
    IntMatrix,
    Lattice,
    Morphism,
    SubgroupBasis,
    fix_single,
    member,
    subgroup_equal,
)
from fatf.bounds import automorphism_order_bound, constants, periodic_exponent_bound
from fatf.fixpoint import FixInput, autofixed_closure, is_autofixed, periodic_subgroup
from fatf.freewords import abelianize, invert, multiply, pullback, schreier_basis, stallings
from fatf.intlat import (
    hnf,
    kernel_lattice,
    lattice_index,
    matrix_order,
    unity_exponent,
)
from fatf.morphisms import apply, compose, order, power, power_vector_matrix
from fatf.oracle import Bounds, brute_fixed


def worked_morphism():
    amb = Ambient(2, 3)
    phi = FreeMap([(-1,), (2,), (3,)], [(-1,), (2,), (3,)], 3)
    return Morphism(
        amb, phi, IntMatrix([[1, 0], [0, -1]]), IntMatrix([[1, 0], [0, 1], [0, 2]])
    )


def spiral_morphism():
    amb = Ambient(1, 2)
    phi = FreeMap([(-1,), (-2,)], [(-1,), (-2,)], 2)
    return Morphism(amb, phi, IntMatrix([[-1]]), IntMatrix([[1], [0]]))


WORKED_FIX = SubgroupBasis.from_words(
    Ambient(2, 3),
    [((0, 1), (2, 2)), ((0, 1), (3,)), ((0, 1), (-2, 3, 2))],
    Lattice.from_rows([[1, 0]], 2),
)


@lru_cache(maxsize=1)
def finite_order_suite():
    rng = random.Random(2024)
    suite = []
    while len(suite) < 200:
        amb = Ambient(rng.randint(0, 4), rng.randint(1, 4))
        suite.append(random_finite_order_morphism(rng, amb))
    return suite


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_worked_fixed_subgroup_end_to_end():
    res = fix_single(worked_morphism(), [(2,), (3,)])
    d = res.diagnostics
    ok = (
        res.finitely_generated
        and d.im_P == Lattice.from_rows([[0, 1]], 2)
        and d.M == Lattice.from_rows([[0, 2]], 2)
        and d.N == Lattice.from_rows([[0, 2]], 2)
        and d.preimage == Lattice.from_rows([[0, 2, 0], [0, 0, 1]], 3)
        and subgroup_equal(res.basis, WORKED_FIX)
    )
    report(1, ok, "fixed subgroup, diagnostics and basis all exact")


def test_criterion_02_worked_morphism_order():
    psi = worked_morphism()
    ok = order(psi) == 2 and compose(psi, psi) == Morphism.identity(psi.ambient)
    report(2, ok, "order 2 and involution confirmed exactly")


def test_criterion_03_spiral_morphism_pair():
    psi = spiral_morphism()
    r1 = fix_single(psi, [])
    sq = power(psi, 2)
    r2 = fix_single(sq, [(1,), (2,)])
    per = periodic_subgroup(psi)
    ok = (
        r1.finitely_generated
        and r1.basis.rank == 0
        and r1.basis.abelian_part.rank == 0
        and sq.P.entries == ((-2,), (0,))
        and not r2.finitely_generated
        and not per.finitely_generated
    )
    report(3, ok, "trivial fix, P_2=(-2,0)^T, square and periodic part not f.g.")


def test_criterion_04_finite_order_instance_suite():
    violations = 0
    for psi, basis, expected_order in finite_order_suite():
        m, n = psi.ambient.m, psi.ambient.n
        k = order(psi)
        if k != expected_order or k > automorphism_order_bound(m, n):
            violations += 1
            continue
        res = fix_single(psi, basis)
        if not res.finitely_generated:
            violations += 1
            continue
        rank = res.basis.rank + res.basis.abelian_part.rank
        reduced = max(rank - 1, 0)
        ell = res.diagnostics.ell
        bound = ell * (n - 1) + m if ell != math.inf else m
        if reduced > bound:
            violations += 1
    report(4, violations == 0, f"200 finite-order morphisms, {violations} violations")


def test_criterion_05_finite_order_matrix_suite():
    rng = random.Random(55)
    violations = 0
    for _ in range(200):
        m = rng.randint(1, 4)
        Q = random_finite_order_matrix(rng, m)
        k = matrix_order(Q)
        eye = IntMatrix.identity(m)
        S = IntMatrix.zeros(m, m)
        for i in range(k):
            S = S + Q ** i
        im = hnf(Q - eye)
        ker = kernel_lattice(S)
        if not all(ker.contains(r) for r in im.basis.entries):
            violations += 1
            continue
        if lattice_index(im, ker) == math.inf:
            violations += 1
            continue
        u = unity_exponent(Q)
        if periodic_exponent_bound(m) % u != 0:
            violations += 1
            continue
        fix_u = kernel_lattice(Q ** u - eye)
        for p in range(1, 51):
            fix_p = kernel_lattice(Q ** p - eye)
            if not all(fix_u.contains(r) for r in fix_p.basis.entries):
                violations += 1
                break
    report(5, violations == 0, f"200 finite-order matrices, {violations} violations")


def test_criterion_06_composition_and_power_algebra():
    rng = random.Random(66)
    violations = 0
    for _ in range(500):
        amb = Ambient(rng.randint(0, 3), rng.randint(1, 3))
        a = Morphism(
            amb,
            random_free_aut(rng, amb.n, steps=1),
            random_matrix(rng, amb.m, amb.m),
            random_matrix(rng, amb.n, amb.m),
        )
        b = Morphism(
            amb,
            random_free_aut(rng, amb.n, steps=1),
            random_matrix(rng, amb.m, amb.m),
            random_matrix(rng, amb.n, amb.m),
        )
        g = random_element(rng, amb)
        if apply(compose(a, b), g) != apply(b, apply(a, g)):
            violations += 1
            continue
        k = rng.randint(0, 8)
        if power(a, k).P != power_vector_matrix(a, k):
            violations += 1
            continue
        C, lam = rng.randint(1, 4), rng.randint(1, 4)
        A = a.phi.abelianization_matrix()
        AC, QC, PC = A ** C, a.Q ** C, power_vector_matrix(a, C)
        total = IntMatrix.zeros(amb.n, amb.m)
        for j in range(lam):
            total = total + (AC ** j) * PC * (QC ** (lam - 1 - j))
        if power_vector_matrix(a, lam * C) != total:
            violations += 1
    report(6, violations == 0, f"500 random pairs, {violations} violations")


def test_criterion_07_oracle_containment():
    named = [
        (worked_morphism(), [(2,), (3,)]),
        (spiral_morphism(), []),
    ]
    violations = 0
    for psi, basis in named:
        res = fix_single(psi, basis)
        for g in brute_fixed([psi], Bounds(5, 2)):
            if not member(res.basis, g):
                violations += 1
    for psi, basis, _ in finite_order_suite():
        res = fix_single(psi, basis)
        for g in brute_fixed([psi], Bounds(5, 2)):
            if not member(res.basis, g):
                violations += 1
    # tuple law: fixed set of a pair is the intersection of the two sets
    rng = random.Random(77)
    for _ in range(10):
        amb = Ambient(rng.randint(0, 2), rng.randint(1, 2))
        p1, _, _ = random_finite_order_morphism(rng, amb)
        p2, _, _ = random_finite_order_morphism(rng, amb)
        bounds = Bounds(4, 2)
        both = set(brute_fixed([p1, p2], bounds))
        inter = set(brute_fixed([p1], bounds)) & set(brute_fixed([p2], bounds))
        if both != inter:
            violations += 1
    report(7, violations == 0, f"202 morphisms plus 10 tuples, {violations} violations")


def test_criterion_08_closure_pipeline():
    psi = worked_morphism()
    inp = FixInput((psi,), (((2,), (3,)),))
    res = autofixed_closure(WORKED_FIX, inp)
    first = (
        res.finitely_generated
        and subgroup_equal(res.basis, WORKED_FIX)
        and is_autofixed(WORKED_FIX, inp)
    )
    amb = Ambient(2, 2)
    ident = Morphism.identity(amb)
    H = SubgroupBasis.from_words(amb, [], Lattice.from_rows([[0, 2]], 2))
    second = not is_autofixed(H, FixInput((ident,), (((1,), (2,)),)))
    report(8, first and second, "closure returns the subgroup; proper subgroup rejected")


def test_criterion_09_constants():
    r12 = constants(1, 2)
    r22 = constants(2, 2)
    ok = (
        r12.C == 2
        and r12.L3 == 2
        and r12.free_per == 720
        and r12.C3 == 720
        and r22.L1 == 36
    )
    report(9, ok, "constants at (1,2) and (2,2) exact")


def test_criterion_10_free_machinery_suite():
    rng = random.Random(101)
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 3)
        gens = [random_word(rng, n, 4) for _ in range(rng.randint(1, 3))]
        graph = stallings(gens, n)
        basis = graph.basis_words
        if graph.rank > 3:
            continue
        pool = {()}
        for _ in range(4):
            pool |= {
                multiply(w, s if pos else invert(s))
                for w in pool
                for s in basis
                for pos in (True, False)
            }
        for w in pool:
            if graph.trace(w) is None:
                violations += 1
                break
        for _ in range(5):
            w = random_word(rng, n, 8)
            expr = graph.trace(w)
            if expr is None:
                if w in pool:
                    violations += 1
                    break
            else:
                check = ()
                for idx in expr:
                    u = basis[abs(idx) - 1]
                    check = multiply(check, u if idx > 0 else invert(u))
                if check != w:
                    violations += 1
                    break
    # pullback soundness
    for _ in range(30):
        g1 = stallings([random_word(rng, 2, 4) for _ in range(2)], 2)
        g2 = stallings([random_word(rng, 2, 4) for _ in range(2)], 2)
        pb = pullback(g1, lambda v, a: g2.edges[v].get(a), 0)
        for _ in range(8):
            w = random_word(rng, 2, 8)
            both = g1.trace(w) is not None and g2.trace(w) is not None
            if (pb.trace(w) is not None) != both:
                violations += 1
    # Schreier rank formula on constructed finite-index subgroups
    for mod, r in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        ambient = [(i,) for i in range(1, r + 1)]
        key = lambda w, mod=mod: abelianize(w, r)[0] % mod
        basis = schreier_basis(ambient, key, mod)
        if len(basis) != mod * (r - 1) + 1:
            violations += 1
    report(10, violations == 0, f"membership, pullback and rank formula, {violations} violations")
