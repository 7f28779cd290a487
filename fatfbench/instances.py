"""Seeded instances whose answers are known by construction.

Finite-order morphisms are conjugates theta^-1 psi0 theta of letter data
psi0 = (signed letter permutation, signed permutation matrix S, P = 0), so
their order is lcm(ord phi0, ord S), their fixed free basis is theta of the
fixed letters and their fixed subgroup is theta(Fix psi0). Everything is
built with ``refalg``; nothing here imports fatf.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from refalg import (
    Mat,
    Ref,
    Vec,
    Word,
    abelian_pair,
    compose,
    elementary,
    format_word,
    identity,
    letter_ref,
    mat_mul,
    nielsen_pair,
    ref_identity,
    signed_perm_inverse,
    signed_perm_matrix,
    signed_perm_order,
    substitute,
    vec_add,
    vec_mat,
    word_inverse,
    word_mul,
)


def vec_json(v: Sequence[int]) -> list[str]:
    return [str(x) for x in v]


def morphism_json(f: Ref) -> dict:
    return {
        "phi": [format_word(w) for w in f.images],
        "phi_inv": [format_word(w) for w in f.inverse_images],
        "Q": [vec_json(r) for r in f.Q],
        "P": [vec_json(r) for r in f.P],
    }


def element_json(t: Vec, w: Word) -> dict:
    return {"t": vec_json(t), "w": format_word(w)}


def shaped_targets(rng: random.Random, cycles: Sequence[int], negative: Sequence[bool]) -> list[int]:
    """Signed permutation with the given cycle lengths; a cycle listed as
    negative has one minus sign, so its sign product is -1."""
    k = sum(cycles)
    points = list(range(1, k + 1))
    rng.shuffle(points)
    targets = [0] * k
    pos = 0
    for length, neg in zip(cycles, negative):
        cyc = points[pos:pos + length]
        pos += length
        flip = rng.randrange(length) if neg else -1
        for idx, i in enumerate(cyc):
            t = cyc[(idx + 1) % length]
            targets[i - 1] = -t if idx == flip else t
    return targets


def conjugator(rng: random.Random, m: int, n: int, steps: int) -> tuple[Ref, Ref]:
    """A random automorphism theta and its inverse, as a product of signed
    permutations, `steps` Nielsen moves, `steps` elementary matrices and an
    abelian shift P with entries in [-1, 1]."""
    tn = shaped_targets(rng, [1] * n, [rng.random() < 0.5 for _ in range(n)])
    tm = shaped_targets(rng, [1] * m, [rng.random() < 0.5 for _ in range(m)])
    fwd = letter_ref(m, tn, signed_perm_matrix(tm))
    back = letter_ref(m, signed_perm_inverse(tn), signed_perm_matrix(signed_perm_inverse(tm)))
    moves: list[tuple[Ref, Ref]] = []
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.sample(range(1, n + 1), 2)
        moves.append(nielsen_pair(m, n, i, j, rng.choice((1, -1))))
    for _ in range(steps if m >= 2 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((1, -1))
        moves.append(abelian_pair(m, n, elementary(m, i, j, c), elementary(m, i, j, -c), zero_p(m, n)))
    P = tuple(tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(n))
    moves.append(abelian_pair(m, n, identity(m), identity(m), P))
    for f, b in moves:
        fwd = compose(fwd, f)
        back = compose(b, back)
    return fwd, back


def zero_p(m: int, n: int) -> Mat:
    return tuple((0,) * m for _ in range(n))


@dataclass(frozen=True)
class FiniteOrder:
    """psi = theta^-1 psi0 theta with psi0 = (letter map tn, matrix of tm, 0)."""

    psi: Ref
    theta: Ref
    theta_inv: Ref
    tn: tuple[int, ...]
    tm: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.lcm(signed_perm_order(self.tn), signed_perm_order(self.tm))

    def fixed_free_basis(self) -> list[Word]:
        return [substitute((i,), self.theta.images) for i, t in enumerate(self.tn, start=1) if t == i]

    def fixed_subgroup(self) -> tuple[list[tuple[Vec, Word]], list[Vec]]:
        """theta(Fix psi0): free part theta(t^0 z_i) for fixed letters, and
        abelian generators theta(t^v) for the cycle vectors v of Fix S."""
        free = [self.theta.act((0,) * self.psi.m, (i,)) for i, t in enumerate(self.tn, start=1) if t == i]
        lattice = [vec_mat(v, self.theta.Q, self.psi.m) for v in cycle_vectors(self.tm)]
        return free, lattice


def cycle_vectors(targets: Sequence[int]) -> list[Vec]:
    """Basis of the fixed lattice of a signed permutation matrix: one vector
    per cycle whose signs multiply to +1."""
    k = len(targets)
    seen: set[int] = set()
    out = []
    for start in range(1, k + 1):
        if start in seen:
            continue
        coeff = [0] * k
        c, i = 1, start
        while i not in seen:
            seen.add(i)
            coeff[i - 1] = c
            t = targets[i - 1]
            c *= 1 if t > 0 else -1
            i = abs(t)
        if c == 1:
            out.append(tuple(coeff))
    return out


def finite_order(
    rng: random.Random,
    m: int,
    n: int,
    n_cycles: Sequence[int],
    n_negative: Sequence[bool],
    m_cycles: Sequence[int],
    m_negative: Sequence[bool],
    steps: int = 2,
) -> FiniteOrder:
    tn = shaped_targets(rng, n_cycles, n_negative)
    tm = shaped_targets(rng, m_cycles, m_negative)
    psi0 = letter_ref(m, tn, signed_perm_matrix(tm))
    theta, theta_inv = conjugator(rng, m, n, steps)
    psi = compose(compose(theta_inv, psi0), theta)
    return FiniteOrder(psi, theta, theta_inv, tuple(tn), tuple(tm))


def index_family_f2(rng: random.Random, ell: int) -> tuple[Ref, Ref, Ref]:
    """phi = id on F_2, Q = U^-1 [[ell+2, 1], [-1, 0]] U, P = U: coset index ell.

    Returns the morphism and the conjugator pair (U with its inverse)."""
    base = Ref(2, 2, ((1,), (2,)), ((1,), (2,)), ((ell + 2, 1), (-1, 0)), identity(2))
    theta, theta_inv = abelian_conjugator(rng, 2, 2)
    return compose(compose(theta_inv, base), theta), theta, theta_inv


def index_family_f3(rng: random.Random, a: int) -> Ref:
    """phi = id on F_3, Q = [[1-a^2, -a], [a, 1]] (I - Q = a B with B
    unimodular), P = [[1,0],[0,1],[c1,c2]]: quotient Z_a x Z_a, index a^2."""
    c = (rng.randint(-2, 2), rng.randint(-2, 2))
    gens = ((1,), (2,), (3,))
    return Ref(2, 3, gens, gens, ((1 - a * a, -a), (a, 1)), ((1, 0), (0, 1), c))


def abelian_conjugator(rng: random.Random, m: int, n: int) -> tuple[Ref, Ref]:
    """(id, U, 0) and its inverse, U a product of elementary matrices."""
    U, U_inv = identity(m), identity(m)
    for _ in range(3):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((1, -1))
        U = mat_mul(U, elementary(m, i, j, c), m)
        U_inv = mat_mul(elementary(m, i, j, -c), U_inv, m)
    return abelian_pair(m, n, U, U_inv, zero_p(m, n))


def other_basis(rng: random.Random, n: int, steps: int) -> list[Word]:
    """Images of z1..zn under `steps` random Nielsen moves: another free basis of F_n."""
    f = ref_identity(0, n)
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.sample(range(1, n + 1), 2)
        f = compose(f, nielsen_pair(0, n, i, j, rng.choice((1, -1)))[0])
    return list(f.images)


def random_hnf(rng: random.Random, m: int, rank: int) -> list[Vec]:
    """A random lattice basis in row Hermite normal form."""
    cols = sorted(rng.sample(range(m), rank))
    rows: list[list[int]] = []
    for c in cols:
        row = [0] * m
        row[c] = rng.randint(1, 4)
        for j in range(c + 1, m):
            row[j] = rng.randint(-3, 3)
        rows.append(row)
    for i, c in enumerate(cols):
        for r in range(i):
            rows[r][c] %= rows[i][c]
    return [tuple(r) for r in rows]


def mix_rows(rng: random.Random, rows: Sequence[Vec], m: int) -> list[Vec]:
    """Generators of the same lattice: unimodular row combinations plus a
    redundant sum row."""
    out = [list(r) for r in rows]
    for _ in range(2 * len(out) if len(out) >= 2 else 0):
        i, j = rng.sample(range(len(out)), 2)
        c = rng.choice((1, -1))
        out[i] = [x + c * y for x, y in zip(out[i], out[j])]
    if out:
        out.append([sum(col) for col in zip(*out)])
    return [tuple(r) for r in out]


def random_product(rng: random.Random, free: Sequence[tuple[Vec, Word]], lattice: Sequence[Vec], m: int, factors: int) -> tuple[Vec, Word]:
    """A product of basis elements and their inverses."""
    t: Vec = (0,) * m
    w: Word = ()
    for _ in range(factors):
        if free:
            a, u = rng.choice(free)
            if rng.random() < 0.5:
                a, u = tuple(-x for x in a), word_inverse(u)
            t, w = vec_add(t, a), word_mul(w, u)
    for v in lattice:
        c = rng.randint(-2, 2)
        t = vec_add(t, tuple(c * x for x in v))
    return t, w
