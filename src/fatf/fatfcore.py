"""Elements and finitely generated subgroups of Z^m x F_n.

Elements carry the normal form t^a w with a in Z^m central and w a reduced
word. Subgroups are stored by a basis: pairs (a_i, u_i) with {u_i} a free
basis of the projection to F_n, plus a canonical lattice for the abelian
part H intersect Z^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import freewords
from .freewords import Word, reduce_word
from .intlat import (
    IntMatrix,
    Lattice,
    is_direct_summand,
    kernel_lattice,
    matrix_inverse,
    solve_left,
)

Vec = tuple[int, ...]


class AmbientMismatch(ValueError):
    """Two objects live in different ambient groups."""


@dataclass(frozen=True)
class Ambient:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("ambient ranks must be nonnegative")


def _check_same(a: Ambient, b: Ambient) -> None:
    if a != b:
        raise AmbientMismatch(f"ambient mismatch: {a} vs {b}")


@dataclass(frozen=True)
class GroupElement:
    ambient: Ambient
    t: Vec
    w: Word

    def __post_init__(self) -> None:
        if len(self.t) != self.ambient.m:
            raise ValueError("abelian part has the wrong length")
        object.__setattr__(self, "t", tuple(int(x) for x in self.t))
        object.__setattr__(self, "w", reduce_word(self.w, self.ambient.n))

    @classmethod
    def identity(cls, ambient: Ambient) -> "GroupElement":
        return cls(ambient, (0,) * ambient.m, ())

    def is_identity(self) -> bool:
        return not self.w and not any(self.t)

    def __repr__(self) -> str:
        return f"GroupElement(t={self.t}, w={freewords.format_word(self.w)!r})"


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    _check_same(g.ambient, h.ambient)
    t = tuple(x + y for x, y in zip(g.t, h.t))
    return GroupElement(g.ambient, t, freewords.multiply(g.w, h.w))


def inv(g: GroupElement) -> GroupElement:
    return GroupElement(g.ambient, tuple(-x for x in g.t), freewords.invert(g.w))


def project(g: GroupElement) -> Word:
    return g.w


def element_power(g: GroupElement, k: int) -> GroupElement:
    out = GroupElement.identity(g.ambient)
    base = g if k >= 0 else inv(g)
    for _ in range(abs(k)):
        out = mul(out, base)
    return out


class SubgroupBasis:
    """Canonical basis of a finitely generated subgroup of Z^m x F_n."""

    def __init__(
        self,
        ambient: Ambient,
        free_part: Sequence[tuple[Sequence[int], Word]],
        abelian_part: Lattice,
    ):
        if abelian_part.ambient != ambient.m:
            raise ValueError("abelian lattice lives in the wrong ambient")
        pairs = []
        for a, u in free_part:
            u = reduce_word(u, ambient.n)
            if not u:
                raise ValueError("identity word in the free part of a basis")
            if len(a) != ambient.m:
                raise ValueError("vector length disagrees with the ambient")
            # canonical: a_i is only defined modulo the abelian part
            pairs.append((abelian_part.reduce(a)[1], u))
        self.ambient = ambient
        self.free_part: tuple[tuple[Vec, Word], ...] = tuple(pairs)
        self.abelian_part = abelian_part
        self.graph = freewords.stallings([u for _, u in pairs], ambient.n)
        r = len(pairs)
        if self.graph.rank != r:
            raise ValueError("free part words are not a free basis")
        # words rewrite over the graph's own spanning-tree basis; the change
        # of basis to the stored {u_i} abelianizes to a unimodular matrix
        rows = []
        for _, u in pairs:
            expr = self.graph.trace(u)
            assert expr is not None
            rows.append(freewords.abelianize(expr, r))
        if r:
            T = IntMatrix(rows, cols=r)
            self._graph_to_stored = matrix_inverse(T)
        else:
            self._graph_to_stored = IntMatrix.identity(0)
        self._vector_rows = [a for a, _ in pairs]

    @property
    def rank(self) -> int:
        return len(self.free_part)

    def projection_word_vector(self, w: Word) -> Optional[Vec]:
        """Vector v with t^v w in the subgroup, unique mod the abelian part.

        None when w is outside the projection subgroup.
        """
        expr = self.graph.trace(reduce_word(w, self.ambient.n))
        if expr is None:
            return None
        exp_graph = freewords.abelianize(expr, self.rank)
        exp_stored = self._graph_to_stored.apply_row(exp_graph)
        v = [0] * self.ambient.m
        for c, a in zip(exp_stored, self._vector_rows):
            if c:
                for i in range(self.ambient.m):
                    v[i] += c * a[i]
        return tuple(v)

    def basis_elements(self) -> list[GroupElement]:
        out = [GroupElement(self.ambient, a, u) for a, u in self.free_part]
        for b in self.abelian_part.basis.entries:
            out.append(GroupElement(self.ambient, b, ()))
        return out

    def __repr__(self) -> str:
        return (
            f"SubgroupBasis(m={self.ambient.m}, n={self.ambient.n}, "
            f"rank={self.rank}, abelian_rank={self.abelian_part.rank})"
        )


def trivial_subgroup(ambient: Ambient) -> SubgroupBasis:
    return SubgroupBasis(ambient, [], Lattice.zero(ambient.m))


def full_group(ambient: Ambient) -> SubgroupBasis:
    free = [((0,) * ambient.m, (i,)) for i in range(1, ambient.n + 1)]
    return SubgroupBasis(ambient, free, Lattice.full(ambient.m))


def member(H: SubgroupBasis, g: GroupElement) -> bool:
    _check_same(H.ambient, g.ambient)
    if not g.w:
        return H.abelian_part.contains(g.t)
    v = H.projection_word_vector(g.w)
    if v is None:
        return False
    return H.abelian_part.contains(tuple(x - y for x, y in zip(g.t, v)))


def subgroup_basis(gens: Sequence[GroupElement], ambient: Ambient) -> SubgroupBasis:
    """Basis of the subgroup generated by gens.

    The free basis {u_i} comes from the Stallings graph of the projected
    generators. Writing generator j over that basis with net exponent row
    E_j and abelian part c_j, the abelian lattice is (ker E)C plus the pure
    abelian generators, and a_i = yC for any integer solution of yE = e_i.
    """
    for g in gens:
        _check_same(g.ambient, ambient)
    mixed = [g for g in gens if g.w]
    pure = [g.t for g in gens if not g.w]
    graph = freewords.stallings([g.w for g in mixed], ambient.n)
    basis_words = graph.basis_words
    r = graph.rank
    p = len(mixed)
    E_rows = []
    C_rows = []
    for g in mixed:
        expr = graph.trace(g.w)
        assert expr is not None, "generator must lie in the subgroup it generates"
        E_rows.append(list(freewords.abelianize(expr, r)))
        C_rows.append(list(g.t))
    E = IntMatrix(E_rows, cols=r)
    C = IntMatrix(C_rows, cols=ambient.m)
    lattice_rows = [C.apply_row(k) for k in kernel_lattice(E).basis.entries]
    lattice_rows.extend(pure)
    L = Lattice.from_rows(lattice_rows, ambient.m)
    free_part = []
    for i, u in enumerate(basis_words):
        e_i = tuple(1 if j == i else 0 for j in range(r))
        y = solve_left(E, e_i)
        # the net-exponent rows generate Z^r because the projections
        # generate a free group of rank r, so this always solves
        assert y is not None
        free_part.append((C.apply_row(y), u))
    return SubgroupBasis(ambient, free_part, L)


def subgroup_equal(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    _check_same(H.ambient, K.ambient)
    return all(member(K, g) for g in H.basis_elements()) and all(
        member(H, g) for g in K.basis_elements()
    )


def abelian_summand_test(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    """Whether the abelian part of H is a direct summand of that of K."""
    _check_same(H.ambient, K.ambient)
    return is_direct_summand(H.abelian_part, K.abelian_part)
