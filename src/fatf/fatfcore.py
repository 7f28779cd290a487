"""Elements and finitely generated subgroups of Z^m x F_n.

Elements carry the normal form t^a w with a in Z^m central and w a reduced
word. Subgroups are stored by a basis: pairs (a_i, u_i) with {u_i} a free
basis of the projection to F_n, plus a canonical lattice for the abelian
part H intersect Z^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Iterator, Optional, Sequence

from . import freewords
from .freewords import Word, reduce_word
from .intlat import IntMatrix, Lattice, Vec, _as_vec, _row_times


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
        object.__setattr__(self, "t", _as_vec(self.t))
        object.__setattr__(self, "w", reduce_word(self.w, self.ambient.n))

    @classmethod
    def _trusted(cls, ambient: Ambient, t: Vec, w: Word) -> "GroupElement":
        """t^a w for t a tuple of m ints and w a reduced word over n letters,
        as internal builders make them; nothing is re-checked."""
        g = object.__new__(cls)
        g.__dict__.update(ambient=ambient, t=t, w=w)
        return g

    def __repr__(self) -> str:
        return f"GroupElement(t={self.t}, w={freewords.format_word(self.w)!r})"


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    _check_same(g.ambient, h.ambient)
    t = tuple(x + y for x, y in zip(g.t, h.t))
    return GroupElement._trusted(g.ambient, t, freewords.multiply(g.w, h.w))


def inv(g: GroupElement) -> GroupElement:
    return GroupElement._trusted(g.ambient, tuple(-x for x in g.t), freewords.invert(g.w))


def project(g: GroupElement) -> Word:
    return g.w


@dataclass(frozen=True)
class SubgroupBasis:
    """Canonical basis of a finitely generated subgroup of Z^m x F_n.

    The subgroup is the triple (graph, vectors, abelian lattice): the free
    part pairs each basis word u_i of the Stallings graph of the projection
    with the vector a_i, reduced modulo the HNF abelian part, for which
    t^a_i u_i lies in the subgroup. Equal subgroups give equal triples, so
    the generated `==` and hash are the subgroup's. The words are spelled
    only when `free_part` or `basis_elements` asks for them.
    """

    ambient: Ambient
    graph: freewords.StallingsGraph
    vectors: tuple[Vec, ...]
    abelian_part: Lattice

    def __post_init__(self) -> None:
        if self.abelian_part.ambient != self.ambient.m:
            raise ValueError("abelian lattice lives in the wrong ambient")
        if self.graph.n != self.ambient.n:
            raise ValueError("graph lives in the wrong ambient")
        if len(self.vectors) != self.graph.rank:
            raise ValueError("need one vector per basis word of the graph")
        # canonical: a_i is only defined modulo the abelian part
        object.__setattr__(self, "vectors", tuple([self.abelian_part.reduce(a)[1] for a in self.vectors]))

    @classmethod
    def from_words(
        cls,
        ambient: Ambient,
        free_part: Sequence[tuple[Sequence[int], Word]],
        abelian_part: Lattice,
    ) -> "SubgroupBasis":
        """Subgroup with basis t^a_i u_i plus the abelian part, for words u_i
        that form a free basis of the projection."""
        gens = [GroupElement(ambient, a, u) for a, u in free_part]
        if not all(g.w for g in gens):
            raise ValueError("identity word in the free part of a basis")
        gens += [GroupElement(ambient, b, ()) for b in abelian_part.basis.entries]
        H = subgroup_basis(gens, ambient)
        if H.rank != len(free_part):
            raise ValueError("free part words are not a free basis")
        return H

    @property
    def free_part(self) -> tuple[tuple[Vec, Word], ...]:
        """The pairs (a_i, u_i), spelling each basis word u_i of the graph."""
        return tuple(zip(self.vectors, self.graph.basis_words))

    @property
    def rank(self) -> int:
        return self.graph.rank

    def projection_word_vector(self, w: Word) -> Optional[Vec]:
        """Vector v with t^v w in the subgroup, unique mod the abelian part,
        for a reduced word w.

        None when w is outside the projection subgroup.
        """
        expr = self.graph.trace(w)
        if expr is None:
            return None
        return _row_times(freewords.abelianize(expr, self.rank), self.vectors, self.ambient.m)

    def basis_elements(self) -> list[GroupElement]:
        out = [GroupElement._trusted(self.ambient, a, u) for a, u in self.free_part]
        for b in self.abelian_part.basis.entries:
            out.append(GroupElement._trusted(self.ambient, b, ()))
        return out

    def __repr__(self) -> str:
        return (
            f"SubgroupBasis(m={self.ambient.m}, n={self.ambient.n}, "
            f"rank={self.rank}, abelian_rank={self.abelian_part.rank})"
        )


def members(H: SubgroupBasis, runs: Iterable[tuple[Word, Sequence[Vec]]]) -> Iterator[bool]:
    """Whether each t^a w lies in H, for the runs (w, vectors) in order and
    each run's vectors a in order.

    A run traces its word w once, to the v with t^v w in H. t^a w lies in H
    exactly when a and v have equal `Lattice.reduce` residues, so v is
    reduced once per run whose word traces, and each distinct a once per
    call. The runs carry no ambient: `member` checks it."""
    reduce = H.abelian_part.reduce
    residues: dict[Vec, Vec] = {}
    for w, vecs in runs:
        v = H.projection_word_vector(w)
        if v is None:
            yield from [False] * len(vecs)
            continue
        r = reduce(v)[1]
        for a in vecs:
            if a not in residues:
                residues[a] = reduce(a)[1]
            yield residues[a] == r


def member(H: SubgroupBasis, g: GroupElement) -> bool:
    _check_same(H.ambient, g.ambient)
    return next(members(H, [(g.w, (g.t,))]))


def subgroup_contains(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    """Whether K is a subgroup of H, on the graphs with no word spelled.

    K's graph must map into H's (Kapovich-Myasnikov 2002), carrying each
    basis word u of K onto a closed walk in H's graph; t^a u lies in H
    exactly when a minus the sum of H's vectors along that walk (+-a_i at
    each crossing of basis edge i) lies in H's abelian part, as K's abelian
    rows must. signed[i] is that term, for i < 0 counted from the end.
    """
    _check_same(H.ambient, K.ambient)
    image = K.graph.maps_into(H.graph)
    if image is None:
        return False
    signed = [(0,) * H.ambient.m, *H.vectors, *[tuple(-x for x in a) for a in reversed(H.vectors)]]
    crossings = H.graph.crossings
    sums = K.graph.basis_sums(lambda v, a: signed[crossings[image[v]].get(a, 0)], H.ambient.m)
    L = H.abelian_part
    return all(map(L.contains, K.abelian_part.basis.entries)) and all(
        L.contains(tuple(map(sub, a, s))) for a, s in zip(K.vectors, sums)
    )


def subgroup_basis(gens: Sequence[GroupElement], ambient: Ambient) -> SubgroupBasis:
    """Basis of the subgroup generated by gens.

    The free basis {u_i} comes from the Stallings graph of the projected
    generators. Generator j gives the row (E_j | c_j): its net exponents over
    that basis, then its abelian part. The E_j generate Z^r because the
    projections generate a free group of rank r, so the HNF of these rows is
    [[I, A], [0, L]]: L is the abelian lattice, and row i of A is the vector
    of u_i, already reduced modulo L.
    """
    for g in gens:
        _check_same(g.ambient, ambient)
    graph = freewords.stallings([g.w for g in gens], ambient.n)
    r = graph.rank
    # every generator lies in the graph it spans, so each trace succeeds
    rows = [freewords.abelianize(graph.trace(g.w), r) + g.t for g in gens]
    H = Lattice.from_rows(rows, r + ambient.m).basis.entries
    L = Lattice(IntMatrix._trusted(tuple([h[r:] for h in H[r:]]), ambient.m))
    return SubgroupBasis(ambient, graph, [h[r:] for h in H[:r]], L)


def subgroup_equal(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    _check_same(H.ambient, K.ambient)
    return H == K
