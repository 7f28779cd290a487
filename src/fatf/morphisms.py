"""Endomorphisms of Z^m x F_n of the form t^a u -> t^(aQ + u_ab P) (u phi).

Q may be any integer m x m matrix; the map is an automorphism only when
det Q = +-1, which `invert` checks, and otherwise an endomorphism.
Maps are applied on the right conceptually: compose(f, g) acts as f then g.
Free-group inverses are never computed from scratch; constructors that know
the inverse carry it along and composition tracks it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import freewords
from .fatfcore import Ambient, GroupElement, _check_same
from .freewords import Word, reduce_word
from .intlat import IntMatrix, cyclotomic_split, matrix_inverse, matrix_order, power_by_squaring


# Most letters free-map substitutions spell before they are reduced, each
# count exact before a letter is spelled (`_letters`): the check of claimed
# inverse images in `FreeMap`, all the products of one `FreeMap.power`
# ladder, and `fixpoint`'s fixed-word checks, over all the maps they check. At
# about 13M letters/s (Python 3.11.7, shared 2-core x86_64) the cap costs
# 0.3 s. `order` on the conjugate of the cycle of F_100 by
# random_free_aut(Random(1), 100, steps=300) of tests/conftest.py (60,543
# letters) answered after 7.6 s, its inverse check spelling 8.2M letters and
# its ladder 69M; it now exits 2 in 0.06 s. With steps=200 the check spells
# 0.18M letters, the ladder 1.6M, and `order` answers in 1.3 s.
MAX_SPELLED_LETTERS = 4_000_000


def _letters(images: Sequence[Word], words: Iterable[Word]) -> int:
    """The letters substituting images for the letters of words spells
    before reducing: the sum of |images[i]| over the letters +-i of words."""
    lens = [0, *map(len, images)]
    lens += reversed(lens[1:])  # lens[-i] = lens[i]
    return sum(map(lens.__getitem__, itertools.chain.from_iterable(words)))


class FreeMap:
    """Endomorphism of F_n given by generator images."""

    __slots__ = ("n", "images", "inverse_images", "_order", "_spell")

    def __init__(
        self,
        images: Sequence[Word],
        inverse_images: Optional[Sequence[Word]] = None,
        n: Optional[int] = None,
    ):
        """Letters are checked, images first, before the counts and the
        check that the inverse images undo the map."""
        if n is None:
            n = len(images)
        images = tuple(reduce_word(w, n) for w in images)
        if inverse_images is not None:
            inverse_images = tuple(reduce_word(w, n) for w in inverse_images)
        if len(images) != n:
            raise ValueError("need one image per generator")
        if inverse_images is not None and len(inverse_images) != n:
            raise ValueError("need one inverse image per generator")
        self._set(n, images, inverse_images)
        if inverse_images is not None:
            # back undoing the map on every generator makes back onto, hence
            # an automorphism (F_n is Hopfian) whose inverse is the map
            if _letters(inverse_images, images) > MAX_SPELLED_LETTERS:
                raise ValueError(f"checking the inverse images would spell more than {MAX_SPELLED_LETTERS} letters")
            back = self.invert()
            if any(back.apply(w) != (i,) for i, w in enumerate(images, start=1)):
                raise ValueError("claimed inverse does not undo the map")

    def _set(self, n: int, images: tuple[Word, ...], inverse_images: Optional[tuple[Word, ...]]) -> None:
        """Fill the slots from images that are reduced words over n letters,
        re-checking nothing. spell[a] is the image of letter a, for a in
        +-1..+-n and no other key."""
        self.n, self.images, self.inverse_images, self._order = n, images, inverse_images, None
        self._spell = {i: w for i, w in enumerate(images, start=1)}
        self._spell.update({-i: freewords.invert(w) for i, w in enumerate(images, start=1)})

    @classmethod
    def identity(cls, n: int) -> "FreeMap":
        gens = [(i,) for i in range(1, n + 1)]
        return cls(gens, gens, n)

    def apply(self, w: Word) -> Word:
        """phi(w), reduced; LetterError for a letter outside +-1..+-n, but only the
        constructors check types, so a float or bool equal to a letter passes."""
        spell = self._spell
        try:
            return reduce_word([b for a in w for b in spell[a]])
        except KeyError:
            freewords.check_letters(w, self.n)
            raise

    def compose(self, other: "FreeMap") -> "FreeMap":
        """self followed by other."""
        if self.n != other.n:
            raise ValueError("composing maps of different ranks")
        images = tuple(other.apply(w) for w in self.images)
        inverse = None
        if self.inverse_images is not None and other.inverse_images is not None:
            back = self.invert()
            inverse = tuple(back.apply(w) for w in other.inverse_images)
        out = FreeMap.__new__(FreeMap)
        out._set(self.n, images, inverse)
        return out

    def invert(self) -> "FreeMap":
        if self.inverse_images is None:
            raise ValueError("no inverse images available")
        out = FreeMap.__new__(FreeMap)
        out._set(self.n, self.inverse_images, self.images)
        return out

    def is_identity(self) -> bool:
        return all(w == (i,) for i, w in enumerate(self.images, start=1))

    def abelianization_matrix(self) -> IntMatrix:
        return IntMatrix._trusted(
            tuple([freewords.abelianize(w, self.n) for w in self.images]), self.n
        )

    def power(self, k: int) -> "FreeMap":
        """self^k along `power_by_squaring`; ValueError, before the product
        that would pass it, once the ladder's products would spell more than
        MAX_SPELLED_LETTERS letters in all, inverse images included."""
        if k < 0:
            return self.invert().power(-k)
        if not k:
            return FreeMap.identity(self.n)
        left = MAX_SPELLED_LETTERS

        def compose(f: FreeMap, g: FreeMap) -> FreeMap:
            nonlocal left
            left -= _letters(g.images, f.images)
            if f.inverse_images is not None and g.inverse_images is not None:
                left -= _letters(f.inverse_images, g.inverse_images)
            if left < 0:
                raise ValueError(f"the power would spell more than {MAX_SPELLED_LETTERS} letters")
            return f.compose(g)

        return power_by_squaring(self, k, compose)

    def order(self):
        """Exact order in Aut(F_n), or math.inf.

        The torsion of Aut(F_n) embeds in GL_n(Z) (the kernel of the
        abelianization map is torsion-free), so the order equals the order
        of the abelianization matrix whenever that power is the identity.
        The map is immutable, so the order is computed once and kept; the
        ladder to phi^s carries no inverse images, so `compose` skips them,
        and `power` refuses it past MAX_SPELLED_LETTERS with ValueError.
        """
        if self._order is None:
            s = matrix_order(self.abelianization_matrix())
            ladder = FreeMap(self.images, None, self.n)
            self._order = s if s == math.inf or ladder.power(s).is_identity() else math.inf
        return self._order

    def __eq__(self, other: object) -> bool:
        # one image per generator, so equal images have equal n
        return isinstance(other, FreeMap) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"FreeMap({[freewords.format_word(w) for w in self.images]})"


@dataclass(frozen=True)
class Morphism:
    """The map t^a u -> t^(aQ + u_ab P) (u phi) of Z^m x F_n, for any
    integer m x m matrix Q; an automorphism only when det Q = +-1."""

    ambient: Ambient
    phi: FreeMap
    Q: IntMatrix
    P: IntMatrix

    def __post_init__(self) -> None:
        if self.phi.n != self.ambient.n:
            raise ValueError("free map rank disagrees with the ambient")
        if self.Q.rows != self.ambient.m or self.Q.cols != self.ambient.m:
            raise ValueError("Q must be m x m")
        if self.P.rows != self.ambient.n or self.P.cols != self.ambient.m:
            raise ValueError("P must be n x m")

    @classmethod
    def identity(cls, ambient: Ambient) -> "Morphism":
        return cls(
            ambient,
            FreeMap.identity(ambient.n),
            IntMatrix.identity(ambient.m),
            IntMatrix.zeros(ambient.n, ambient.m),
        )


def apply(psi: Morphism, g: GroupElement) -> GroupElement:
    _check_same(psi.ambient, g.ambient)
    ab = freewords.abelianize(g.w, psi.ambient.n)
    aq = psi.Q.apply_row(g.t)
    up = psi.P.apply_row(ab)
    t = tuple(x + y for x, y in zip(aq, up))
    return GroupElement._trusted(psi.ambient, t, psi.phi.apply(g.w))


def _block(psi: Morphism) -> IntMatrix:
    """[[A, P], [0, Q]], A the abelianization of phi: psi acts on the pair
    (u_ab, a) as this matrix, so morphisms compose, invert and power as it does."""
    n = psi.ambient.n
    rows = [a + p for a, p in zip(psi.phi.abelianization_matrix().entries, psi.P.entries)]
    return IntMatrix._trusted(tuple(rows + [(0,) * n + q for q in psi.Q.entries]), n + psi.ambient.m)


def _unblock(ambient: Ambient, block: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(Q, P) read off the last m columns of a block [[A, P], [0, Q]]."""
    n, m = ambient.n, ambient.m
    rows = [r[n:] for r in block.entries]
    return IntMatrix._trusted(tuple(rows[n:]), m), IntMatrix._trusted(tuple(rows[:n]), m)


def compose(psi: Morphism, other: Morphism) -> Morphism:
    """psi followed by other: apply(compose(psi, other), g) = other(psi(g))."""
    _check_same(psi.ambient, other.ambient)
    phi = psi.phi.compose(other.phi)
    return Morphism(psi.ambient, phi, *_unblock(psi.ambient, _block(psi) * _block(other)))


def invert(psi: Morphism) -> Morphism:
    # phi first: a map without inverse images raises before any matrix work
    return Morphism(psi.ambient, psi.phi.invert(), *_unblock(psi.ambient, matrix_inverse(_block(psi))))


def power(psi: Morphism, k: int) -> Morphism:
    if k < 0:
        return power(invert(psi), -k)
    return power_by_squaring(psi, k, compose) if k else Morphism.identity(psi.ambient)


def power_vector_matrix(psi: Morphism, k: int) -> IntMatrix:
    """P_k of psi^k, the sum of A^i P Q^(k-1-i), read off `linear_power`."""
    return linear_power(psi, k)[1]


def linear_power(psi: Morphism, k: int) -> tuple[IntMatrix, IntMatrix]:
    """(Q^k, P_k) of psi^k, with no free word powered, read off the k-th
    power [[A^k, P_k], [0, Q^k]] of `_block(psi)`."""
    return _unblock(psi.ambient, _block(psi) ** k)


def order(psi: Morphism):
    """Exact order, or math.inf.

    A finite order k is a multiple of r1 = ord phi and of ord Q. A finite
    ord Q needs chi(Q) all cyclotomic and is then the lcm q of the
    cyclotomic orders, so k is a multiple of s = lcm(r1, q).
    Then phi^s = id and A^s = I, so psi^s = (id, Q^s, P_s) and
    psi^(js) = (id, I, j P_s) once Q^s = I: k = s exactly when Q^s = I and
    P_s = 0, that is when `_block(psi) ** s` is the identity. Free words are
    powered only after phi.order()'s matrix check, and nothing is powered
    when chi(A) or chi(Q) is not all cyclotomic.
    """
    r1 = psi.phi.order()
    if r1 == math.inf:
        return math.inf
    q, rest = cyclotomic_split(psi.Q)
    if len(rest) != 1:
        return math.inf
    s = math.lcm(r1, q)
    return s if (_block(psi) ** s).is_identity() else math.inf
