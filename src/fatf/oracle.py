"""Brute-force ground truth at desk scale.

Everything here is bounded enumeration: it can certify containment within
the bounds, never completeness of an infinite subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import freewords, morphisms
from .fatfcore import Ambient, GroupElement, SubgroupBasis, inv, member, mul
from .freewords import Word
from .morphisms import Morphism

# Most elements `brute_fixed` may range over: reduced words of length at most
# word_len_max, (2n)(2n-1)^(L-1) of each length L >= 1, times the (2c+1)^m
# vectors of the box. The largest enumeration of the test suites and the
# benchmark, Bounds(5, 2) at m = n = 4, is 22,409 * 625 = 14,005,625.
MAX_ENUMERATION = 30_000_000


@dataclass(frozen=True)
class Bounds:
    word_len_max: int
    coord_abs_max: int

    def __post_init__(self) -> None:
        if self.word_len_max < 0 or self.coord_abs_max < 0:
            raise ValueError("bounds must be nonnegative")


def reduced_words(n: int, max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, shortest first, letters in
    the order z1 < z1^-1 < z2 < ..."""
    key = freewords.letter_order()
    alphabet = sorted([i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)], key=key)
    layer: list[Word] = [()]
    yield ()
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in layer:
            for a in alphabet:
                if w and w[-1] == -a:
                    continue
                nxt.append(w + (a,))
        yield from nxt
        layer = nxt


def vectors(m: int, max_abs: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(range(-max_abs, max_abs + 1), repeat=m)


def enumerate_elements(ambient: Ambient, bounds: Bounds) -> Iterator[GroupElement]:
    for w in reduced_words(ambient.n, bounds.word_len_max):
        for a in vectors(ambient.m, bounds.coord_abs_max):
            yield GroupElement(ambient, a, w)


def brute_fixed(maps: Sequence[Morphism], bounds: Bounds) -> list[GroupElement]:
    """Enumerated elements fixed by every morphism."""
    if not maps:
        raise ValueError("need at least one morphism")
    ambient = maps[0].ambient
    m, n = ambient.m, ambient.n
    # exponents are cut at 64: 3^64 alone exceeds the budget
    L, c = bounds.word_len_max, bounds.coord_abs_max
    words = 1 + 2 * L if n == 1 else 1 + n * ((2 * n - 1) ** min(L, 64) - 1) // max(n - 1, 1)
    if words * (2 * c + 1) ** min(m, 64) > MAX_ENUMERATION:
        raise ValueError(f"bounds enumerate more than {MAX_ENUMERATION} elements")
    out: list[GroupElement] = []
    for w in reduced_words(n, bounds.word_len_max):
        if any(psi.phi.apply(w) != w for psi in maps):
            continue
        ab = freewords.abelianize(w, n)
        shifts = [psi.P.apply_row(ab) for psi in maps]
        for a in vectors(m, bounds.coord_abs_max):
            ok = True
            for psi, s in zip(maps, shifts):
                aq = psi.Q.apply_row(a)
                if any(aq[i] + s[i] != a[i] for i in range(m)):
                    ok = False
                    break
            if ok:
                out.append(GroupElement(ambient, a, w))
    return out


def bounded_products(gens: Sequence[GroupElement], ambient: Ambient, depth: int) -> set[GroupElement]:
    seen = {GroupElement.identity(ambient)}
    frontier = set(seen)
    steps = [g for g in gens] + [inv(g) for g in gens]
    for _ in range(depth):
        nxt = set()
        for g in frontier:
            for s in steps:
                h = mul(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.add(h)
        frontier = nxt
        if not frontier:
            break
    return seen


def closure_check(H: SubgroupBasis, gens: Sequence[GroupElement], depth: int) -> bool:
    """Products of <= depth generators all lie in H, and every basis element
    of H shows up among those products."""
    products = bounded_products(gens, H.ambient, depth)
    if not all(member(H, g) for g in products):
        return False
    return all(g in products for g in H.basis_elements())
