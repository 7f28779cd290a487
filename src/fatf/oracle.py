"""Brute-force ground truth at desk scale.

Everything here is bounded enumeration: it can certify containment within
the bounds, never completeness of an infinite subgroup.

`brute_fixed` finds the fixed reduced words of length <= L by a
meet-in-the-middle join (Horowitz-Sahni, J. ACM 1974) on the split identity:
for w = u v reduced,

    phi(w) = w   iff   u^-1 phi(u) = v phi(v)^-1   as reduced words,

and v phi(v)^-1 = F(v^-1) with F(x) = x^-1 phi(x). So it walks the reduced
words x of length <= H = ceil(L/2) once, level by level, carrying
F(x a) = a^-1 F(x) phi(a) for each of the k maps. It keys each x by F_1(x)
alone and stores rest = (F_2(x), ..., F_k(x)) beside it. For each l <= L it
walks the words y = v^-1 of length floor(l/2), looks each key up among the
words u of length ceil(l/2), and keeps a pair only when the rests are equal
too. When L is odd, level H serves only the lookups of length L, made with
the keys of level H - 1, so it keeps only those keys. At an even l a key of
one half-word x meets only x, and x x^-1 cancels, so the join skips it.
It applies no map to a word longer than H: it reads the maps' images and
matrices, calls no `FreeMap` method and uses none of the Stallings or
lattice code it checks.

The vectors of a fixed word w are the a of the box |a_j| <= c that solve the
stacked system a R = (w_ab P_1, ..., w_ab P_k), R = [I - Q_1 | ... | I - Q_k].
The box is split in the middle too: a R = a1 R1 + a2 R2 for a = (a1, a2), R1
the first ceil(m/2) rows of R and R2 the last floor(m/2). One dict from a2 R2
to a2 and, for each distinct shift s, a scan of the a1 that looks up s - a1 R1
list the solutions with plain integer arithmetic, never the (2c+1)^m box.

The output is word runs: each fixed word with the ascending list of its box
vectors, and words with equal stacked shifts share one list. Three budgets
bound a call up front: the words of length <= L times the (2c+1)^m vectors
of the box, and the letters the half-word tables store, at most
(half-words) * H * (1 + sum_i (1 + K_i)), K_i the longest image of phi_i,
both at MAX_ENUMERATION, and the larger half of the split box, at
MAX_OUTPUT_ELEMENTS vectors. The answer is counted word by word as the join
finds it, through `budget.spend`: on the request's ledger in `oracle-check`,
alone in a library call. Its elements may not pass MAX_OUTPUT_ELEMENTS, nor
its word letters, counted once per element as a reply spells them,
MAX_OUTPUT_LETTERS, nor the fixed words with no vector in the box, which
cost the walk as much as the others, MAX_OUTPUT_ELEMENTS. A shift whose box
alone could pass the element cap has its solutions counted from the split
box's table before any is listed, so no list past the cap is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from . import budget, freewords
from .fatfcore import Vec
from .freewords import Word
from .morphisms import Morphism

# Most words and box vectors, and most half-word-table letters, a
# `brute_fixed` call may range over. The largest count of the test suites and
# the benchmark, Bounds(5, 2) at m = n = 4, is 22,409 * 625 = 14,005,625
# elements. The letter bound grows with the square of L when n = 1 and with
# the longest image; it is at most 12,339 on the benchmark and 50,010 in the
# tests (a 10,000-letter image at L = 2). Since the output caps below bound
# the answer, this budget bounds only the walk; it stays as it was, as the
# tests' largest walk needs half of it. Within it, the identity of Z^2 x F_2
# with P = I at Bounds(14, 0) finds 9.5M fixed words, of which only the
# 154,449 with w_ab = 0 have a vector; it answered after 31 s, and is now
# refused after 200,000 words with no vector, in 0.55 s.
MAX_ENUMERATION = 30_000_000

# Most elements, and most word letters counted once per element, the runs of
# one answer may hold; the split box's larger half, one table built whole,
# may hold at most MAX_OUTPUT_ELEMENTS vectors too. The largest answer of the
# tests, golden fixtures and corpus is 23,435 elements (the identity of
# Z x F_3 at Bounds(5, 2)), and of a benchmark operation 275. The costliest
# element has a run of its own: `oracle-check` of the identity of F_2 at
# Bounds(10, 0), 118,097 one-element runs of up to 10 letters, answers in
# 1.6 s at a peak RSS of 85 MiB, and of Z x F_1 at Bounds(0, 99,999), one run
# of 199,999 vectors, in 1.2 s at 141 MiB. Letters cost most in long words:
# the identity of F_1 at Bounds(2,235, 0), 4,997,460 letters in 4,471 runs,
# answers in 2.0 s at 120 MiB (Python 3.11.7, 2-core x86_64).
MAX_OUTPUT_ELEMENTS = 200_000
MAX_OUTPUT_LETTERS = 5_000_000


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
    alphabet = freewords.alphabet(n)
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


def _word_count(n: int, max_len: int) -> int:
    """Reduced words of length <= max_len in F_n; exponents are cut at 64,
    where 3^64 alone exceeds the budget."""
    if n == 1:
        return 1 + 2 * max_len
    return 1 + n * ((2 * n - 1) ** min(max_len, 64) - 1) // max(n - 1, 1)


def _check_budget(maps: Sequence[Morphism], bounds: Bounds) -> None:
    m, n = maps[0].ambient.m, maps[0].ambient.n
    L, c = bounds.word_len_max, bounds.coord_abs_max
    # every word with the full box, although the join walks only fixed
    # words and the split lookup never builds the box
    if _word_count(n, L) * (2 * c + 1) ** min(m, 64) > MAX_ENUMERATION:
        raise ValueError(f"bounds enumerate more than {MAX_ENUMERATION} elements")
    H = (L + 1) // 2
    # a half-word x of length <= H is stored with each F_i(x), of length
    # <= H (1 + K_i); an upper bound, as a lookup-only level H keeps fewer
    per_letter = 1 + sum(1 + max(map(len, psi.phi.images), default=0) for psi in maps)
    if _word_count(n, H) * H * per_letter > MAX_ENUMERATION:
        raise ValueError(f"bounds need half-word tables of more than {MAX_ENUMERATION} letters")
    # the split box's larger half is one table, built whole
    if (2 * c + 1) ** min((m + 1) // 2, 64) > MAX_OUTPUT_ELEMENTS:
        raise ValueError(f"bounds split the box into halves of more than {MAX_OUTPUT_ELEMENTS} vectors")


def _extend(f: Word, a: int, image: Word) -> Word:
    """F(x a) = a^-1 F(x) phi(a), reduced, from F(x) reduced and the image
    phi(a)."""
    f = f[1:] if f and f[0] == a else (-a,) + f
    if not (f and image and f[-1] == -image[0]):
        # most steps cancel nothing
        return f + image
    k = 1
    top = min(len(f), len(image))
    while k < top and f[-1 - k] == -image[k]:
        k += 1
    return f[: len(f) - k] + image[k:]


def _half_word_tables(maps: Sequence[Morphism], L: int) -> list[dict[Word, list[tuple[Word, tuple[Word, ...]]]]]:
    """Entry h, for h <= H = ceil(L/2), maps each key F_1(x) to the (x, rest)
    of the reduced words x of length h with that key, rest = (F_2(x), ...,
    F_k(x)) and F_i(x) = x^-1 phi_i(x) reduced; rest is () for one map.

    Level h + 1 extends the entries of level h, key by key; at odd L,
    level H serves only lookups and keeps only the keys of level H - 1."""
    # (a, phi_1(a), [a] * (k - 1), [phi_2(a), ..., phi_k(a)]) per letter a
    steps = []
    for i in range(1, maps[0].ambient.n + 1):
        imgs = [psi.phi.images[i - 1] for psi in maps]
        invs = [freewords.invert(u) for u in imgs]
        steps.append((i, imgs[0], [i] * (len(maps) - 1), imgs[1:]))
        steps.append((-i, invs[0], [-i] * (len(maps) - 1), invs[1:]))
    root: tuple[Word, tuple[Word, ...]] = ((), tuple(() for _ in maps[1:]))
    tables = [{(): [root]}]
    for h in range((L + 1) // 2):
        keep = tables[-1] if L % 2 and h == L // 2 else None
        table: dict[Word, list[tuple[Word, tuple[Word, ...]]]] = {}
        for f, entries in tables[-1].items():
            for x, rest in entries:
                last = -x[-1] if x else 0
                for a, image, letters, images in steps:
                    if a != last:
                        key = _extend(f, a, image)
                        if keep is None or key in keep:
                            table.setdefault(key, []).append(
                                (x + (a,), rest and tuple(map(_extend, rest, letters, images)))
                            )
        tables.append(table)
    return tables


def _shift_solver(maps: Sequence[Morphism], c: int) -> Callable[[Vec], list[Vec]]:
    """s -> the ascending list of the a in the box |a_j| <= c with a R = s,
    R = [I - Q_1 | ... | I - Q_k] the stacked m x km matrix of the maps,
    memoized per s; ValueError when it holds more than MAX_OUTPUT_ELEMENTS.

    a R = a1 R1 + a2 R2 for the split a = (a1, a2) of the coordinates,
    R1 the first ceil(m/2) rows of R and R2 the last floor(m/2): one
    dict from a2 R2 to the ascending a2, and for each s a scan of a1
    ascending that looks up s - a1 R1. So a1 outer and a2 inner list the
    vectors ascending, and no call visits the whole box. When the box
    holds more than the cap, a first scan counts them without listing."""
    m = maps[0].ambient.m
    rows = [[(i == j) - psi.Q.entries[i][j] for psi in maps for j in range(m)] for i in range(m)]
    half = (m + 1) // 2
    box = (2 * c + 1) ** m

    def half_box(rs: list[list[int]]) -> list[tuple[Vec, Vec]]:
        """(a, a R) for a ascending over the box of len(rs) coordinates."""
        cur: list[tuple[Vec, Vec]] = [((), (0,) * (len(maps) * m))]
        for r in rs:
            cur = [
                (a + (x,), tuple([s_j + x * r_j for s_j, r_j in zip(s, r)]))
                for a, s in cur
                for x in range(-c, c + 1)
            ]
        return cur

    left = half_box(rows[:half])
    right: dict[Vec, list[Vec]] = {}
    for a2, s2 in half_box(rows[half:]):
        right.setdefault(s2, []).append(a2)
    memo: dict[Vec, list[Vec]] = {}

    def count(s: Vec) -> int:
        """The number of solutions for s, none of them listed."""
        return sum(len(right.get(tuple([x - y for x, y in zip(s, s1)]), ())) for _, s1 in left)

    def solve(s: Vec) -> list[Vec]:
        found = memo.get(s)
        if found is None:
            if box > MAX_OUTPUT_ELEMENTS and count(s) > MAX_OUTPUT_ELEMENTS:
                raise ValueError(f"the answer would hold more than {MAX_OUTPUT_ELEMENTS} elements")
            found = memo[s] = [
                a1 + a2
                for a1, s1 in left
                for a2 in right.get(tuple([x - y for x, y in zip(s, s1)]), ())
            ]
        return found

    return solve


def brute_fixed(maps: Sequence[Morphism], bounds: Bounds) -> list[tuple[Word, list[Vec]]]:
    """The elements t^a w fixed by every morphism with |w| <= L and every
    |a_j| <= c, as runs (w, vectors): the fixed words in shortlex order
    (z1 < z1^-1 < z2 < ...), each with the ascending list of its vectors,
    words with none left out. Words with equal stacked shifts share one list.

    The words come from the meet-in-the-middle join of the module docstring:
    w = u y^-1 with |u| = ceil(l/2), |y| = floor(l/2), equal keys and equal
    rests, where u y^-1 is reduced unless u and y end in the same letter (u
    is not empty when y is not, as |u| >= |y|), with the lookup-only last
    level and the skip of lone keys. A fixed word w takes the a with
    a - aQ_i = w_ab P_i for every map, from the split box of the stacked
    system (`_shift_solver`), solved once per distinct shift as the join
    finds w, so the answer is counted before any further word is joined.

    Raises ValueError when the bounds exceed a budget of the module
    docstring, or the answer or its words with no vector an output cap."""
    if not maps:
        raise ValueError("need at least one morphism")
    _check_budget(maps, bounds)
    n = maps[0].ambient.n
    L = bounds.word_len_max if n else 0  # F_0 has only the empty word
    tables = _half_word_tables(maps, L)
    solve = _shift_solver(maps, bounds.coord_abs_max)
    order = {a: i for i, a in enumerate(freewords.alphabet(n))}
    runs: list[tuple[Word, list[Vec]]] = []
    with budget.scope():
        for ell in range(L + 1):
            found: list[tuple[Word, list[Vec]]] = []
            left = tables[(ell + 1) // 2]
            # at even ell > 0 a key needs two half-words: a lone x meets only x
            fewest = 2 if ell and ell % 2 == 0 else 1
            for key, ys in tables[ell // 2].items():
                us = left.get(key) if len(ys) >= fewest else None
                if us is None:
                    continue
                for y, yrest in ys:
                    v = freewords.invert(y)
                    for w in [u + v for u, urest in us if urest == yrest and not (y and u[-1] == y[-1])]:
                        ab = freewords.abelianize(w, n)
                        vecs = solve(tuple([x for psi in maps for x in psi.P.apply_row(ab)]))
                        if not vecs:
                            if budget.spend("fixed words with no vector", 1, MAX_OUTPUT_ELEMENTS):
                                raise ValueError(f"the join would find more than {MAX_OUTPUT_ELEMENTS} fixed words with no vector")
                            continue
                        if budget.spend("answer elements", len(vecs), MAX_OUTPUT_ELEMENTS):
                            raise ValueError(f"the answer would hold more than {MAX_OUTPUT_ELEMENTS} elements")
                        if budget.spend("answer letters", len(w) * len(vecs), MAX_OUTPUT_LETTERS):
                            raise ValueError(f"the answer would spell more than {MAX_OUTPUT_LETTERS} letters")
                        found.append((w, vecs))
            found.sort(key=lambda run: tuple(map(order.__getitem__, run[0])))
            runs.extend(found)
    return runs
