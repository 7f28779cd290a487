"""Reduced words in F_n and Stallings automata.

A word is a tuple of nonzero ints: letter i stands for z_i, -i for z_i^{-1}.
Graphs are folded core automata with basepoint 0, numbered breadth-first with
label order z1 < z1^-1 < z2 < ... as they are built, which makes equality of
graphs meaningful for equal subgroups.
"""

from __future__ import annotations

import functools
from operator import add, sub
from typing import Callable, Hashable, Iterable, Optional, Sequence

Word = tuple[int, ...]

# Most letters `spell_word` spells out for one word, and most letters the words
# of one CLI request spell out in all (`jsonio.word_from_json`), before they are
# reduced: a short text such as "z1^100000000", or many words just under the
# cap, cannot make a request allocate without bound. Folding one word of this
# length takes about 1 s and 140 MiB on Python 3.11. The largest request of
# the tests under it, `test_oracle_tables_long_image`, spells 20,006 letters
# (images of 10,000 letters).
MAX_WORD_LETTERS = 100_000


class LetterError(ValueError):
    """A letter index is outside the alphabet."""


def check_letters(letters: Iterable[int], n: int) -> None:
    for a in letters:
        if a == 0 or abs(a) > n:
            raise LetterError(f"letter {a} outside alphabet of rank {n}")


def reduce_word(letters: Iterable[int], n: Optional[int] = None) -> Word:
    """Freely reduce a letter sequence."""
    if n is not None:
        letters = list(letters)
        check_letters(letters, n)
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def multiply(u: Word, v: Word) -> Word:
    return reduce_word(u + v)


def invert(w: Word) -> Word:
    return tuple([-a for a in reversed(w)])


def abelianize(w: Word, n: int) -> tuple[int, ...]:
    v = [0] * n
    for a in w:
        v[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(v)


def spell_word(text: str) -> list[int]:
    """The letters "z1 z2^-1" spells out (caret exponents allowed), before
    reduction; "" spells none.

    Raises ValueError when the word spells out more than MAX_WORD_LETTERS
    letters."""
    letters: list[int] = []
    for tok in text.split():
        if not tok.startswith("z"):
            raise ValueError(f"bad token {tok!r}")
        body = tok[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
            exp = int(exp_s)
        else:
            idx_s, exp = body, 1
        idx = int(idx_s)
        if idx < 1:
            raise ValueError(f"bad generator index in {tok!r}")
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    return letters


def format_word(w: Word) -> str:
    return " ".join([f"z{a}" if a > 0 else f"z{-a}^-1" for a in w])


def letter_key(a: int) -> int:
    """Sort key realizing z1 < z1^-1 < z2 < z2^-1 < ..."""
    return 2 * abs(a) - (a > 0)


def alphabet(n: int) -> list[int]:
    """The 2n letters of F_n, in `letter_key` order."""
    return [a for i in range(1, n + 1) for a in (i, -i)]


class StallingsGraph:
    """Folded core automaton of a finitely generated subgroup of F_n.

    Built by one breadth-first search of the basepoint component of a
    symmetric automaton, given by its transition function step(v, a) (None
    where there is no edge) and the `labels` its edges can carry, in
    `letter_key` order. The search numbers vertices in that order of labels,
    so equal subgroups give equal graphs; the edge along which it first
    reaches a vertex is the vertex's spanning-tree edge, and every other edge
    is a basis edge. Hanging trees are peeled only when a vertex other than
    the base has degree <= 1. No shortest path from the base to a survivor
    enters a hanging tree and no basis edge touches one, so the survivors
    keep their tree edges and their order, and are renumbered in it.
    """

    def __init__(
        self,
        n: int,
        base: Hashable,
        step: Callable[[Hashable, int], Optional[Hashable]],
        labels: Sequence[int],
    ):
        self.n = n
        self.delta: dict[tuple[int, int], int] = {}
        self._tree_parent: dict[int, tuple[int, int]] = {}
        # in (vertex, label) order, as vertices leave the queue in number order
        self._basis_edges: list[tuple[int, int, int]] = []
        order = {base: 0}
        queue = [base]  # read while it grows: vertex i is queue[i]
        deg: list[int] = []
        for i, v in enumerate(queue):
            edges = len(self.delta)
            for a in labels:
                w = step(v, a)
                if w is None:
                    continue
                j = order.get(w)
                if j is None:
                    j = order[w] = len(order)
                    self._tree_parent[j] = (i, a)
                    queue.append(w)
                elif a > 0 and self._tree_parent.get(i) != (j, -a):
                    self._basis_edges.append((i, a, j))
                self.delta[(i, a)] = j
            deg.append(len(self.delta) - edges)
        dead: set[int] = set()
        stack = [j for j, d in enumerate(deg) if d <= 1 and j]
        while stack:
            v = stack.pop()
            if v in dead:
                continue
            dead.add(v)
            for a in labels:
                w = self.delta.get((v, a))
                if w is not None and w not in dead:
                    deg[w] -= 1
                    if deg[w] <= 1 and w:
                        stack.append(w)
        if dead:
            new = {j: k for k, j in enumerate(j for j in range(len(deg)) if j not in dead)}
            self.delta = {(new[v], a): new[w] for (v, a), w in self.delta.items() if v in new and w in new}
            self._tree_parent = {new[j]: (new[i], a) for j, (i, a) in self._tree_parent.items() if j in new}
            self._basis_edges = [(new[v], a, new[w]) for v, a, w in self._basis_edges]
        self.num_vertices = len(deg) - len(dead)
        # the signed 1-based index of each crossing of a basis edge; folded
        # graphs have one transition per (vertex, label), so one per key
        self.crossings: dict[tuple[int, int], int] = {}
        for idx, (v, a, w) in enumerate(self._basis_edges, start=1):
            self.crossings[(v, a)] = idx
            self.crossings[(w, -a)] = -idx

    # -- queries -----------------------------------------------------------

    def path_from_base(self, v: int) -> Word:
        letters: list[int] = []
        while v != 0:
            u, a = self._tree_parent[v]
            letters.append(a)
            v = u
        return tuple(reversed(letters))

    @functools.cached_property
    def basis_words(self) -> list[Word]:
        # tree paths are reduced and a basis edge is no tree edge, so no
        # letter cancels at either end of the edge
        return [
            self.path_from_base(v) + (a,) + invert(self.path_from_base(w))
            for (v, a, w) in self._basis_edges
        ]

    @functools.cached_property
    def basis_abelianized(self) -> list[tuple[int, ...]]:
        """abelianize(u) for each u of `basis_words`, with no word spelled."""
        units = {a: abelianize((a,), self.n) for a in alphabet(self.n)}
        return self.basis_sums(lambda v, a: units[a], self.n)

    def basis_sums(self, weight: Callable[[int, int], Sequence[int]], dim: int) -> list[tuple[int, ...]]:
        """For each basis word, in `basis_words` order, the sum of the
        length-dim vectors weight(v, a) over the edges (v, a) it crosses
        (weight(w, -a) = -weight(v, a)), with no word spelled: each vertex's
        potential, the sum along its spanning-tree path, comes from its tree
        parent's, and the word of the basis edge (v, a, w) sums to
        pot(v) + weight(v, a) - pot(w)."""
        pot = [(0,) * dim] * self.num_vertices
        for j, (i, a) in self._tree_parent.items():
            pot[j] = tuple(map(add, pot[i], weight(i, a)))
        return [tuple(map(sub, map(add, pot[v], weight(v, a)), pot[w])) for v, a, w in self._basis_edges]

    @property
    def rank(self) -> int:
        return len(self._basis_edges)

    def maps_into(self, other: "StallingsGraph") -> Optional[list[int]]:
        """The label-preserving map of vertices, base to base, that carries
        every edge of self onto an edge of other, as a list of images; None
        when there is none. It exists exactly when the subgroup of self lies
        in that of other.

        The spanning tree fixes the only candidate map; each edge is then
        checked once."""
        image = [0] * self.num_vertices
        for j, (i, a) in self._tree_parent.items():
            w = other.delta.get((image[i], a))
            if w is None:
                return None
            image[j] = w
        ok = all(other.delta.get((image[v], a)) == image[w] for (v, a), w in self.delta.items())
        return image if ok else None

    def trace(self, w: Word) -> Optional[list[int]]:
        """Expression of w over the spanning-tree basis, or None if w is
        not in the subgroup. Indices are 1-based and signed."""
        cur = 0
        expr: list[int] = []
        for a in w:
            nxt = self.delta.get((cur, a))
            if nxt is None:
                return None
            hit = self.crossings.get((cur, a))
            if hit is not None:
                # non-tree edge crossing; tree crossings contribute nothing
                expr.append(hit)
            cur = nxt
        if cur != 0:
            return None
        return list(reduce_word(expr))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StallingsGraph) and (self.n, self.num_vertices, self.delta) == (
            other.n, other.num_vertices, other.delta
        )

    def __repr__(self) -> str:
        return f"StallingsGraph(n={self.n}, vertices={self.num_vertices}, rank={self.rank})"


def stallings(generators: Sequence[Word], n: int) -> StallingsGraph:
    """Stallings graph of the subgroup generated by `generators`.

    Each generator is spelled as a loop at the basepoint 0. Edges go into a
    per-vertex label dict; a second edge with a label already present queues
    its target for identification with the first one, and identifying two
    vertices moves the absorbed one's at most 2n edges onto the survivor.
    """
    out: list[dict[int, int]] = [{}]
    parent = [0]
    pending: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def link(u: int, a: int, v: int) -> None:
        # u --a--> v, u a root
        seen = out[u].setdefault(a, v)
        if seen != v:
            pending.append((seen, v))

    for w in generators:
        w = reduce_word(w, n)
        cur = 0
        for i, a in enumerate(w):
            dst = 0 if i == len(w) - 1 else len(out)
            if dst:
                out.append({})
                parent.append(dst)
            link(find(cur), a, dst)
            link(find(dst), -a, cur)
            cur = dst
        while pending:
            x, y = (find(z) for z in pending.pop())
            if x == y:
                continue
            if len(out[x]) < len(out[y]):
                x, y = y, x
            parent[y] = x
            for a, z in out[y].items():
                link(x, a, z)
            out[y] = {}

    def step(v: int, a: int) -> Optional[int]:
        z = out[v].get(a)
        return None if z is None else find(z)

    return StallingsGraph(n, find(0), step, sorted(set().union(*out), key=letter_key))


def pullback(
    g1: StallingsGraph, step: Callable[[Hashable, int], Optional[Hashable]], base: Hashable
) -> StallingsGraph:
    """Core of the basepoint component of the product of g1 with the automaton
    whose transitions are step(state, letter) (None where there is none),
    started at base.

    With the transitions of a second graph it recognizes the intersection of
    the two subgroups. With a group acting on the states it is the cover of
    g1 that recognizes the words of g1's subgroup carrying base back to base.
    """
    edge = g1.delta.get

    def product(p: tuple[int, Hashable], a: int) -> Optional[tuple[int, Hashable]]:
        w1 = edge((p[0], a))
        t = None if w1 is None else step(p[1], a)
        return None if t is None else (w1, t)

    return StallingsGraph(g1.n, (0, base), product, sorted({a for _, a in g1.delta}, key=letter_key))


class IndexBoundExceeded(RuntimeError):
    """Coset enumeration found more cosets than the promised index."""


def schreier_basis(
    ambient_basis: Sequence[Word],
    coset_key: Callable[[Word], Hashable],
    index_bound: int,
) -> list[Word]:
    """Free basis of a finite-index subgroup H given by its coset keys.

    coset_key speaks about abstract words over p = len(ambient_basis) letters
    and takes equal values on u and v exactly when H u = H v. The coset
    graph's `basis_words`, read off its breadth-first spanning tree, are the
    Schreier basis of H; they are substituted back into the actual ambient
    words.
    """
    p = len(ambient_basis)
    reps: list[Word] = [()]
    coset_of = {coset_key(()): 0}
    table: dict[tuple[int, int], int] = {}
    i = 0
    while i < len(reps):
        for a in alphabet(p):
            if (i, a) in table:
                continue
            cand = multiply(reps[i], (a,))
            target = coset_of.setdefault(coset_key(cand), len(reps))
            if target == len(reps):
                reps.append(cand)
                if len(reps) > index_bound:
                    raise IndexBoundExceeded(
                        f"more than {index_bound} cosets found; coset keys and bound disagree"
                    )
            table[(i, a)] = target
            table[(target, -a)] = i
        i += 1
    # spell[a] is the ambient word of letter a; a < 0 counts from the end
    spell = [()] + list(ambient_basis) + [invert(g) for g in reversed(ambient_basis)]
    return [
        reduce_word([b for a in u for b in spell[a]])
        for u in StallingsGraph(p, 0, lambda v, a: table.get((v, a)), alphabet(p)).basis_words
    ]
