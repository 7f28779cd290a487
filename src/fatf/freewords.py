"""Reduced words in F_n and Stallings automata.

A word is a tuple of nonzero ints: letter i stands for z_i, -i for z_i^{-1}.
Letters are ordered z1 < z1^-1 < z2 < ... (`alphabet`). A graph is the folded
core automaton of a subgroup, based at 0 and numbered breadth-first in that
letter order, so equal subgroups give equal graphs.
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
        if type(a) is not int or a == 0 or abs(a) > n:
            raise LetterError(f"letter {a!r} outside alphabet of rank {n}")


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


def alphabet(n: int) -> list[int]:
    """The 2n letters of F_n, in the order z1 < z1^-1 < z2 < z2^-1 < ..."""
    return [a for i in range(1, n + 1) for a in (i, -i)]


class StallingsGraph:
    """Folded core automaton of a finitely generated subgroup of F_n, held as
    its edge table: edges[v] maps each letter at vertex v to its target, in
    `alphabet` order; crossings[v][a] is the signed 1-based index of the basis
    edge that letter a crosses at v.

    Built by one breadth-first search of the basepoint component of a
    symmetric automaton, step(v) mapping the letter of each edge at v to its
    target. The search sorts each vertex's letters itself, so equal subgroups
    give equal tables and the work grows with the edges, not with n. The edge
    along which it first reaches a vertex is the vertex's spanning-tree edge;
    every other edge is a basis edge. Hanging trees are peeled only when a
    vertex other than the base has degree <= 1. No shortest path from the base
    to a survivor enters a hanging tree and no basis edge touches one, so the
    survivors keep their tree edges and their order, and are renumbered in it.
    """

    def __init__(self, n: int, base: Hashable, step: Callable[[Hashable], dict[int, Hashable]]):
        self.n = n
        self.edges: list[dict[int, int]] = []
        self._tree_parent: dict[int, tuple[int, int]] = {}
        # in (vertex, label) order, as vertices leave the queue in number order
        self._basis_edges: list[tuple[int, int, int]] = []
        order = {base: 0}
        queue = [base]  # read while it grows: vertex i is queue[i]
        last, ordered = (), []  # the letters of the last vertex, as given and sorted
        for i, v in enumerate(queue):
            targets = step(v)
            letters = tuple(targets)
            if letters != last:  # sort only where they change, into z1 < z1^-1 < z2 < ...
                last, ordered = letters, sorted(letters, key=lambda a: 2 * abs(a) - (a > 0))
            row = {}
            for a in ordered:
                w = targets[a]
                j = order.get(w)
                if j is None:
                    j = order[w] = len(order)
                    self._tree_parent[j] = (i, a)
                    queue.append(w)
                elif a > 0 and self._tree_parent.get(i) != (j, -a):
                    self._basis_edges.append((i, a, j))
                row[a] = j
            self.edges.append(row)
        deg = [len(row) for row in self.edges]
        # no vertex is pushed twice: removing one of live degree <= 1 keeps
        # the live graph connected through the base
        dead: set[int] = set()
        stack = [j for j, d in enumerate(deg) if d <= 1 and j]
        while stack:
            v = stack.pop()
            dead.add(v)
            for w in self.edges[v].values():
                if w not in dead:
                    deg[w] -= 1
                    if deg[w] <= 1 and w:
                        stack.append(w)
        if dead:
            new = {j: k for k, j in enumerate(j for j in range(len(deg)) if j not in dead)}
            self.edges = [{a: new[w] for a, w in self.edges[j].items() if w in new} for j in new]
            self._tree_parent = {new[j]: (new[i], a) for j, (i, a) in self._tree_parent.items() if j in new}
            self._basis_edges = [(new[v], a, new[w]) for v, a, w in self._basis_edges]
        self.num_vertices = len(self.edges)
        # folded graphs have one edge per (vertex, label), so one crossing
        self.crossings: list[dict[int, int]] = [{} for _ in self.edges]
        for idx, (v, a, w) in enumerate(self._basis_edges, start=1):
            self.crossings[v][a] = idx
            self.crossings[w][-a] = -idx

    # -- queries -----------------------------------------------------------

    @functools.cached_property
    def basis_words(self) -> list[Word]:
        def climb(v: int) -> Word:  # the reduced tree path from v to the base
            up = []
            while v != 0:
                v, a = self._tree_parent[v]
                up.append(-a)
            return tuple(up)
        # cost: the answer's length; no letter cancels, as no basis edge is a tree edge
        return [invert(climb(v)) + (a,) + climb(w) for v, a, w in self._basis_edges]

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
            w = other.edges[image[i]].get(a)
            if w is None:
                return None
            image[j] = w
        ok = all(other.edges[x].get(a) == image[w] for row, x in zip(self.edges, image) for a, w in row.items())
        return image if ok else None

    def trace(self, w: Word) -> Optional[list[int]]:
        """Expression of a reduced word w over the spanning-tree basis, or
        None if w is not in the subgroup; 1-based signed indices, reduced as
        walked, since no nonempty reduced tree path is closed."""
        edges, crossings = self.edges, self.crossings
        cur = 0
        expr: list[int] = []
        for a in w:
            nxt = edges[cur].get(a)
            if nxt is None:
                return None
            hit = crossings[cur].get(a)
            if hit is not None:
                # non-tree edge crossing; tree crossings contribute nothing
                expr.append(hit)
            cur = nxt
        if cur != 0:
            return None
        return expr

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StallingsGraph) and (self.n, self.edges) == (other.n, other.edges)

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

    return StallingsGraph(n, find(0), lambda v: {a: find(z) for a, z in out[v].items()})


def pullback(
    graph: StallingsGraph, step: Callable[[Hashable, int], Optional[Hashable]], base: Hashable
) -> StallingsGraph:
    """Core of the basepoint component of the product of graph with the
    automaton whose transitions are step(state, letter) (None where there is
    none), started at base. step must be symmetric: step(s, a) = t exactly
    when step(t, -a) = s.

    The product's edges at (v, s) are graph.edges[v] as built, kept where
    step(s, a) is defined. With the transitions of a second graph it
    recognizes the intersection of the two subgroups; with a group acting on
    the states it is the cover of graph that recognizes the words of its
    subgroup carrying base to base. Each transition step gives is kept with
    its inverse, so an edge and its reverse cost one call of step.
    """
    learned: dict[Hashable, dict[int, Hashable]] = {}

    def product(p: tuple[int, Hashable]) -> dict[int, tuple[int, Hashable]]:
        v, s = p
        known = learned.setdefault(s, {})
        edges = {}
        for a, w in graph.edges[v].items():
            t = known.get(a)
            if t is None:
                t = step(s, a)
                if t is None:
                    continue
                known[a] = t
                learned.setdefault(t, {})[-a] = s
            edges[a] = (w, t)
        return edges

    return StallingsGraph(graph.n, (0, base), product)


class IndexBoundExceeded(RuntimeError):
    """Coset enumeration found more cosets than the promised index."""


def schreier_basis(
    ambient_basis: Sequence[Word],
    coset_key: Callable[[Word], Hashable],
    index_bound: int,
) -> list[Word]:
    """Free basis of a finite-index subgroup H given by its coset keys.

    coset_key speaks about abstract words over p = len(ambient_basis) letters
    and takes equal values on u and v exactly when H u = H v. The search of
    `StallingsGraph` builds the coset graph, its states the first word seen
    in each coset; the graph's `basis_words`, read off its breadth-first
    spanning tree, are the Schreier basis of H, and they are substituted back
    into the actual ambient words.
    """
    p = len(ambient_basis)
    reps: dict[Hashable, Word] = {coset_key(()): ()}
    letters = alphabet(p)

    def step(u: Word) -> dict[int, Word]:
        edges = {}
        for a in letters:
            v = multiply(u, (a,))
            edges[a] = reps.setdefault(coset_key(v), v)
            if len(reps) > index_bound:
                raise IndexBoundExceeded(f"more than {index_bound} cosets found; coset keys and bound disagree")
        return edges

    # spell[a] is the ambient word of letter a; a < 0 counts from the end
    spell = [()] + list(ambient_basis) + [invert(g) for g in reversed(ambient_basis)]
    return [
        reduce_word([b for a in u for b in spell[a]])
        for u in StallingsGraph(p, (), step).basis_words
    ]
