"""Reduced words in F_n and Stallings automata.

A word is a tuple of nonzero ints: letter i stands for z_i, -i for z_i^{-1}.
Graphs are folded core automata with basepoint 0; after construction they are
renumbered breadth-first with label order z1 < z1^-1 < z2 < ..., which makes
equality of graphs meaningful for equal subgroups.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Optional, Sequence

Word = tuple[int, ...]


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
    out = list(u)
    for a in v:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(-a for a in reversed(w))


def word_power(w: Word, k: int) -> Word:
    if k < 0:
        return word_power(invert(w), -k)
    out: Word = ()
    for _ in range(k):
        out = multiply(out, w)
    return out


def abelianize(w: Word, n: int) -> tuple[int, ...]:
    v = [0] * n
    for a in w:
        v[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(v)


def parse_word(text: str, n: Optional[int] = None) -> Word:
    """Parse "z1 z2^-1" (caret exponents allowed); "" is the identity."""
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
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    return reduce_word(letters, n)


def format_word(w: Word) -> str:
    return " ".join(f"z{a}" if a > 0 else f"z{-a}^-1" for a in w)


def root(w: Word) -> tuple[Word, int]:
    """(w_hat, alpha) with w = w_hat^alpha, alpha maximal."""
    if not w:
        raise ValueError("the identity has no root")
    pre: list[int] = []
    core = list(w)
    while len(core) >= 2 and core[0] == -core[-1]:
        pre.append(core[0])
        core = core[1:-1]
    L = len(core)
    for d in sorted(k for k in range(1, L + 1) if L % k == 0):
        if core[:d] * (L // d) == core:
            alpha = L // d
            hat = reduce_word(pre + core[:d] + [-a for a in reversed(pre)])
            return hat, alpha
    raise AssertionError("unreachable: every word is a power of itself")


def letter_order() -> Callable[[int], int]:
    """Sort key realizing z1 < z1^-1 < z2 < z2^-1 < ..."""
    return lambda a: 2 * abs(a) - (1 if a > 0 else 0)


def _alphabet(n: int) -> list[int]:
    out = []
    for i in range(1, n + 1):
        out.extend([i, -i])
    return out


class StallingsGraph:
    """Folded core automaton of a finitely generated subgroup of F_n."""

    def __init__(self, n: int, num_vertices: int, delta: dict[tuple[int, int], int]):
        self.n = n
        self.num_vertices = num_vertices
        self.delta = delta
        self._tree_parent: dict[int, tuple[int, int]] = {}
        self._basis_edges: list[tuple[int, int, int]] = []
        self._edge_index: dict[tuple[int, int], tuple[int, int]] = {}
        self._compute_basis()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Sequence[Word], n: int) -> "StallingsGraph":
        for w in generators:
            check_letters(w, n)
        words = [reduce_word(w) for w in generators if reduce_word(w)]
        edges: list[tuple[int, int, int]] = []
        nxt = 1
        for w in words:
            cur = 0
            for i, a in enumerate(w):
                dst = 0 if i == len(w) - 1 else nxt
                if dst == nxt:
                    nxt += 1
                if a > 0:
                    edges.append((cur, a, dst))
                else:
                    edges.append((dst, -a, cur))
                cur = dst
        parent = list(range(nxt))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                if rx == find(0):
                    parent[ry] = rx
                else:
                    parent[rx] = ry

        changed = True
        while changed:
            changed = False
            table: dict[tuple[int, int], int] = {}
            for (u, a, v) in edges:
                fu, fv = find(u), find(v)
                for key, tgt in (((fu, a), fv), ((fv, -a), fu)):
                    seen = table.get(key)
                    if seen is None:
                        table[key] = tgt
                    elif find(seen) != find(tgt):
                        union(seen, tgt)
                        changed = True
        delta: dict[tuple[int, int], int] = {}
        for (u, a, v) in edges:
            fu, fv = find(u), find(v)
            delta[(fu, a)] = fv
            delta[(fv, -a)] = fu
        base = find(0)
        return cls._finish(n, base, delta)

    @classmethod
    def _finish(cls, n: int, base: int, delta: dict[tuple[int, int], int]) -> "StallingsGraph":
        """Core-trim, then canonicalize vertex numbering by BFS."""
        # restrict to the component of the basepoint
        reachable = {base}
        queue = [base]
        while queue:
            v = queue.pop()
            for a in _alphabet(n):
                w = delta.get((v, a))
                if w is not None and w not in reachable:
                    reachable.add(w)
                    queue.append(w)
        delta = {k: v for k, v in delta.items() if k[0] in reachable and v in reachable}
        # trim hanging trees
        while True:
            deg: dict[int, int] = {}
            for (v, a) in delta:
                deg[v] = deg.get(v, 0) + 1
            removable = [v for v in reachable if v != base and deg.get(v, 0) <= 1]
            if not removable:
                break
            for v in removable:
                reachable.discard(v)
            delta = {k: w for k, w in delta.items() if k[0] in reachable and w in reachable}
        # canonical renumbering
        order: dict[int, int] = {base: 0}
        queue = [base]
        while queue:
            v = queue.pop(0)
            for a in _alphabet(n):
                w = delta.get((v, a))
                if w is not None and w not in order:
                    order[w] = len(order)
                    queue.append(w)
        new_delta = {(order[v], a): order[w] for (v, a), w in delta.items()}
        return cls(n, len(order), new_delta)

    def _compute_basis(self) -> None:
        tree_edges: set[tuple[int, int, int]] = set()
        seen = {0}
        queue = [0]
        while queue:
            v = queue.pop(0)
            for a in _alphabet(self.n):
                w = self.delta.get((v, a))
                if w is not None and w not in seen:
                    seen.add(w)
                    self._tree_parent[w] = (v, a)
                    tree_edges.add((v, a, w))
                    tree_edges.add((w, -a, v))
                    queue.append(w)
        basis: list[tuple[int, int, int]] = []
        for (v, a), w in sorted(self.delta.items()):
            if a > 0 and (v, a, w) not in tree_edges:
                basis.append((v, a, w))
        self._basis_edges = basis
        # folded graphs have at most one transition per (vertex, label), so
        # each key below identifies a unique edge crossing
        self._edge_index = {}
        for idx, (v, a, w) in enumerate(basis, start=1):
            self._edge_index[(v, a)] = (idx, w)
            self._edge_index[(w, -a)] = (-idx, v)

    # -- queries -----------------------------------------------------------

    def path_from_base(self, v: int) -> Word:
        letters: list[int] = []
        while v != 0:
            u, a = self._tree_parent[v]
            letters.append(a)
            v = u
        return tuple(reversed(letters))

    @property
    def basis_words(self) -> list[Word]:
        out = []
        for (v, a, w) in self._basis_edges:
            out.append(
                reduce_word(
                    list(self.path_from_base(v)) + [a] + list(invert(self.path_from_base(w)))
                )
            )
        return out

    @property
    def rank(self) -> int:
        return len(self._basis_edges)

    def trace(self, w: Word) -> Optional[list[int]]:
        """Expression of w over the spanning-tree basis, or None if w is
        not in the subgroup. Indices are 1-based and signed."""
        cur = 0
        expr: list[int] = []
        for a in w:
            nxt = self.delta.get((cur, a))
            if nxt is None:
                return None
            hit = self._edge_index.get((cur, a))
            if hit is not None:
                # non-tree edge crossing; tree crossings contribute nothing
                expr.append(hit[0])
            cur = nxt
        if cur != 0:
            return None
        return list(reduce_word(expr))

    def complete_index(self):
        """Vertex count if every vertex carries all 2n labels, else math.inf."""
        for v in range(self.num_vertices):
            for a in _alphabet(self.n):
                if (v, a) not in self.delta:
                    return math.inf
        return self.num_vertices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StallingsGraph)
            and self.n == other.n
            and self.num_vertices == other.num_vertices
            and self.delta == other.delta
        )

    def __repr__(self) -> str:
        return f"StallingsGraph(n={self.n}, vertices={self.num_vertices}, rank={self.rank})"


def stallings(generators: Sequence[Word], n: int) -> StallingsGraph:
    return StallingsGraph.from_generators(generators, n)


def pullback(g1: StallingsGraph, g2: StallingsGraph) -> StallingsGraph:
    """Core of the basepoint component of the product graph; recognizes the
    intersection of the two subgroups."""
    if g1.n != g2.n:
        raise ValueError("pullback over different alphabets")
    n = g1.n
    ids = {(0, 0): 0}
    queue = [(0, 0)]
    delta: dict[tuple[int, int], int] = {}
    while queue:
        p = queue.pop(0)
        v1, v2 = p
        for a in _alphabet(n):
            w1 = g1.delta.get((v1, a))
            w2 = g2.delta.get((v2, a))
            if w1 is None or w2 is None:
                continue
            q = (w1, w2)
            if q not in ids:
                ids[q] = len(ids)
                queue.append(q)
            delta[(ids[p], a)] = ids[q]
    return StallingsGraph._finish(n, 0, delta)


class IndexBoundExceeded(RuntimeError):
    """Coset enumeration found more cosets than the promised index."""


def coset_graph(
    p: int,
    coset_key: Callable[[Word], Hashable],
    index_bound: int,
) -> StallingsGraph:
    """Coset graph over F_p of a finite-index subgroup H given by its coset keys.

    coset_key takes equal values on abstract words u and v exactly when
    H u = H v. Cosets are discovered breadth-first with the label order of
    `_alphabet`, which is already the canonical numbering, so the graph's
    `basis_words` are the Schreier basis of H.
    """
    reps: list[Word] = [()]
    coset_of = {coset_key(()): 0}
    table: dict[tuple[int, int], int] = {}
    i = 0
    while i < len(reps):
        for a in _alphabet(p):
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
    return StallingsGraph(p, len(reps), table)


def cover(graph: StallingsGraph, sheets: StallingsGraph) -> StallingsGraph:
    """Graph of the subgroup of <graph.basis_words> whose words, spelled over
    that basis, lie in the subgroup of F_rank that `sheets` recognizes.

    It is the cover with vertices (coset, vertex): crossing basis edge j
    moves the coset along letter j of `sheets`, and a tree edge keeps it. A
    cover of a folded graph is folded, so `_finish` only trims and renumbers.
    """
    delta: dict[tuple[Hashable, int], Hashable] = {}
    for c in range(sheets.num_vertices):
        for (v, a), w in graph.delta.items():
            hit = graph._edge_index.get((v, a))
            d = c if hit is None else sheets.delta[(c, hit[0])]
            delta[((c, v), a)] = (d, w)
    return StallingsGraph._finish(graph.n, (0, 0), delta)


def schreier_basis(
    ambient_basis: Sequence[Word],
    coset_key: Callable[[Word], Hashable],
    index_bound: int,
) -> list[Word]:
    """Free basis of a finite-index subgroup H given by its coset keys.

    coset_key speaks about abstract words over len(ambient_basis) letters and
    takes equal values on u and v exactly when H u = H v; the returned basis
    is substituted back into the actual ambient words.
    """
    out = []
    for u in coset_graph(len(ambient_basis), coset_key, index_bound).basis_words:
        word: Word = ()
        for a in u:
            g = ambient_basis[abs(a) - 1]
            word = multiply(word, g if a > 0 else invert(g))
        out.append(word)
    return out
