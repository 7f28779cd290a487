"""Shared random object builders for the test suite.

Finite-order inputs are built by conjugating letter-permutation data, which
keeps exact fixed bases and exact orders available for checking.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Sequence

from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism, SubgroupBasis, fix_tuple, inv, member, mul
from fatf import freewords
from fatf import morphisms as morphisms_mod
from fatf.fixpoint import CertificateError
from fatf.freewords import Word, alphabet, check_letters, invert, reduce_word
from fatf.intlat import DimensionError, Lattice, NotSublatticeError, cyclotomic, matrix_inverse
from fatf.oracle import MAX_ENUMERATION, Bounds, reduced_words


def random_word(rng: random.Random, n: int, max_len: int) -> Word:
    out: list[int] = []
    for _ in range(rng.randint(0, max_len)):
        choices = [a for a in range(-n, n + 1) if a and (not out or a != -out[-1])]
        if not choices:
            break
        out.append(rng.choice(choices))
    return tuple(out)


def random_signed_targets(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return [p if rng.random() < 0.5 else -p for p in perm]


def letter_map(targets: Sequence[int]) -> FreeMap:
    """z_i -> z_|t_i|^sign(t_i) for a signed permutation t."""
    back = [0] * len(targets)
    for i, t in enumerate(targets, start=1):
        back[abs(t) - 1] = i if t > 0 else -i
    return FreeMap([(t,) for t in targets], [(t,) for t in back], len(targets))


def nielsen(i: int, j: int, sign: int, n: int) -> FreeMap:
    """z_i -> z_i z_j^sign, other generators fixed."""
    fwd = [(k,) if k != i else (i, sign * j) for k in range(1, n + 1)]
    bwd = [(k,) if k != i else (i, -sign * j) for k in range(1, n + 1)]
    return FreeMap(fwd, bwd, n)


def ia_map() -> FreeMap:
    """K12 K23 K31 on F_3, K_ij: z_i -> z_j z_i z_j^-1 (the rest fixed): its
    abelianization is the identity, yet it has infinite order."""
    def K(i: int, j: int) -> FreeMap:
        fwd = [(k,) if k != i else (j, i, -j) for k in range(1, 4)]
        bwd = [(k,) if k != i else (-j, i, j) for k in range(1, 4)]
        return FreeMap(fwd, bwd, 3)

    return K(1, 2).compose(K(2, 3)).compose(K(3, 1))


def inner(ambient: Ambient, u: Word) -> Morphism:
    """Conjugation w -> u^-1 w u; the abelian part is central and unmoved."""
    ui = invert(u)
    n = ambient.n
    phi = FreeMap(
        [reduce_word(ui + (k,) + u) for k in range(1, n + 1)],
        [reduce_word(u + (k,) + ui) for k in range(1, n + 1)],
        n,
    )
    return Morphism(ambient, phi, IntMatrix.identity(ambient.m), IntMatrix.zeros(n, ambient.m))


def bounded_products(gens: Sequence[GroupElement], ambient: Ambient, depth: int) -> set[GroupElement]:
    """Products of at most `depth` generators and their inverses."""
    seen = {GroupElement(ambient, (0,) * ambient.m, ())}
    for _ in range(depth):
        seen |= {mul(g, s) for g in seen for t in gens for s in (t, inv(t))}
    return seen


def signed_perm_matrix(targets: list[int]) -> IntMatrix:
    n = len(targets)
    rows = [[0] * n for _ in range(n)]
    for i, t in enumerate(targets):
        rows[i][abs(t) - 1] = 1 if t > 0 else -1
    return IntMatrix(rows, cols=n)


def random_unimodular(rng: random.Random, m: int, steps: int = 4) -> IntMatrix:
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(steps if m >= 2 else 0):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = rng.choice([-1, 1])
        for t in range(m):
            U[i][t] += c * U[j][t]
    return IntMatrix(U, cols=m)


def random_finite_order_matrix(rng: random.Random, m: int) -> IntMatrix:
    """Unimodular conjugate of a signed permutation matrix."""
    if m == 0:
        return IntMatrix.identity(0)
    S = signed_perm_matrix(random_signed_targets(rng, m))
    U = random_unimodular(rng, m)
    return matrix_inverse(U) * S * U


def random_free_aut(rng: random.Random, n: int, steps: int = 3) -> FreeMap:
    """Composition of letter maps and at most `steps` elementary maps."""
    out = letter_map(random_signed_targets(rng, n))
    for _ in range(steps if n >= 2 else 0):
        i = rng.randrange(1, n + 1)
        j = rng.choice([t for t in range(1, n + 1) if t != i])
        out = out.compose(nielsen(i, j, rng.choice([-1, 1]), n))
    return out


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 2) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def random_morphism(rng: random.Random, ambient: Ambient, invertible: bool = True) -> Morphism:
    phi = random_free_aut(rng, ambient.n)
    Q = random_unimodular(rng, ambient.m) if invertible else random_matrix(
        rng, ambient.m, ambient.m
    )
    P = random_matrix(rng, ambient.n, ambient.m)
    return Morphism(ambient, phi, Q, P)


def random_finite_order_morphism(
    rng: random.Random, ambient: Ambient
) -> tuple[Morphism, list[Word], int]:
    """(psi, fixed free-basis of its free part, exact order).

    Built as a conjugate of a letter-data morphism, so both the order and
    the fixed basis transport exactly.
    """
    m, n = ambient.m, ambient.n
    targets = random_signed_targets(rng, n)
    phi0 = letter_map(targets)
    S = signed_perm_matrix(random_signed_targets(rng, m)) if m else IntMatrix.identity(0)
    psi0 = Morphism(ambient, phi0, S, IntMatrix.zeros(n, m))
    theta = random_morphism(rng, ambient, invertible=True)
    psi = morphisms_mod.compose(
        morphisms_mod.compose(morphisms_mod.invert(theta), psi0), theta
    )
    # a signed-permutation map fixes a reduced word iff it fixes each letter
    base = [(i,) for i, t in enumerate(targets, 1) if t == i]
    basis = [theta.phi.apply(w) for w in base]
    order0 = morphisms_mod.order(psi0)
    return psi, basis, int(order0)


def reference_apply(f: FreeMap, w: Word) -> Word:
    """phi(w) by substituting the image of each letter, inverted for a
    negative letter, then reducing: the reference for `FreeMap.apply`."""
    letters: list[int] = []
    for a in w:
        letters += f.images[a - 1] if a > 0 else invert(f.images[-a - 1])
    return reduce_word(letters)


def random_element(rng: random.Random, ambient: Ambient, max_len: int = 4, bound: int = 3) -> GroupElement:
    t = tuple(rng.randint(-bound, bound) for _ in range(ambient.m))
    return GroupElement(ambient, t, random_word(rng, ambient.n, max_len))


def equal_by_membership(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    """Subgroup equality decided by two-way membership of basis elements,
    the reference that `==` on SubgroupBasis is checked against."""
    return all(member(K, g) for g in H.basis_elements()) and all(
        member(H, g) for g in K.basis_elements()
    )


# -- reference Stallings pipeline ---------------------------------------------
# The fixpoint fold, trim loop and BFS spanning tree that `freewords.stallings`
# replaced, kept unchanged as the reference it is tested against. A graph is
# (num_vertices, delta, basis_words).


def reference_stallings(generators, n):
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
    return reference_finish(n, base, delta)


def reference_finish(n, base, delta):
    """Core-trim, then canonicalize vertex numbering by BFS."""
    # restrict to the component of the basepoint
    reachable = {base}
    queue = [base]
    while queue:
        v = queue.pop()
        for a in alphabet(n):
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
        for a in alphabet(n):
            w = delta.get((v, a))
            if w is not None and w not in order:
                order[w] = len(order)
                queue.append(w)
    new_delta = {(order[v], a): order[w] for (v, a), w in delta.items()}
    return len(order), new_delta, _reference_basis_words(n, new_delta)


def _reference_basis_words(n, delta):
    tree_parent: dict[int, tuple[int, int]] = {}
    tree_edges: set[tuple[int, int, int]] = set()
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for a in alphabet(n):
            w = delta.get((v, a))
            if w is not None and w not in seen:
                seen.add(w)
                tree_parent[w] = (v, a)
                tree_edges.add((v, a, w))
                tree_edges.add((w, -a, v))
                queue.append(w)
    basis: list[tuple[int, int, int]] = []
    for (v, a), w in sorted(delta.items()):
        if a > 0 and (v, a, w) not in tree_edges:
            basis.append((v, a, w))

    def path_from_base(v: int) -> Word:
        letters: list[int] = []
        while v != 0:
            u, a = tree_parent[v]
            letters.append(a)
            v = u
        return tuple(reversed(letters))

    out = []
    for (v, a, w) in basis:
        out.append(
            reduce_word(list(path_from_base(v)) + [a] + list(invert(path_from_base(w))))
        )
    return out


def delta_of(graph: freewords.StallingsGraph):
    """The edge table of graph as the transitions delta[(v, a)] = w that the
    reference pipeline builds."""
    return {(v, a): w for v, row in enumerate(graph.edges) for a, w in row.items()}


def as_reference(graph: freewords.StallingsGraph):
    return graph.num_vertices, delta_of(graph), graph.basis_words


def edges_of(delta):
    """The step of `StallingsGraph` for the transitions delta[(v, a)] = w:
    each vertex's edges, by letter, in delta's order. Only the tests that
    hand-build a delta need it; a built graph's step is graph.edges.__getitem__."""
    out: dict = {}
    for (v, a), w in delta.items():
        out.setdefault(v, {})[a] = w
    return lambda v: out.get(v, {})


def reference_from_words(ambient, free_part, abelian_part) -> SubgroupBasis:
    """`SubgroupBasis.from_words` by one fold and the vectors T^-1 A, T the
    abelianized traces of the words over the graph's basis."""
    words = [reduce_word(u, ambient.n) for _, u in free_part]
    if not all(words):
        raise ValueError("identity word in the free part of a basis")
    graph = freewords.stallings(words, ambient.n)
    r = len(words)
    if graph.rank != r:
        raise ValueError("free part words are not a free basis")
    T = IntMatrix([freewords.abelianize(graph.trace(u), r) for u in words], cols=r)
    A = IntMatrix([a for a, _ in free_part], cols=ambient.m)
    return SubgroupBasis(ambient, graph, (matrix_inverse(T) * A).entries, abelian_part)


# -- reference certificate ----------------------------------------------------
# The word-level check that `fixpoint._certify` replaced by a check on the
# answer graph: every map is applied to every basis element, kept unchanged as
# the reference it is tested against.


def reference_certify(maps: Sequence[Morphism], basis: SubgroupBasis, error: type = CertificateError) -> None:
    """Raise `error` unless every map fixes every basis element."""
    for g in basis.basis_elements():
        for psi in maps:
            if morphisms_mod.apply(psi, g) != g:
                raise error("computed basis element not fixed")


# -- reference closure --------------------------------------------------------
# The word-level `fixpoint.autofixed_closure` that the graph checks replaced:
# the input check applies every stabilizer generator to every basis element
# of H, and containment traces every basis element of H through the answer.


def reference_contains(H: SubgroupBasis, K: SubgroupBasis) -> bool:
    """Whether K is a subgroup of H, by membership of K's basis elements."""
    return all(member(H, g) for g in K.basis_elements())


def reference_autofixed_closure(H: SubgroupBasis, stab_gens):
    """ValueError unless every generator fixes H; CertificateError unless
    the fixed subgroup contains H."""
    reference_certify(stab_gens.morphisms, H, ValueError)
    result = fix_tuple(stab_gens)
    if result.basis is not None and not reference_contains(result.basis, H):
        raise CertificateError("closure must contain the subgroup")
    return result


# -- reference projection vector ----------------------------------------------
# `SubgroupBasis.projection_word_vector` as it was: the rank-length
# abelianization of the trace, zipped with every vector.


def reference_projection_word_vector(H: SubgroupBasis, w: Word):
    expr = H.graph.trace(w)
    if expr is None:
        return None
    exps = freewords.abelianize(expr, H.rank)
    pairs = [(c, a) for c, a in zip(exps, H.vectors) if c]
    return tuple(sum(c * a[i] for c, a in pairs) for i in range(H.ambient.m))


def reference_member(H: SubgroupBasis, g: GroupElement) -> bool:
    """Membership element by element: the word traces to some v with t^v w
    in H, and t - v lies in the abelian part."""
    v = reference_projection_word_vector(H, g.w)
    return v is not None and H.abelian_part.contains(tuple(x - y for x, y in zip(g.t, v)))


# -- reference totients --------------------------------------------------------
# The sieve and the scan up to 2m^2 + 1 that `intlat.totient_at_most` and
# `bounds.phi_threshold` replaced, kept as the reference they are tested
# against.


def reference_totients(top: int) -> list[int]:
    """Euler's totient of 0, 1, ..., top by a sieve (entry 0 is 0):
    phi(d) = d * prod (1 - 1/p) over the primes p dividing d."""
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p
    return phi


@functools.lru_cache(maxsize=None)
def reference_thresholds(top_m: int) -> tuple[int, ...]:
    """Entry m, for 1 <= m <= top_m, is the largest d with phi(d) <= m, by a
    scan of d <= 2m^2 + 1 (exhaustive, as phi(d) >= sqrt(d/2)); entry 0 is 0."""
    phi = reference_totients(2 * top_m * top_m + 1)
    return (0,) + tuple(
        max(d for d in range(1, 2 * m * m + 2) if phi[d] <= m) for m in range(1, top_m + 1)
    )


# -- companion matrices --------------------------------------------------------


def companion(f) -> list[list[int]]:
    """Companion matrix (acting on rows) of the monic polynomial f, ascending."""
    d = len(f) - 1
    rows = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d - 1)]
    return rows + [[-c for c in f[:d]]]


def block_diagonal(blocks) -> IntMatrix:
    m = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for r in b:
            rows.append([0] * at + list(r) + [0] * (m - at - len(r)))
        at += len(b)
    return IntMatrix(rows, cols=m)


def slow_infinite_order_matrix() -> IntMatrix:
    """m = 38: a unimodular conjugate of the companions of Phi_4, Phi_3,
    Phi_5, Phi_7, Phi_11 and Phi_13, whose orders have lcm s = 60,060, and of
    [[2, 1], [1, 1]], whose eigenvalues (3 +- sqrt 5)/2 are no roots of
    unity. Q^s has entries of about 83,000 bits, so deciding ord Q = inf by
    that power takes seconds."""
    blocks = [companion(list(cyclotomic(d))) for d in (4, 3, 5, 7, 11, 13)] + [[[2, 1], [1, 1]]]
    C = block_diagonal(blocks)
    U = random_unimodular(random.Random(38), C.rows, steps=160)
    return matrix_inverse(U) * C * U


# -- reference matrix product ---------------------------------------------------


def reference_product(X: IntMatrix, Y: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """The entries of X * Y by the triple loop, every entry read."""
    assert X.cols == Y.rows
    return tuple(
        tuple(sum(X.entries[i][k] * Y.entries[k][j] for k in range(X.cols)) for j in range(Y.cols))
        for i in range(X.rows)
    )


def reference_power(M: IntMatrix, k: int) -> tuple[tuple[int, ...], ...]:
    """The entries of M^k by `reference_product`, right to left over the
    bits of k, which is not the ladder `IntMatrix.__pow__` runs."""
    result, square = IntMatrix.identity(M.rows), M
    while k:
        if k & 1:
            result = IntMatrix(reference_product(result, square), cols=M.cols)
        k >>= 1
        if k:
            square = IntMatrix(reference_product(square, square), cols=M.cols)
    return result.entries


# -- reference characteristic polynomial --------------------------------------
# Faddeev-LeVerrier, the method `intlat.charpoly` used before the
# division-free one, kept as the reference it is tested against.


def reference_charpoly(Q: IntMatrix) -> list[int]:
    """Coefficients of det(xI - Q), ascending degree: M_1 = Q and
    c_k = -tr(M_k) / k, M_(k+1) = Q (M_k + c_k I); each division is exact."""
    m = Q.rows
    coeffs = [1]  # descending degree
    M = IntMatrix.identity(m)
    for k in range(1, m + 1):
        M = Q * M
        t = sum(M.entries[i][i] for i in range(m))
        assert t % k == 0
        c = -(t // k)
        coeffs.append(c)
        M = M + IntMatrix([[c if i == j else 0 for j in range(m)] for i in range(m)], cols=m)
    return coeffs[::-1]


# -- reference lattice algebra ------------------------------------------------
# The HNF elimination with a separate transform U that `intlat` replaced by
# row-reducing [M | I], kept unchanged as the reference it is tested against.


def reference_row_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """In-place HNF row reduction with a unimodular transform.

    Returns (H, U, pivot_cols) with U * input = H; H is in row Hermite normal
    form (positive pivots, entries above a pivot reduced into [0, pivot)),
    nonzero rows first.
    """
    m = len(rows)
    ncols = len(rows[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    pivot_cols: list[int] = []
    for j in range(ncols):
        # gcd-eliminate below position r in column j
        while True:
            nz = [i for i in range(r, m) if rows[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][j]))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                U[r], U[i0] = U[i0], U[r]
            if len(nz) == 1:
                break
            p = rows[r][j]
            for i in range(r + 1, m):
                if rows[i][j]:
                    q = rows[i][j] // p
                    if q:
                        for t in range(ncols):
                            rows[i][t] -= q * rows[r][t]
                        for t in range(m):
                            U[i][t] -= q * U[r][t]
        if r < m and rows[r][j] != 0:
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
                U[r] = [-x for x in U[r]]
            p = rows[r][j]
            for i in range(r):
                q = rows[i][j] // p
                if q:
                    for t in range(ncols):
                        rows[i][t] -= q * rows[r][t]
                    for t in range(m):
                        U[i][t] -= q * U[r][t]
            pivot_cols.append(j)
            r += 1
            if r == m:
                break
    return rows, U, pivot_cols


# -- reference lattice index --------------------------------------------------
# The coordinate-matrix route that `intlat.lattice_index` replaced by the ratio
# of the pivot products, kept unchanged as the reference it is tested against.


def reference_lattice_index(sub: Lattice, sup: Lattice):
    """[sup : sub] as the product of the diagonal of the HNF of the
    coordinates of sub's basis over sup's; math.inf when the ranks differ."""
    if sub.ambient != sup.ambient:
        raise DimensionError("lattices of different ambient dimension")
    coords = []
    for row in sub.basis.entries:
        c, res = sup.reduce(row)
        if any(res):
            raise NotSublatticeError("first lattice is not contained in the second")
        coords.append(c)
    if sub.rank != sup.rank:
        return math.inf
    H = Lattice.from_rows(coords, sup.rank)
    idx = 1
    for i, row in enumerate(H.basis.entries):
        idx *= row[i]
    return idx


# -- reference oracle ---------------------------------------------------------
# The exhaustive `brute_fixed` that the meet-in-the-middle join replaced: it
# applies every map to every reduced word of length <= L and tries every
# vector of the box, kept unchanged as the reference it is tested against.


def reference_brute_fixed(maps: Sequence[Morphism], bounds: Bounds) -> list[GroupElement]:
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
        for a in itertools.product(range(-bounds.coord_abs_max, bounds.coord_abs_max + 1), repeat=m):
            ok = True
            for psi, s in zip(maps, shifts):
                aq = psi.Q.apply_row(a)
                if any(aq[i] + s[i] != a[i] for i in range(m)):
                    ok = False
                    break
            if ok:
                out.append(GroupElement(ambient, a, w))
    return out
