"""Reference algebra of Z^m x F_n, written apart from fatf.

The benchmark checks fatf's outputs with this module and builds its inputs
with it, so nothing here imports fatf. Words are tuples of nonzero ints
(i for z_i, -i for z_i^-1), vectors are tuples, matrices are tuples of row
tuples. A morphism is a ``Ref`` record acting by
t^a u -> t^(aQ + u_ab P) (u phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Word = tuple[int, ...]
Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


# ---------------------------------------------------------------------------
# words


def free_reduce(letters: Sequence[int]) -> Word:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def word_inverse(w: Word) -> Word:
    return tuple(-a for a in reversed(w))


def word_mul(*words: Word) -> Word:
    return free_reduce([a for w in words for a in w])


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Image of w under the free map z_i -> images[i-1]."""
    letters: list[int] = []
    for a in w:
        img = images[abs(a) - 1]
        letters.extend(img if a > 0 else word_inverse(img))
    return free_reduce(letters)


def abelian_image(w: Word, n: int) -> Vec:
    v = [0] * n
    for a in w:
        v[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(v)


def parse_word(text: str) -> Word:
    """Parse the wire form "z1 z2^-1" (no caret powers other than -1)."""
    letters = []
    for tok in text.split():
        if not tok.startswith("z"):
            raise ValueError(f"bad token {tok!r}")
        body, _, exp = tok[1:].partition("^")
        if exp not in ("", "-1"):
            raise ValueError(f"unexpected exponent in {tok!r}")
        letters.append(-int(body) if exp else int(body))
    if free_reduce(letters) != tuple(letters):
        raise ValueError(f"word {text!r} is not reduced")
    return tuple(letters)


def format_word(w: Word) -> str:
    return " ".join(f"z{a}" if a > 0 else f"z{-a}^-1" for a in w)


def letter_rank(a: int) -> int:
    """Position of a letter in the order z1 < z1^-1 < z2 < z2^-1 < ..."""
    return 2 * abs(a) - (2 if a > 0 else 1)


def shortlex_key(w: Word) -> tuple:
    return (len(w), tuple(letter_rank(a) for a in w))


def shortlex_words(n: int, max_len: int) -> Iterator[Word]:
    """Every reduced word of length <= max_len, in shortlex order."""
    alphabet = sorted([i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)], key=letter_rank)
    layer: list[Word] = [()]
    yield ()
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in alphabet if not (w and w[-1] == -a)]
        yield from layer


# ---------------------------------------------------------------------------
# integer vectors and matrices


def identity(k: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def zeros(r: int, c: int) -> Mat:
    return tuple((0,) * c for _ in range(r))


def vec_mat(v: Sequence[int], M: Mat, cols: int) -> Vec:
    out = [0] * cols
    for x, row in zip(v, M):
        if x:
            for j in range(cols):
                out[j] += x * row[j]
    return tuple(out)


def mat_mul(A: Mat, B: Mat, cols: int) -> Mat:
    return tuple(vec_mat(row, B, cols) for row in A)


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(A, B))


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(x + y for x, y in zip(u, v))


def mat_neg(A: Mat) -> Mat:
    return tuple(tuple(-x for x in r) for r in A)


def elementary(k: int, i: int, j: int, c: int) -> Mat:
    """Identity plus c in row i, column j (i != j); its inverse uses -c."""
    return tuple(
        tuple((1 if r == s else 0) + (c if (r, s) == (i, j) else 0) for s in range(k))
        for r in range(k)
    )


def signed_perm_matrix(targets: Sequence[int]) -> Mat:
    """Row i has sign(t_i) in column |t_i|: e_i S = sign(t_i) e_|t_i|."""
    k = len(targets)
    return tuple(
        tuple((1 if t > 0 else -1) if s == abs(t) - 1 else 0 for s in range(k)) for t in targets
    )


def signed_perm_inverse(targets: Sequence[int]) -> list[int]:
    inv = [0] * len(targets)
    for i, t in enumerate(targets, start=1):
        inv[abs(t) - 1] = i if t > 0 else -i
    return inv


def signed_perm_order(targets: Sequence[int]) -> int:
    """Order of a signed permutation: lcm over its cycles of the length,
    doubled when the signs around the cycle multiply to -1."""
    seen = set()
    order = 1
    for start in range(1, len(targets) + 1):
        if start in seen:
            continue
        length, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            t = targets[i - 1]
            sign *= 1 if t > 0 else -1
            i = abs(t)
            length += 1
        order = math.lcm(order, length * (2 if sign < 0 else 1))
    return order


def hnf_pivot(row: Sequence[int]) -> int:
    return next(j for j, x in enumerate(row) if x)


def outside_hnf_lattice(rows: Sequence[Sequence[int]], m: int) -> Vec:
    """A unit vector e_j outside the lattice of an HNF basis: j is the first
    column whose pivot is not 1 (a missing pivot counts as 0)."""
    pivots = {hnf_pivot(r): r[hnf_pivot(r)] for r in rows}
    for j in range(m):
        if pivots.get(j, 0) != 1:
            return tuple(1 if s == j else 0 for s in range(m))
    raise ValueError("the lattice is all of Z^m")


# ---------------------------------------------------------------------------
# morphisms of Z^m x F_n


@dataclass(frozen=True)
class Ref:
    """The automorphism t^a u -> t^(aQ + u_ab P) (u phi), with its free inverse."""

    m: int
    n: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    Q: Mat
    P: Mat

    def act(self, t: Vec, w: Word) -> tuple[Vec, Word]:
        shift = vec_mat(abelian_image(w, self.n), self.P, self.m)
        return vec_add(vec_mat(t, self.Q, self.m), shift), substitute(w, self.images)

    def fixes(self, t: Vec, w: Word) -> bool:
        return self.act(t, w) == (tuple(t), tuple(w))

    def abelian_matrix(self) -> Mat:
        return tuple(abelian_image(w, self.n) for w in self.images)


def compose(f: Ref, g: Ref) -> Ref:
    """f followed by g."""
    A = f.abelian_matrix()
    return Ref(
        f.m,
        f.n,
        tuple(substitute(w, g.images) for w in f.images),
        tuple(substitute(w, f.inverse_images) for w in g.inverse_images),
        mat_mul(f.Q, g.Q, f.m),
        mat_add(mat_mul(f.P, g.Q, f.m), mat_mul(A, g.P, f.m)),
    )


def ref_identity(m: int, n: int) -> Ref:
    gens = tuple((i,) for i in range(1, n + 1))
    return Ref(m, n, gens, gens, identity(m), zeros(n, m))


def letter_ref(m: int, targets: Sequence[int], S: Mat) -> Ref:
    """Letter map z_i -> z_|t_i|^sign(t_i) with abelian matrix S and P = 0."""
    n = len(targets)
    inv = signed_perm_inverse(targets)
    return Ref(m, n, tuple((t,) for t in targets), tuple((t,) for t in inv), S, zeros(n, m))


def nielsen_pair(m: int, n: int, i: int, j: int, sign: int) -> tuple[Ref, Ref]:
    """z_i -> z_i z_j^sign and its inverse, abelian parts trivial."""
    def make(s: int) -> Ref:
        imgs = tuple((k,) if k != i else (i, s * j) for k in range(1, n + 1))
        back = tuple((k,) if k != i else (i, -s * j) for k in range(1, n + 1))
        return Ref(m, n, imgs, back, identity(m), zeros(n, m))

    return make(sign), make(-sign)


def abelian_pair(m: int, n: int, E: Mat, E_inv: Mat, P: Mat) -> tuple[Ref, Ref]:
    """(id, E, P) and its inverse (id, E^-1, -P E^-1)."""
    gens = tuple((i,) for i in range(1, n + 1))
    fwd = Ref(m, n, gens, gens, E, P)
    back = Ref(m, n, gens, gens, E_inv, mat_neg(mat_mul(P, E_inv, m)))
    return fwd, back


def is_identity(f: Ref) -> bool:
    return (
        f.images == tuple((i,) for i in range(1, f.n + 1))
        and f.Q == identity(f.m)
        and not any(any(r) for r in f.P)
    )


def check_inverse(f: Ref, f_inv: Ref) -> bool:
    """Both composites are the identity, including the free inverse images."""
    return is_identity(compose(f, f_inv)) and is_identity(compose(f_inv, f)) and all(
        substitute(substitute((i,), f.images), f.inverse_images) == (i,)
        for i in range(1, f.n + 1)
    )


# ---------------------------------------------------------------------------
# uniform constants, from the totient threshold and factorial formulas


def totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def totient_threshold(m: int) -> int:
    """Largest d with totient(d) <= m; totient(d) >= sqrt(d/2) bounds the scan."""
    return max(d for d in range(1, 2 * m * m + 2) if totient(d) <= m)


def expected_constants(m: int, n: int) -> dict[str, str]:
    def L1(k: int) -> int:
        return 1 if k == 0 else totient_threshold(k) ** k

    def L3(k: int) -> int:
        return math.factorial(totient_threshold(max(k, 1)))

    free_per = 1 if n <= 1 else math.factorial(6 * n - 6)
    if n <= 1:
        C1 = L1(m + n)
    elif m == 0:
        C1 = L1(n)
    else:
        C1 = L1(n) * L1(m)
    values = {
        "m": m,
        "n": n,
        "C": totient_threshold(max(m, 1)),
        "L1": L1(m),
        "L3": L3(m),
        "free_per": free_per,
        "C1": C1,
        "C3": math.lcm(L3(m), L3(m + 1), free_per),
    }
    return {k: str(v) for k, v in values.items()}


def parse_vec(obj, length: Optional[int] = None) -> Vec:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ValueError("expected a list of decimal strings")
    v = tuple(int(x) for x in obj)
    if length is not None and len(v) != length:
        raise ValueError("vector of the wrong length")
    return v
