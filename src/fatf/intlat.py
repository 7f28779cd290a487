"""Exact integer linear algebra: matrices, lattices in Hermite normal form,
kernels, images, intersections, indices, preimages, and finite-order analysis.

Everything is arbitrary-precision; no floating point is used anywhere.
Matrices act on row vectors from the right (v -> v*M).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import add, getitem, mul, sub
from typing import Callable, Iterable, Optional, Sequence


class DimensionError(ValueError):
    """Shapes of the operands are incompatible."""


class NotSublatticeError(ValueError):
    """A lattice claimed to be contained in another is not."""


Vec = tuple[int, ...]


def _as_int(x) -> int:
    """int(x), or ValueError where int() would truncate a number."""
    i = int(x)
    if i != x and not isinstance(x, str):
        raise ValueError(f"{x!r} is not an integer")
    return i


def _as_vec(v: Iterable[int]) -> Vec:
    return tuple([_as_int(x) for x in v])


def power_by_squaring(x, k: int, mul: Callable):
    """x^k for k >= 1 and an associative mul, left to right over the bits of
    k: k.bit_length() - 1 squarings and k.bit_count() - 1 products by x."""
    result = x
    for bit in bin(k)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _row_times(v: Sequence[int], rows: Sequence[Vec], c: int) -> Vec:
    """v * M for M given by its rows. Zero entries of v are skipped and
    entries +-1 add or subtract a row, so the sparse, permutation-like
    matrices of finite-order maps cost little."""
    out = None
    for vi, row in zip(v, rows):
        if not vi:
            continue
        if out is None:
            out = row if vi == 1 else [vi * b for b in row]
        elif vi == 1:
            out = list(map(add, out, row))
        elif vi == -1:
            out = list(map(sub, out, row))
        else:
            out = [a + vi * b for a, b in zip(out, row)]
    return (0,) * c if out is None else tuple(out)


class IntMatrix:
    """Immutable integer matrix, row-major, of shape rows x cols."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = tuple([_as_vec(r) for r in entries])
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionError("ragged rows")
        else:
            if cols is None:
                raise DimensionError("empty matrix needs an explicit column count")
            w = cols
        if cols is not None and rows and w != cols:
            raise DimensionError("cols argument disagrees with row length")
        self.entries, self.rows, self.cols = rows, len(rows), w

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...], cols: int) -> "IntMatrix":
        """A matrix on rows that are already tuples of ints of length cols;
        for results built from checked matrices, so nothing is re-checked.

        Callers build each tuple from a list: tuple() of a generator grows
        the tuple by resizing, which bypasses CPython's per-size tuple free
        lists on allocation but refills them on release, so a power chain of
        (n+m)-row matrices would pin up to 2000 free tuples of each size."""
        M = object.__new__(cls)
        M.entries, M.rows, M.cols = rows, len(rows), cols
        return M

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]), n)

    @classmethod
    def zeros(cls, r: int, c: int) -> "IntMatrix":
        return cls._trusted(((0,) * c,) * r, c)

    @classmethod
    def hstack(cls, blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        if not blocks:
            raise DimensionError("hstack of nothing")
        r = blocks[0].rows
        if any(b.rows != r for b in blocks):
            raise DimensionError("hstack: row counts differ")
        return cls._trusted(
            tuple([sum((b.entries[i] for b in blocks), ()) for i in range(r)]),
            sum(b.cols for b in blocks),
        )

    def apply_row(self, v: Sequence[int]) -> Vec:
        """v * self for a row vector v of length self.rows."""
        if len(v) != self.rows:
            raise DimensionError("vector/matrix size mismatch")
        return _row_times(v, self.entries, self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError("matrix product size mismatch")
        rows, c = other.entries, other.cols
        return IntMatrix._trusted(tuple([_row_times(r, rows, c) for r in self.entries]), c)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix sum size mismatch")
        pairs = zip(self.entries, other.entries)
        return IntMatrix._trusted(
            tuple([tuple([a + b for a, b in zip(ra, rb)]) for ra, rb in pairs]), self.cols
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple([tuple([-a for a in r]) for r in self.entries]), self.cols)

    def __pow__(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise DimensionError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return IntMatrix.identity(self.rows)
        return power_by_squaring(self, k, mul)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.entries == other.entries
            and self.cols == other.cols
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"


def _row_echelon(rows: list[list[int]], cols: int) -> int:
    """In-place row reduction of the first `cols` columns to Hermite normal
    form; returns the rank r of that block.

    Row operations act on whole rows, so row-reducing [M | I] with
    cols = M.cols leaves [H | U] with U * M = H. H is in row HNF (positive
    pivots, entries above a pivot reduced into [0, pivot)), its r nonzero
    rows first; no elimination takes place inside the columns past `cols`.
    """
    m = len(rows)
    r = 0
    for j in range(cols):
        if r == m:
            break
        # gcd-eliminate below position r in column j
        while True:
            nz = [i for i in range(r, m) if rows[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][j]))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
            if len(nz) == 1:
                break
            top = rows[r]
            p = top[j]
            for i in range(r + 1, m):
                q = rows[i][j] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], top)]
        if rows[r][j] != 0:
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
            top = rows[r]
            p = top[j]
            for i in range(r):
                q = rows[i][j] // p
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], top)]
            r += 1
    return r


def _with_transform(M: IntMatrix) -> tuple[list[list[int]], list[list[int]], int]:
    """(H, U, r) with U unimodular, U * M = H in HNF and r = rank M, read off
    the row reduction of [M | I]."""
    c, m = M.cols, M.rows
    aug = [list(row) + [0] * m for row in M.entries]
    for i in range(m):
        aug[i][c + i] = 1
    r = _row_echelon(aug, c)
    return [row[:c] for row in aug], [row[c:] for row in aug], r


class Lattice:
    """Sublattice of Z^d given by a canonical HNF basis (rows); `pivots` holds
    the column of each row's leading entry."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: IntMatrix):
        """The lattice of the rows of `basis`, which must be in HNF: nonzero
        rows with positive leading entries (pivots) in strictly increasing
        columns, and the entries above each pivot p in [0, p)."""
        if basis.cols != ambient:
            raise DimensionError("basis width disagrees with ambient dimension")
        rows = basis.entries
        pivots: list[int] = []
        for i, row in enumerate(rows):
            j = next((j for j, a in enumerate(row) if a), None)
            if j is None:
                raise ValueError("a lattice basis row is zero")
            if pivots and j <= pivots[-1]:
                raise ValueError("lattice basis pivots are not in strictly increasing columns")
            p = row[j]
            if p < 0:
                raise ValueError("a lattice basis pivot is negative")
            if not all(0 <= above[j] < p for above in rows[:i]):
                raise ValueError("an entry above a lattice basis pivot is outside [0, pivot)")
            pivots.append(j)
        self.ambient, self.basis, self.pivots = ambient, basis, tuple(pivots)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ambient: int) -> "Lattice":
        mat = [[_as_int(x) for x in r] for r in rows]
        for r in mat:
            if len(r) != ambient:
                raise DimensionError("row width disagrees with ambient dimension")
        r = _row_echelon(mat, ambient)
        return cls(ambient, IntMatrix._trusted(tuple([tuple(row) for row in mat[:r]]), ambient))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def reduce(self, v: Sequence[int]) -> tuple[Vec, Vec]:
        """(coords, residue) with v = coords * basis + residue.

        Back-substitution with floor division puts each pivot entry of the
        residue into [0, pivot), so every vector of the coset v + L has the
        same residue, and v lies in L exactly when the residue is zero.
        """
        if len(v) != self.ambient:
            raise DimensionError("vector dimension mismatch")
        res = list(map(int, v))
        xs = []
        for row, j in zip(self.basis.entries, self.pivots):
            q = res[j] // row[j]
            xs.append(q)
            if q:
                for t in range(j, self.ambient):
                    res[t] -= q * row[t]
        return tuple(xs), tuple(res)

    def shift(self, r: Vec, a: int) -> Vec:
        """The residue of r + e_a, for r a residue of `reduce` and a a signed
        1-based column index, with e_-j = -e_j as a letter abelianizes.

        Rows with pivots before column |a| keep r's entries in range, and
        until a row moves the vector only column |a| has changed, so the
        first zero quotient ends the reduction: a free column, or an entry
        that stays in [0, pivot), costs none."""
        j = abs(a) - 1
        res = list(r)
        res[j] += 1 if a > 0 else -1
        rows, pivots = self.basis.entries, self.pivots
        moved = False
        for i in range(bisect_left(pivots, j), len(pivots)):
            row, p = rows[i], pivots[i]
            q = res[p] // row[p]
            if q:
                moved = True
                for t in range(p, self.ambient):
                    res[t] -= q * row[t]
            elif not moved:
                break
        return tuple(res)

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v lies in the lattice: `reduce`'s residue is zero."""
        return not any(self.reduce(v)[1])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Lattice({self.ambient}, {[list(r) for r in self.basis.entries]!r})"


def hnf(M: IntMatrix) -> Lattice:
    """Canonical HNF row lattice of M."""
    return Lattice.from_rows(M.entries, M.cols)


def left_solver(M: IntMatrix) -> tuple[Lattice, Lattice, Callable[[Sequence[int]], Optional[Vec]]]:
    """(image, kernel, solve) from one row reduction of M: image = hnf(M),
    kernel = {v in Z^rows : v*M = 0}, and solve(b) the deterministic x with
    x*M = b over Z, or None. Free coordinates (rows of the HNF with no pivot)
    are set to zero."""
    H, U, r = _with_transform(M)
    image = Lattice(M.cols, IntMatrix._trusted(tuple([tuple(row) for row in H[:r]]), M.cols))

    def solve(b: Sequence[int]) -> Optional[Vec]:
        y, res = image.reduce(b)
        return None if any(res) else _row_times(y, U[:r], M.rows)

    return image, Lattice.from_rows(U[r:], M.rows), solve


def kernel_lattice(M: IntMatrix) -> Lattice:
    """{v in Z^rows : v*M = 0} as a lattice in Z^rows."""
    return left_solver(M)[1]


def lattice_intersect(L1: Lattice, L2: Lattice) -> Lattice:
    if L1.ambient != L2.ambient:
        raise DimensionError("intersecting lattices of different ambient dimension")
    return lattice_preimage(L1, IntMatrix.identity(L1.ambient), L2)


def lattice_index(sub: Lattice, sup: Lattice):
    """[sup : sub]; math.inf when the ranks differ.

    Nested lattices of equal rank span the same rational space, so their
    HNFs have the same pivot columns; on those columns both bases are
    triangular, and the index is the ratio of their pivot products."""
    if sub.ambient != sup.ambient:
        raise DimensionError("lattices of different ambient dimension")
    if not all(map(sup.contains, sub.basis.entries)):
        raise NotSublatticeError("first lattice is not contained in the second")
    if sub.rank != sup.rank:
        return math.inf
    num, den = (math.prod(map(getitem, L.basis.entries, L.pivots)) for L in (sub, sup))
    return num // den


def lattice_preimage(domain: Lattice, M: IntMatrix, target: Lattice) -> Lattice:
    """{v in domain : v*M in target}, canonical."""
    if M.rows != domain.ambient or M.cols != target.ambient:
        raise DimensionError("preimage dimensions are inconsistent")
    mapped = tuple([M.apply_row(r) for r in domain.basis.entries])
    stacked = IntMatrix._trusted(mapped + target.basis.entries, target.ambient)
    ker = kernel_lattice(stacked)
    r = domain.rank
    rows = [domain.basis.apply_row(k[:r]) for k in ker.basis.entries]
    return Lattice.from_rows(rows, domain.ambient)


def solve_left(M: IntMatrix, b: Sequence[int]) -> Optional[Vec]:
    """Deterministic x with x*M = b over Z, or None: `left_solver`'s solve."""
    if len(b) != M.cols:
        raise DimensionError("right-hand side has the wrong length")
    return left_solver(M)[2](b)


def matrix_inverse(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    if M.rows != M.cols:
        raise DimensionError("inverse of a non-square matrix")
    H, U, r = _with_transform(M)
    if r != M.rows or any(H[i][i] != 1 for i in range(M.rows)):
        raise ValueError("matrix is not unimodular")
    return IntMatrix._trusted(tuple([tuple(row) for row in U]), M.rows)


# ---------------------------------------------------------------------------
# finite-order analysis


def charpoly(Q: IntMatrix) -> list[int]:
    """Coefficients of det(xI - Q), ascending degree, exact and division-free
    (Berkowitz, Inf. Process. Lett. 18, 1984).

    Step r borders the leading r x r block B with the column S above the
    diagonal, the row R left of it and the corner q. The characteristic
    polynomial of the bordered block is the lower-triangular Toeplitz matrix
    with first column (1, -q, -R S, -R B S, ..., -R B^(r-1) S) times that of
    B; each term costs one vector product with B.
    """
    if Q.rows != Q.cols:
        raise DimensionError("characteristic polynomial of a non-square matrix")
    a = Q.entries
    poly = [1]  # descending degree
    for r in range(Q.rows):
        # map() stops at its shorter argument, v of length r, so the first
        # r rows of Q serve as the rows of B and row r as R
        block, R = a[:r], a[r]
        v = [row[r] for row in block]
        col = [1, -R[r]]
        for j in range(r):
            col.append(-sum(map(mul, R, v)))
            if j + 1 < r:
                v = [sum(map(mul, row, v)) for row in block]
        poly = [
            sum(col[i - j] * poly[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly[::-1]


def _poly_divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Divide a by monic b over Z; returns (quotient, remainder)."""
    if b[-1] != 1:
        raise ValueError("the divisor is not monic")
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending degree."""
    if d == 1:
        return (-1, 1)
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod_monic(poly, list(cyclotomic(e)))
            if rem != [0]:
                raise ArithmeticError(f"Phi_{e} does not divide x^{d} - 1")
    return tuple(poly)


def totient_at_most(m: int) -> list[int]:
    """All d with Euler's phi(d) <= m, the possible orders of a root-of-unity
    eigenvalue of an m x m integer matrix; empty at m = 0.

    Each d is built once, from its factorization, as a product of prime
    powers p^k with p <= m + 1 (as p - 1 divides phi(d)).
    """
    out = [(1, 1)]  # (d, phi(d))
    for p in range(2, m + 2):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        grown = []
        for d, f in out:
            q, fq = p, p - 1
            while f * fq <= m:
                grown.append((d * q, f * fq))
                q, fq = q * p, fq * p
        out += grown
    return [d for d, f in out if f <= m]  # drops d = 1 at m = 0


def cyclotomic_split(Q: IntMatrix) -> tuple[int, list[int]]:
    """(s, rest): the factors Phi_d of chi(Q) divided out with multiplicity,
    s the lcm of their orders d (1 when there are none) and rest the factor
    left, ascending degree: [1] exactly when every eigenvalue is a root of 1."""
    chi = charpoly(Q)
    s = 1
    for d in totient_at_most(Q.rows):
        phi_d = list(cyclotomic(d))
        quotient, rem = _poly_divmod_monic(chi, phi_d)
        while rem == [0]:
            chi, s = quotient, math.lcm(s, d)
            quotient, rem = _poly_divmod_monic(chi, phi_d)
    return s, chi


def power_bits(Q: IntMatrix, e: int) -> int:
    """An estimate of the bits by which entries of Q^e outgrow those of Q:
    e log2 B, with B = 1 + max |c_i| the Cauchy bound on the roots of the
    factor of chi(Q) that `cyclotomic_split` leaves, rounded up to a power
    of 2. It is 0 when chi(Q) is all cyclotomic: every eigenvalue is then a
    root of unity and entries grow at most polynomially in e."""
    rest = cyclotomic_split(Q)[1]
    return e * max(map(abs, rest[:-1]), default=0).bit_length()


def unity_exponent(Q: IntMatrix) -> int:
    """Least s with Per Q = Fix Q^s: lcm of the orders of the root-of-unity
    eigenvalues of Q (1 when there are none)."""
    return cyclotomic_split(Q)[0]


def matrix_order(Q: IntMatrix):
    """Least k >= 1 with Q^k = I, or math.inf.

    A finite-order integer matrix is diagonalizable with root-of-unity
    eigenvalues, so its order equals the lcm s of their orders. An eigenvalue
    off the unit roots (chi(Q) not all cyclotomic) settles infiniteness with
    no power; otherwise the one power Q^s settles it.
    """
    if Q.rows != Q.cols:
        raise DimensionError("order of a non-square matrix")
    s, rest = cyclotomic_split(Q)
    return s if len(rest) == 1 and (Q ** s).is_identity() else math.inf
