"""Fixed subgroups of tuples of automorphisms of Z^m x F_n.

The free parts of the fixed subgroups of the underlying free-group maps are
trusted inputs (computing them in general needs train-track machinery); this
module handles everything on top: the abelian constraints, finite
generation, bases, periodic subgroups and auto-fixed closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import freewords, morphisms
from .fatfcore import Ambient, SubgroupBasis, _check_same, subgroup_contains
from .freewords import Word, reduce_word
from .intlat import (
    IntMatrix,
    Lattice,
    lattice_index,
    lattice_preimage,
    left_solver,
    power_bits,
    unity_exponent,
)
from .morphisms import FreeMap, Morphism


class InvalidFixInput(ValueError):
    """The supplied fixed free-bases fail verification."""


class CertificateError(RuntimeError):
    """A computed answer failed its runtime certificate check."""


class BudgetExceeded(ValueError):
    """The answer's graph would have more than MAX_COVER_VERTICES vertices, or
    Q^e would outgrow Q by more than MAX_POWER_BITS bits."""


# Most vertices fix_tuple gives its answer's graph, the cover with ell vertices
# over each vertex of the fixed-basis graph. At the budget the F_2 family
# phi = id, Q = [[ell+2, 1], [-1, 0]], P = I (ell = 1024) takes 11-22 ms on
# Python 3.11 (best of 3, shared 2-core machine), and is_autofixed of that
# answer 17-33 ms, as it checks and contains H on the graphs. Its basis has
# 526,336 letters, spelled only when the answer is read: the JSON of `fix`
# takes about 0.2 s more.
MAX_COVER_VERTICES = 1024

# Most bits by which fix_power lets Q^e outgrow Q, as estimated from bounds on
# the eigenvalues of Q (`intlat.power_bits`): the 4,300 decimal digits past
# which the CLI refuses to write an integer. The largest `per` case under it, the m = 32 conjugate of the
# companions of Phi_4, Phi_3, Phi_5, Phi_7, Phi_17 and x^2 - 3x + 1 (e = 7,140,
# 14,280 bits), takes 3.0 s end to end on Python 3.11. The estimate is made
# before any power: `per` on the m = 38 payload of
# tests/conftest.py::slow_infinite_order_matrix (e = 60,060, 120,120 bits)
# exits 2 in 0.14 s, where the power alone took 106 s. With P = 0 that
# payload's answer is small, so the budget refuses a computable answer.
MAX_POWER_BITS = 14_284


@dataclass(frozen=True)
class FixInput:
    morphisms: tuple[Morphism, ...]
    fixed_free_bases: tuple[tuple[Word, ...], ...]
    # the Stallings graph of the intersection of the bases' subgroups, from
    # the folds of the rank checks: fix_tuple covers it, and its certificate
    # maps the answer into it
    graph: freewords.StallingsGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.morphisms:
            raise InvalidFixInput("need at least one morphism")
        if len(self.morphisms) != len(self.fixed_free_bases):
            raise InvalidFixInput("need one fixed free-basis per morphism")
        ambient = self.morphisms[0].ambient
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        bases, folds = [], []
        n = ambient.n
        for psi, basis in zip(self.morphisms, self.fixed_free_bases):
            _check_same(ambient, psi.ambient)
            # a FreeMap is built only with inverse images that undo it, so they
            # prove an automorphism; otherwise a map of F_n is onto, hence an
            # automorphism (F_n is Hopfian), exactly when its images fold to
            # the one-vertex rose of rank n
            if psi.phi.inverse_images is None:
                rose = freewords.stallings(psi.phi.images, n)
                if rose.num_vertices != 1 or rose.rank != n:
                    raise InvalidFixInput("a free map is not an automorphism: its images do not generate F_n")
            # rank Fix(phi) <= n for every automorphism (Bestvina-Handel 1992)
            if len(basis) > n:
                raise InvalidFixInput(f"a fixed free-basis has more than n = {n} words")
            words = tuple(reduce_word(w, n) for w in basis)
            for w in words:
                if psi.phi.apply(w) != w:
                    raise InvalidFixInput(
                        f"word {freewords.format_word(w)!r} is not fixed by its map"
                    )
            fold = freewords.stallings(words, n)
            if fold.rank != len(words):
                raise InvalidFixInput("a fixed free-basis is not a free basis")
            # the identity fixes all of F_n, so its basis must fold to the rose
            if psi.phi.is_identity() and (fold.num_vertices != 1 or fold.rank != n):
                raise InvalidFixInput("the fixed free-basis of an identity map does not generate F_n")
            bases.append(words)
            folds.append(fold)
        object.__setattr__(self, "fixed_free_bases", tuple(bases))
        graph = folds[0]
        for other in folds[1:]:
            graph = freewords.pullback(graph, lambda v, a: other.delta.get((v, a)), 0)
        object.__setattr__(self, "graph", graph)

    @property
    def ambient(self) -> Ambient:
        return self.morphisms[0].ambient


@dataclass(frozen=True)
class FixDiagnostics:
    im_rho: Lattice
    im_P: Lattice
    M: Lattice
    N: Lattice
    preimage: Optional[Lattice]
    ell: object  # int or math.inf


@dataclass(frozen=True)
class FixResult:
    basis: Optional[SubgroupBasis]
    diagnostics: FixDiagnostics

    @property
    def finitely_generated(self) -> bool:
        return self.basis is not None


def fix_tuple(inp: FixInput) -> FixResult:
    ambient = inp.ambient
    m, n = ambient.m, ambient.n
    k = len(inp.morphisms)

    graph = inp.graph

    eye = IntMatrix.identity(m)
    Qt = IntMatrix.hstack([eye - psi.Q for psi in inp.morphisms])
    Pt = IntMatrix.hstack([psi.P for psi in inp.morphisms])

    im_rho = Lattice.from_rows(graph.basis_abelianized, n)
    im_P = Lattice.from_rows(
        [Pt.apply_row(r) for r in im_rho.basis.entries], k * m
    )
    # one row reduction of Qt gives its image, its kernel and every solve
    M, kernel, solve = left_solver(Qt)
    # im_rho Pt = im_P, so preimage maps onto N = M meet im_P, and its index
    # in im_rho is finite exactly when N has the rank of im_P
    preimage = lattice_preimage(im_rho, Pt, M)
    images = [Pt.apply_row(b) for b in preimage.basis.entries]
    N = Lattice.from_rows(images, k * m)
    ell = lattice_index(preimage, im_rho)

    if ell != math.inf:
        if ell * graph.num_vertices > MAX_COVER_VERTICES:
            raise BudgetExceeded(
                f"index {ell} over a {graph.num_vertices}-vertex graph exceeds "
                f"the budget of {MAX_COVER_VERTICES} vertices"
            )

        # the answer's free part is the words of <graph> whose abelianization
        # lies in preimage: the cover of graph by the residues of Z^n modulo
        # preimage, so no word of it is folded
        answer = freewords.pullback(graph, preimage.shift, (0,) * n)
        # the residues reached at a vertex form one coset of im_rho, ell of
        # them modulo preimage, so a larger cover means the lattices above
        # disagree with the graph
        if answer.num_vertices > ell * graph.num_vertices:
            raise CertificateError(
                f"cover of {answer.num_vertices} vertices exceeds index {ell} "
                f"over a {graph.num_vertices}-vertex graph"
            )
        # an answer word abelianizes into preimage and e is linear in it, so
        # one solve per preimage row covers every word; each image lies in M
        solutions = [solve(b) for b in images]
        if None in solutions:
            raise CertificateError("a preimage row maps outside the image of I - Q")
        E = IntMatrix(solutions, cols=m)
        reduced = [preimage.reduce(u) for u in answer.basis_abelianized]
        if any(any(res) for _, res in reduced):
            raise CertificateError("an answer word abelianizes outside the preimage")
        basis = SubgroupBasis(ambient, answer, [E.apply_row(xs) for xs, _ in reduced], kernel)
    elif graph.rank == 1:
        # cyclic free intersection whose generator picks up a nonzero abelian
        # defect: no power of it extends to a fixed element, so only the
        # abelian kernel survives
        basis = SubgroupBasis(ambient, freewords.stallings([], n), [], kernel)
    else:
        basis = None

    if basis is not None:
        _certify(inp, basis)
    return FixResult(basis, FixDiagnostics(im_rho, im_P, M, N, preimage if ell != math.inf else None, ell))


def _certify(inp: FixInput, H: SubgroupBasis, error: type[Exception] = CertificateError) -> None:
    """Raise `error` unless every map of inp fixes every basis element of H:
    CertificateError for an answer of fix_tuple, ValueError for a subgroup
    given to autofixed_closure.

    psi fixes t^a u exactly when phi fixes u and a - aQ = u_ab P. The first
    holds for each word of a graph that maps into inp.graph, as FixInput has
    checked every fixed-basis word against its map; FixInput accepts a
    proper sub-basis of Fix phi for maps other than the identity, so the
    words of a graph off inp.graph are spelled and applied. The second is
    one product (u_ab, a) [[P], [Q]] per element and map, with u_ab read off
    the graph's vertex potentials; a row b of the abelian part needs bQ = b.
    """
    if H.graph.maps_into(inp.graph) is None:
        for psi in inp.morphisms:
            if any(psi.phi.apply(u) != u for u in H.graph.basis_words):
                raise error("the graph does not map into the fixed-basis graph and a basis word is not fixed")
    for psi in inp.morphisms:
        for b in H.abelian_part.basis.entries:
            if psi.Q.apply_row(b) != b:
                raise error("abelian basis row not fixed")
        block = IntMatrix._trusted(psi.P.entries + psi.Q.entries, psi.ambient.m)
        for a, u in zip(H.vectors, H.graph.basis_abelianized):
            if block.apply_row(u + a) != a:
                raise error("basis element not fixed")


def fix_single(psi: Morphism, fix_phi_basis: Sequence[Word]) -> FixResult:
    return fix_tuple(FixInput((psi,), (tuple(fix_phi_basis),)))


def periodic_exponent(psi: Morphism) -> int:
    """Exponent e with Per psi = Fix psi^e, for phi of finite order."""
    r1 = psi.phi.order()
    if r1 == math.inf:
        raise ValueError("periodic exponent needs a finite-order free map")
    return math.lcm(int(r1), unity_exponent(psi.Q))


def periodic_subgroup(psi: Morphism) -> FixResult:
    return fix_power(psi, periodic_exponent(psi))


def fix_power(psi: Morphism, e: int) -> FixResult:
    """Fix psi^e for an exponent e with phi^e = id, so that Fix phi^e = F_n.

    Raises BudgetExceeded, before any power, when Q^e would outgrow Q by
    more than MAX_POWER_BITS bits."""
    r1 = psi.phi.order()
    if r1 == math.inf or e % r1:
        raise ValueError("the free part of psi^e is not the identity")
    # two bounds on |lambda| for the eigenvalues lambda of Q: the largest row
    # sum of |Q|, which needs no charpoly, and the Cauchy bound power_bits
    # reads off chi(Q); refused only when both pass the budget
    norm = max((sum(map(abs, row)) for row in psi.Q.entries), default=0)
    if e * norm.bit_length() > MAX_POWER_BITS and (bits := power_bits(psi.Q, e)) > MAX_POWER_BITS:
        raise BudgetExceeded(f"Q^{e} would outgrow Q by about {bits} bits, past the budget of {MAX_POWER_BITS}")
    Qe, Pe = morphisms.linear_power(psi, e)
    n = psi.ambient.n
    pe = Morphism(psi.ambient, FreeMap.identity(n), Qe, Pe)
    return fix_single(pe, [(i,) for i in range(1, n + 1)])


def autofixed_closure(H: SubgroupBasis, stab_gens: FixInput) -> FixResult:
    """Fix of stab_gens, which must fix H (else ValueError) and contain it."""
    _check_same(H.ambient, stab_gens.ambient)
    _certify(stab_gens, H, ValueError)
    result = fix_tuple(stab_gens)
    if result.basis is not None and not subgroup_contains(result.basis, H):
        raise CertificateError("closure must contain the subgroup")
    return result


def is_autofixed(H: SubgroupBasis, stab_gens: FixInput) -> bool:
    return autofixed_closure(H, stab_gens).basis == H
