"""Fixed subgroups of tuples of automorphisms of Z^m x F_n.

The free parts of the fixed subgroups of the underlying free-group maps are
trusted inputs (computing them in general needs train-track machinery); this
module handles everything on top: the abelian constraints, finite
generation, bases, periodic subgroups and auto-fixed closures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import budget, freewords, morphisms
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
# over each vertex of the fixed-basis graph. At the budget (ell = 1024) the F_2
# family phi = id, Q = U^-1 [[ell+2, 1], [-1, 0]] U, P = U takes 7.6 ms and
# is_autofixed of its answer 9.1 ms, as it checks H on the graphs and finds it
# equal to the answer (BENCH_39.json's sweep: best of 9, Python 3.11.7, shared
# 2-core x86_64). Its basis has 526,336 letters, spelled only when the answer
# is read: the JSON of `fix` takes about 0.2 s more.
MAX_COVER_VERTICES = 1024

# Most bits by which fix_power lets Q^e outgrow Q, as estimated from bounds on
# the eigenvalues of Q (`intlat.power_bits`): the 4,300 decimal digits past
# which the CLI refuses to write an integer. A `per` case under it, the m = 32
# companions of Phi_4, Phi_3, Phi_5, Phi_7, Phi_17 and x^2 - 3x + 1 (e = 7,140,
# 14,280 bits) conjugated by random_unimodular(Random(32), 32, steps=200) of
# tests/conftest.py, takes 1.1 s on Python 3.11. The estimate is made before
# any power: `per` on the m = 38 payload of slow_infinite_order_matrix there
# (e = 60,060, 120,120 bits) exits 2 in 0.14 s, where the power alone took
# 106 s. With P = 0 that payload's answer is small, so the budget refuses a
# computable answer.
MAX_POWER_BITS = 14_284


@dataclass(frozen=True)
class FixInput:
    """Automorphisms with a free basis of Fix phi each; the letters of every
    basis word are checked before the counts and the per-map checks."""

    morphisms: tuple[Morphism, ...]
    fixed_free_bases: tuple[tuple[Word, ...], ...]
    # the Stallings graph of the intersection of the bases' subgroups, from
    # the folds of the rank checks: fix_tuple covers it, and its certificate
    # maps the answer into it
    graph: freewords.StallingsGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.morphisms:
            raise InvalidFixInput("need at least one morphism")
        n = self.ambient.n
        bases = tuple(tuple(reduce_word(w, n) for w in basis) for basis in self.fixed_free_bases)
        if len(self.morphisms) != len(bases):
            raise InvalidFixInput("need one fixed free-basis per morphism")
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        object.__setattr__(self, "fixed_free_bases", bases)
        folds = []
        with budget.scope():
            for psi, words in zip(self.morphisms, bases):
                _check_same(self.ambient, psi.ambient)
                # a FreeMap is built only with inverse images that undo it, so
                # they prove an automorphism; otherwise a map of F_n is onto,
                # hence an automorphism (F_n is Hopfian), exactly when its
                # images fold to the one-vertex rose of rank n
                if psi.phi.inverse_images is None:
                    rose = freewords.stallings(psi.phi.images, n)
                    if rose.num_vertices != 1 or rose.rank != n:
                        raise InvalidFixInput("a free map is not an automorphism: its images do not generate F_n")
                # rank Fix(phi) <= n for every automorphism (Bestvina-Handel 1992)
                if len(words) > n:
                    raise InvalidFixInput(f"a fixed free-basis has more than n = {n} words")
                morphisms.spend_letters(psi.phi.images, words, "checking the fixed words", InvalidFixInput)
                for w in words:
                    if psi.phi.apply(w) != w:
                        raise InvalidFixInput(f"word {freewords.format_word(w)!r} is not fixed by its map")
                fold = freewords.stallings(words, n)
                if fold.rank != len(words):
                    raise InvalidFixInput("a fixed free-basis is not a free basis")
                # the identity fixes all of F_n, so its basis must fold to the rose
                if psi.phi.is_identity() and (fold.num_vertices != 1 or fold.rank != n):
                    raise InvalidFixInput("the fixed free-basis of an identity map does not generate F_n")
                folds.append(fold)
        graph = folds[0]
        for other in folds[1:]:
            graph = freewords.pullback(graph, lambda v, a: other.edges[v].get(a), 0)
        object.__setattr__(self, "graph", graph)

    @property
    def ambient(self) -> Ambient:
        return self.morphisms[0].ambient


@dataclass(frozen=True, eq=False)
class FixDiagnostics:
    """The lattices of a fix_tuple answer and its index ell; `preimage` is
    None at infinite index. im_P = im_rho Pt and N = M meet im_P, the HNF
    of the preimage rows mapped by Pt (`_images`, which the solves map too),
    are computed when first read, as only the JSON reply reads them. They
    are not fields, so `==` and hash compare all six values by `_key`."""

    im_rho: Lattice
    M: Lattice
    preimage: Optional[Lattice]
    ell: object  # int or math.inf
    _Pt: IntMatrix = field(repr=False)
    _images: list = field(repr=False)

    @functools.cached_property
    def im_P(self) -> Lattice:
        return Lattice.from_rows([self._Pt.apply_row(r) for r in self.im_rho.basis.entries], self._Pt.cols)

    @functools.cached_property
    def N(self) -> Lattice:
        return Lattice.from_rows(self._images, self._Pt.cols)

    def _key(self) -> tuple:
        return (self.im_rho, self.im_P, self.M, self.N, self.preimage, self.ell)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FixDiagnostics) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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

    # Qt = [I - Q_1 | ... | I - Q_k], built row by row from checked entries
    rows = [[(i == j) - q for psi in inp.morphisms for j, q in enumerate(psi.Q.entries[i])] for i in range(m)]
    Qt = IntMatrix._trusted(tuple([tuple(r) for r in rows]), k * m)
    Pt = IntMatrix.hstack([psi.P for psi in inp.morphisms])

    im_rho = Lattice.from_rows(graph.basis_abelianized, n)
    # one row reduction of Qt gives its image, its kernel and every solve
    M, kernel, solve = left_solver(Qt)
    # im_rho Pt = im_P, so preimage maps onto N = M meet im_P, and its index
    # in im_rho is finite exactly when N has the rank of im_P
    preimage = lattice_preimage(im_rho, Pt, M)
    images = [Pt.apply_row(b) for b in preimage.basis.entries]
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
        E = IntMatrix._trusted(tuple(solutions), m)
        # a word's vector depends only on its abelianization, and the ell(r-1)+1
        # answer words share few of them, so each is reduced and mapped once
        us = answer.basis_abelianized
        vector = {}
        for u in dict.fromkeys(us):
            xs, res = preimage.reduce(u)
            if any(res):
                raise CertificateError("an answer word abelianizes outside the preimage")
            vector[u] = E.apply_row(xs)
        basis = SubgroupBasis(ambient, answer, [vector[u] for u in us], kernel)
    elif graph.rank == 1:
        # cyclic free intersection whose generator picks up a nonzero abelian
        # defect: no power of it extends to a fixed element, so only the
        # abelian kernel survives
        basis = SubgroupBasis(ambient, freewords.stallings([], n), [], kernel)
    else:
        basis = None

    if basis is not None:
        _certify(inp, basis)
    return FixResult(basis, FixDiagnostics(im_rho, M, preimage if ell != math.inf else None, ell, Pt, images))


def _certify(inp: FixInput, H: SubgroupBasis, error: type[Exception] = CertificateError) -> None:
    """Raise `error` unless every map of inp fixes every basis element of H:
    CertificateError for an answer of fix_tuple, ValueError for a subgroup
    given to autofixed_closure.

    psi fixes t^a u exactly when phi fixes u and a - aQ = u_ab P. The first
    holds for each word of a graph that maps into inp.graph, as FixInput has
    checked every fixed-basis word against its map; it accepts a sub-basis
    of Fix phi for maps other than the identity, so the words of a graph off
    inp.graph are spelled and applied, all counted first (`morphisms.spend_letters`).
    The second is one product (u_ab, a) [[P], [Q]] per distinct pair and map,
    u_ab read off the graph's vertex potentials; an abelian row b needs bQ = b.
    """
    if H.graph.maps_into(inp.graph) is None:
        words = H.graph.basis_words
        with budget.scope():
            for psi in inp.morphisms:
                morphisms.spend_letters(psi.phi.images, words, "checking the basis words", error)
        for psi in inp.morphisms:
            if any(psi.phi.apply(u) != u for u in words):
                raise error("the graph does not map into the fixed-basis graph and a basis word is not fixed")
    pairs = set(zip(H.vectors, H.graph.basis_abelianized))
    for psi in inp.morphisms:
        for b in H.abelian_part.basis.entries:
            if psi.Q.apply_row(b) != b:
                raise error("abelian basis row not fixed")
        block = IntMatrix._trusted(psi.P.entries + psi.Q.entries, psi.ambient.m)
        for a, u in pairs:
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
    # equal subgroups contain each other, so an answer equal to H needs no walk
    if result.basis is not None and result.basis != H and not subgroup_contains(result.basis, H):
        raise CertificateError("closure must contain the subgroup")
    return result


def is_autofixed(H: SubgroupBasis, stab_gens: FixInput) -> bool:
    return autofixed_closure(H, stab_gens).basis == H
