"""Exact algebra of free-abelian times free groups.

Subgroup bases, membership, automorphisms, fixed and periodic subgroups and
auto-fixed closures in G = Z^m x F_n, all in exact integer arithmetic.
"""

from .fatfcore import (
    Ambient,
    GroupElement,
    SubgroupBasis,
    inv,
    member,
    mul,
    project,
    subgroup_basis,
    subgroup_equal,
)
from .fixpoint import (
    FixInput,
    FixResult,
    autofixed_closure,
    fix_single,
    fix_tuple,
    is_autofixed,
    periodic_exponent,
    periodic_subgroup,
)
from .intlat import IntMatrix, Lattice, hnf, kernel_lattice
from .morphisms import FreeMap, Morphism, apply

__all__ = [
    "Ambient",
    "GroupElement",
    "SubgroupBasis",
    "IntMatrix",
    "Lattice",
    "hnf",
    "kernel_lattice",
    "FreeMap",
    "Morphism",
    "FixInput",
    "FixResult",
    "apply",
    "inv",
    "member",
    "mul",
    "project",
    "subgroup_basis",
    "subgroup_equal",
    "fix_single",
    "fix_tuple",
    "periodic_exponent",
    "periodic_subgroup",
    "autofixed_closure",
    "is_autofixed",
]

__version__ = "0.1.0"
