"""Exact algebra of free-abelian times free groups.

Subgroup bases, membership, automorphisms, fixed and periodic subgroups of
G = Z^m x F_n, all in exact integer arithmetic.
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
    fix_single,
    fix_tuple,
    periodic_exponent,
    periodic_subgroup,
)
from .intlat import IntMatrix, Lattice, hnf
from .morphisms import FreeMap, Morphism, apply

__all__ = [
    "Ambient",
    "GroupElement",
    "SubgroupBasis",
    "IntMatrix",
    "Lattice",
    "hnf",
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
]

__version__ = "0.1.0"
