"""Uniform computable constants governing orders and periodicity.

All values are exact big integers; factorials get large quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intlat import totient_at_most


# Largest ranks `constants` accepts. At (MAX_M, MAX_N) the longest constant,
# C3 = (6 MAX_N - 6)!, has 4,096 decimal digits, inside Python's default
# limit of 4,300 for printing an int.
MAX_M = 100
MAX_N = 250


def phi_threshold(m: int) -> int:
    """Largest d whose Euler totient phi(d) is at most m."""
    if m < 1:
        raise ValueError("threshold needs m >= 1")
    return max(totient_at_most(m))[0]


def order_bound(m: int) -> int:
    """Upper bound L1(m) on the order of any finite-order matrix in GL_m(Z)."""
    if m < 0:
        raise ValueError("negative rank")
    if m == 0:
        return 1
    return phi_threshold(m) ** m


def periodic_exponent_bound(m: int) -> int:
    """Uniform exponent L3(m) with Per Q = Fix Q^{L3} for all m x m integer Q."""
    return math.factorial(phi_threshold(max(m, 1)))


def free_periodic_exponent(n: int) -> int:
    """Uniform exponent (6n-6)! with Per phi = Fix phi^{(6n-6)!} on F_n; 1 for n <= 1."""
    if n <= 1:
        return 1
    return math.factorial(6 * n - 6)


def automorphism_order_bound(m: int, n: int) -> int:
    """Upper bound C1(m,n) on the order of any finite-order automorphism of Z^m x F_n."""
    if n <= 1:
        return order_bound(m + n)
    return order_bound(n) * order_bound(m)


def group_periodic_exponent(m: int, n: int) -> int:
    """Uniform exponent C3(m,n) with Per Psi = Fix Psi^{C3} on Z^m x F_n."""
    return math.lcm(
        periodic_exponent_bound(m),
        periodic_exponent_bound(m + 1),
        free_periodic_exponent(n),
    )


@dataclass(frozen=True)
class ConstantsReport:
    m: int
    n: int
    C: int
    L1: int
    L3: int
    free_per: int
    C1: int
    C3: int


def constants(m: int, n: int) -> ConstantsReport:
    if m < 0 or n < 0:
        raise ValueError("negative rank")
    if m > MAX_M or n > MAX_N:
        raise ValueError(f"constants are reported for m <= {MAX_M} and n <= {MAX_N}")
    return ConstantsReport(
        m=m,
        n=n,
        C=phi_threshold(max(m, 1)),
        L1=order_bound(m),
        L3=periodic_exponent_bound(m),
        free_per=free_periodic_exponent(n),
        C1=automorphism_order_bound(m, n),
        C3=group_periodic_exponent(m, n),
    )
