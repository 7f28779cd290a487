"""Uniform computable constants governing orders and periodicity.

All values are exact big integers; factorials get large quickly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .intlat import totients


# Largest ranks `constants` accepts. At (MAX_M, MAX_N) the longest constant,
# C3 = (6 MAX_N - 6)!, has 4,096 decimal digits, inside Python's default
# limit of 4,300 for printing an int.
MAX_M = 100
MAX_N = 250


# Every bound below takes an optional totient table `phi`, sieved once by
# `constants` for all the thresholds of a report; alone, each sieves its own.
Totients = Optional[list[int]]


def phi_threshold(m: int, phi: Totients = None) -> int:
    """Largest d whose Euler totient phi(d) is at most m.

    phi(d) >= sqrt(d/2), so scanning d <= 2*m^2 + 1 is exhaustive; `phi`
    must reach that far.
    """
    if m < 1:
        raise ValueError("threshold needs m >= 1")
    top = 2 * m * m + 1
    if phi is None:
        phi = totients(top)
    return max(d for d in range(1, top + 1) if phi[d] <= m)


def order_bound(m: int, phi: Totients = None) -> int:
    """Upper bound L1(m) on the order of any finite-order matrix in GL_m(Z)."""
    if m < 0:
        raise ValueError("negative rank")
    if m == 0:
        return 1
    return phi_threshold(m, phi) ** m


def periodic_exponent_bound(m: int, phi: Totients = None) -> int:
    """Uniform exponent L3(m) with Per Q = Fix Q^{L3} for all m x m integer Q."""
    return math.factorial(phi_threshold(max(m, 1), phi))


def free_periodic_exponent(n: int) -> int:
    """Uniform exponent (6n-6)! with Per phi = Fix phi^{(6n-6)!} on F_n; 1 for n <= 1."""
    if n <= 1:
        return 1
    return math.factorial(6 * n - 6)


def automorphism_order_bound(m: int, n: int, phi: Totients = None) -> int:
    """Upper bound C1(m,n) on the order of any finite-order automorphism of Z^m x F_n."""
    if n <= 1:
        return order_bound(m + n, phi)
    if m == 0:
        return order_bound(n, phi)
    return order_bound(n, phi) * order_bound(m, phi)


def group_periodic_exponent(m: int, n: int, phi: Totients = None) -> int:
    """Uniform exponent C3(m,n) with Per Psi = Fix Psi^{C3} on Z^m x F_n."""
    return math.lcm(
        periodic_exponent_bound(m, phi),
        periodic_exponent_bound(m + 1, phi),
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
    # the largest threshold read is at m + 1 or n (m + n <= m + 1 when n <= 1)
    top = max(m + 1, n)
    phi = totients(2 * top * top + 1)
    return ConstantsReport(
        m=m,
        n=n,
        C=phi_threshold(max(m, 1), phi),
        L1=order_bound(m, phi),
        L3=periodic_exponent_bound(m, phi),
        free_per=free_periodic_exponent(n),
        C1=automorphism_order_bound(m, n, phi),
        C3=group_periodic_exponent(m, n, phi),
    )
