"""Reference scaling figures: fix_tuple over the coset index ell, and the
order subcommand over the order k of the automorphism.

    python3 fatfbench/sweep.py

Prints the median of three timings per size and the least-squares slope of
log(time) against log(size), the scaling exponent.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fatf  # noqa: E402
from fatf import cli, fixpoint  # noqa: E402

import instances  # noqa: E402
import workloads  # noqa: E402

ELLS = (4, 8, 16, 32, 64, 100)
# (m, n, abelian cycles, free cycles) with orders 12 to 420 at m = 12
ORDERS = [
    (12, 3, [3, 4, 5], [1, 1, 1], False),
    (12, 3, [5, 7], [1, 1, 1], False),
    (12, 3, [5, 7], [3], False),
    (12, 3, [5, 7], [3], True),
    (12, 7, [5, 7], [3, 4], False),
]


def timed(call, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> None:
    rng = random.Random(0)
    points = []
    print("fix_tuple, phi = id on F_2, Q = [[ell+2, 1], [-1, 0]] conjugated, P = U")
    for ell in ELLS:
        ref, _, _ = instances.index_family_f2(rng, ell)
        inp = fixpoint.FixInput((workloads.to_fatf(ref, fatf),), (((1,), (2,)),))
        t = timed(lambda: fixpoint.fix_tuple(inp))
        points.append((ell, t))
        print(f"  ell {ell:4d}: {t * 1e3:9.1f} ms")
    print(f"  scaling exponent (ell >= 16): {slope([p for p in points if p[0] >= 16]):.2f}")
    points = []
    print("order subcommand, m = 12")
    for m, n, mc, nc, neg in ORDERS:
        fo = instances.finite_order(rng, m, n, nc, [False] * len(nc), mc, [False, neg] if len(mc) == 2 else [False] * len(mc))
        payload = json.dumps({"m": m, "n": n, "morphism": instances.morphism_json(fo.psi)})
        cli.run(["order"], payload)
        t = timed(lambda: cli.run(["order"], payload))
        points.append((fo.order, t))
        print(f"  k {fo.order:4d} (n = {n}): {t * 1e3:9.1f} ms")
    print(f"  scaling exponent in k: {slope(points):.2f}")


if __name__ == "__main__":
    main()
