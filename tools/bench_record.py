"""Record one benchmark baseline as JSON: the workloads' end-to-end medians,
the fix_tuple sweep with its fitted exponents, the finite-order kernels'
sweep, the tier-1 wall time and the `src/` line count.

    python3 tools/bench_record.py BENCH_<pr>.json

Run from anywhere; paths are taken from this file's checkout. After writing
the file it prints each end-to-end median's relative change against the
newest other `BENCH_<pr>.json` at the repo root, by its number. Each workload
of BENCHMARK.json runs three times as a child process,
`fatfbench/run.py --workload W --seed 1 --seconds <run_seconds>`, and each
end-to-end metric keeps the median of the three. The sweep builds its
instances with `fatfbench/instances.py` and `workloads.to_fatf`, which it
only imports, and times every size once in a round after each workload run,
keeping each size's best over all the rounds (nine for three workloads).
The rounds span the whole record, so a slow spell of a shared machine,
which can last minutes, meets every size in some rounds and misses it in
others. The same rounds time the kernels of `order` and `per`,
`intlat.cyclotomic_split(psi.Q)` and `morphisms._block(psi) ** order`, on
`instances.finite_order` morphisms at m = 4, 8 and 12, each point the mean
of FINITE_ORDER_CALLS calls, in microseconds. Standard library only;
everything runs one process at a time.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "fatfbench")
RUNS = 3
F2_ELLS = (64, 128, 256, 512, 1024)
F3_AS = (8, 12, 16, 24, 32)  # index a^2, from 64 to 1024
# (m, n, abelian cycles, negative flags, free cycles): orders 6, 15 and 105
FINITE_ORDERS = (
    (4, 3, [1, 3], [True, False], [3]),
    (8, 3, [3, 5], [False, False], [3]),
    (12, 3, [5, 7], [False, False], [3]),
)
FINITE_ORDER_CALLS = 20


def run_workload(name: str, seconds: float) -> dict:
    """One run of a workload: the last stdout line of fatfbench/run.py."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", "1", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def medians(runs: list[dict], names: list[str]) -> dict:
    """Each end-to-end metric's median over the runs, with the runs' counts."""
    return {
        "median": {k: statistics.median(r["metrics"][k]["value"] for r in runs) for k in names},
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
    }


def sweep_points() -> tuple[list[tuple[dict, str, Callable[[], object]]], dict[str, list[dict]]]:
    """The sweep's calls as (point, key, call), and its families' points,
    whose times `time_round` fills in: fix_tuple on the F_2 and F_3 index
    families, and is_autofixed of each F_2 answer (the check
    MAX_COVER_VERTICES is sized by), over ell 64-1024; and the finite-order
    kernels over m."""
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    import fatf
    from fatf import fixpoint, intlat, morphisms

    import instances
    from workloads import to_fatf

    def fix_input(ref, n: int):
        return fixpoint.FixInput((to_fatf(ref, fatf),), (tuple((i,) for i in range(1, n + 1)),))

    timed = []
    f2 = []
    for ell in F2_ELLS:
        inp = fix_input(instances.index_family_f2(random.Random(1), ell)[0], 2)
        H = fixpoint.fix_tuple(inp).basis
        f2.append({"ell": ell})
        timed.append((f2[-1], "fix_tuple_ms", lambda inp=inp: fixpoint.fix_tuple(inp)))
        timed.append((f2[-1], "is_autofixed_ms", lambda H=H, inp=inp: fixpoint.is_autofixed(H, inp)))
    f3 = []
    for a in F3_AS:
        inp = fix_input(instances.index_family_f3(random.Random(1), a), 3)
        f3.append({"a": a, "ell": a * a})
        timed.append((f3[-1], "fix_tuple_ms", lambda inp=inp: fixpoint.fix_tuple(inp)))
    fo = []
    for m, n, m_cycles, m_negative, n_cycles in FINITE_ORDERS:
        ref = instances.finite_order(random.Random(1), m, n, n_cycles, [False] * len(n_cycles), m_cycles, m_negative)
        psi = to_fatf(ref.psi, fatf)
        if morphisms.order(psi) != ref.order:
            raise RuntimeError(f"the finite-order instance at m = {m} does not have order {ref.order}")
        block = morphisms._block(psi)
        fo.append({"m": m, "n": n, "order": ref.order})
        timed.append((fo[-1], "cyclotomic_split_us", lambda Q=psi.Q: intlat.cyclotomic_split(Q)))
        timed.append((fo[-1], "block_power_us", lambda B=block, k=ref.order: B ** k))
    return timed, {"index_family_f2": f2, "index_family_f3": f3, "finite_order": fo}


def time_round(timed: list[tuple[dict, str, Callable[[], object]]]) -> None:
    """One round: each call in turn, setting point[key] to the call's best
    time so far: one call in ms for a key ending in _ms, the mean of
    FINITE_ORDER_CALLS calls in microseconds for one ending in _us."""
    for point, key, call in timed:
        calls, scale = (FINITE_ORDER_CALLS, 1e6 / FINITE_ORDER_CALLS) if key.endswith("_us") else (1, 1e3)
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        t = (time.perf_counter() - t0) * scale
        point[key] = min(point.get(key, t), t)


def fitted(families: dict[str, list[dict]]) -> dict:
    """Each family's points with the fitted exponent of fix_tuple in ell, or
    for the finite-order family the exponent of each kernel in m."""
    from sweep import slope

    out = {}
    for family, points in families.items():
        if family == "finite_order":
            keys = ("cyclotomic_split_us", "block_power_us")
            out[family] = {"points": points, "exponents_in_m": {k: slope([(p["m"], p[k]) for p in points]) for k in keys}}
        else:
            out[family] = {"points": points, "exponent": slope([(p["ell"], p["fix_tuple_ms"]) for p in points])}
    return out


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"wall_s": wall, "exit": done.returncode, "summary": re.sub(r" in [\d.]+s.*$", "", summary)}


def src_lines() -> dict:
    """The newline count of each src/fatf/*.py, as `wc -l` counts lines."""
    files = sorted(f"src/fatf/{f}" for f in os.listdir(os.path.join(ROOT, "src", "fatf")) if f.endswith(".py"))
    counts = {}
    for path in files:
        with open(os.path.join(ROOT, path), "rb") as f:
            counts[path] = f.read().count(b"\n")
    return {"files": counts, "total": sum(counts.values())}


def previous_record(out_path: str) -> str | None:
    """The BENCH_<pr>.json at the repo root with the largest number, out_path
    excluded; None when there is none."""
    found = []
    for name in os.listdir(ROOT):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        path = os.path.join(ROOT, name)
        if match and os.path.abspath(path) != os.path.abspath(out_path):
            found.append((int(match[1]), path))
    return max(found)[1] if found else None


def compare(record: dict, path: str) -> None:
    """Print each end-to-end median of record with its change against the
    record at path, for the workloads both hold."""
    with open(path) as f:
        before = json.load(f)["workloads"]
    print(f"end-to-end medians against {os.path.basename(path)}:")
    for name, now in record["workloads"].items():
        for metric, value in now["median"].items():
            old = before.get(name, {}).get("median", {}).get(metric)
            if old:
                print(f"  {name} {metric}: {old:.4g} -> {value:.4g} ({(value - old) / old:+.1%})")


def main(out_path: str) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"]]
    record: dict = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "workloads": {},
    }
    timed, families = sweep_points()
    for wl in spec["workloads"]:
        print(f"workload {wl['name']}: {RUNS} runs of {spec['run_seconds']} s, each followed by a sweep round", file=sys.stderr)
        runs = []
        for _ in range(RUNS):
            runs.append(run_workload(wl["name"], spec["run_seconds"]))
            time_round(timed)
        record["workloads"][wl["name"]] = {"seed": 1, "seconds": spec["run_seconds"], **medians(runs, names)}
    record["sweep"] = fitted(families)
    print("tier-1", file=sys.stderr)
    record["tier1"] = tier1()
    record["src_lines"] = src_lines()
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for family, fit in record["sweep"].items():
        if "exponent" in fit:
            print(f"{family}: fix_tuple exponent in ell {fit['exponent']:.2f}")
    for p in record["sweep"]["finite_order"]["points"]:
        print(f"finite_order m={p['m']} order {p['order']}: cyclotomic_split {p['cyclotomic_split_us']:.1f} us, "
              f"block ** order {p['block_power_us']:.1f} us")
    previous = previous_record(out_path)
    if previous is not None:
        compare(record, previous)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(f"usage: {sys.argv[0]} OUTPUT.json")
    main(sys.argv[1])
