"""Record one benchmark baseline as JSON: the workloads' end-to-end medians,
the fix_tuple sweep with its fitted exponents, the tier-1 wall time and the
`src/` line count.

    python3 tools/bench_record.py BENCH_<pr>.json

Run from anywhere; paths are taken from this file's checkout. After writing
the file it prints each end-to-end median's relative change against the
newest other `BENCH_<pr>.json` at the repo root, by its number. Each workload
of BENCHMARK.json runs three times as a child process,
`fatfbench/run.py --workload W --seed 1 --seconds <run_seconds>`, and each
end-to-end metric keeps the median of the three. The sweep builds its
instances with `fatfbench/instances.py` and `workloads.to_fatf`, which it
only imports, and times `fix_tuple` best of 5 at each size. Standard library
only; everything runs one process at a time.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "fatfbench")
RUNS = 3
BEST_OF = 5
F2_ELLS = (64, 128, 256, 512, 1024)
F3_AS = (8, 12, 16, 24, 32)  # index a^2, from 64 to 1024


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


def best_ms(call) -> float:
    times = []
    for _ in range(BEST_OF):
        gc.collect()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times) * 1e3


def sweep() -> dict:
    """fix_tuple on the F_2 and F_3 index families, and is_autofixed of each
    F_2 answer (the check MAX_COVER_VERTICES is sized by), over ell 64-1024."""
    sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
    import fatf
    from fatf import fixpoint

    import instances
    from sweep import slope
    from workloads import to_fatf

    def fix_input(ref, n: int):
        return fixpoint.FixInput((to_fatf(ref, fatf),), (tuple((i,) for i in range(1, n + 1)),))

    f2 = []
    for ell in F2_ELLS:
        inp = fix_input(instances.index_family_f2(random.Random(1), ell)[0], 2)
        H = fixpoint.fix_tuple(inp).basis
        f2.append({
            "ell": ell,
            "fix_tuple_ms": best_ms(lambda: fixpoint.fix_tuple(inp)),
            "is_autofixed_ms": best_ms(lambda: fixpoint.is_autofixed(H, inp)),
        })
    f3 = []
    for a in F3_AS:
        inp = fix_input(instances.index_family_f3(random.Random(1), a), 3)
        f3.append({"a": a, "ell": a * a, "fix_tuple_ms": best_ms(lambda: fixpoint.fix_tuple(inp))})
    return {
        family: {"points": points, "exponent": slope([(p["ell"], p["fix_tuple_ms"]) for p in points])}
        for family, points in (("index_family_f2", f2), ("index_family_f3", f3))
    }


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
    files = sorted(f"src/fatf/{f}" for f in os.listdir(os.path.join(ROOT, "src", "fatf")) if f.endswith(".py"))
    out = subprocess.run(["wc", "-l", *files], cwd=ROOT, capture_output=True, text=True, check=True).stdout
    counts = {path: int(k) for k, path in (line.split() for line in out.strip().splitlines())}
    return {"files": {k: v for k, v in counts.items() if k != "total"}, "total": counts["total"]}


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
    for wl in spec["workloads"]:
        print(f"workload {wl['name']}: {RUNS} runs of {spec['run_seconds']} s", file=sys.stderr)
        runs = [run_workload(wl["name"], spec["run_seconds"]) for _ in range(RUNS)]
        record["workloads"][wl["name"]] = {"seed": 1, "seconds": spec["run_seconds"], **medians(runs, names)}
    print("sweep", file=sys.stderr)
    record["sweep"] = sweep()
    print("tier-1", file=sys.stderr)
    record["tier1"] = tier1()
    record["src_lines"] = src_lines()
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for family, fit in record["sweep"].items():
        print(f"{family}: fix_tuple exponent in ell {fit['exponent']:.2f}")
    previous = previous_record(out_path)
    if previous is not None:
        compare(record, previous)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(f"usage: {sys.argv[0]} OUTPUT.json")
    main(sys.argv[1])
