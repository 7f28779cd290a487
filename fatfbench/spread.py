"""Run-to-run spread of the end-to-end metrics.

    python3 fatfbench/spread.py --seeds 1-10 [--workload NAME ...]

With --seeds 1 it is the one command that runs every workload once.

Runs the benchmark once per seed and workload, one run at a time, with the
run length from BENCHMARK.json, and prints for every end-to-end metric the
median and the quartile spread (Q3 - Q1) / median, with
statistics.quantiles(values, n=4), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= doc["correct"]
            shares.add(doc["failed"] / doc["attempted"])
            for metric, v in doc["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            metrics = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in doc["metrics"].items())
            print(f"{name} seed {seed} ({wall:.0f} s): attempted {doc['attempted']} failed {doc['failed']} {metrics}", flush=True)
        print(f"{name}: failed share {sorted(shares)}")
        if len(args.seeds) < 2:
            continue
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if metric["name"] == "setup_s" or spread < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"  {metric['name']:13s} median {med:10.4g}  spread {spread:6.3f}  bound {metric['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
