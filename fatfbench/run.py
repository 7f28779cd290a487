"""Benchmark of fatf: one workload, one seed, one caller in a closed loop.

    python3 fatfbench/run.py --workload fix-index --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fatf is imported from its ``src``
directory. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead (see README.md). Every timed
output is checked by the independent checkers in ``checks.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]


def _per_layer() -> list[tuple[str, str]]:
    from tracing import LAYERS

    out = []
    for name in (
        "freewords.schreier_basis.calls",
        "freewords.schreier_basis.self_ms",
        "freewords.schreier_basis.cosets",
        "freewords.schreier_basis.predicate_calls",
        "freewords.stallings.calls",
        "freewords.stallings.self_ms",
        "freewords.stallings.vertices",
        "freewords.pullback.calls",
        "freewords.pullback.self_ms",
        "freewords.trace.calls",
        "freewords.trace.self_ms",
        "oracle.brute_fixed.calls",
        "oracle.brute_fixed.self_ms",
        "oracle.words_enumerated",
        "oracle.fixed_elements",
        "morphisms.FreeMap.apply.calls",
        "morphisms.FreeMap.apply.self_ms",
        "morphisms.FreeMap.apply.letters_in",
        "morphisms.FreeMap.init.self_ms",
        "morphisms.apply.calls",
        "morphisms.apply.self_ms",
        "morphisms.order.self_ms",
        "morphisms.power_vector_matrix.calls",
        "morphisms.power_vector_matrix.self_ms",
        "intlat.Lattice.from_rows.calls",
        "intlat.Lattice.from_rows.self_ms",
        "intlat.kernel_lattice.self_ms",
        "intlat.lattice_intersect.self_ms",
        "intlat.lattice_preimage.self_ms",
        "intlat.solve_left.self_ms",
        "intlat.matrix_inverse.self_ms",
        "intlat.charpoly.self_ms",
        "intlat.matrix_order.self_ms",
        "intlat.IntMatrix.mul.calls",
        "intlat.max_coeff_bits",
        "fatfcore.member.calls",
        "fatfcore.member.self_ms",
        "fatfcore.SubgroupBasis.init.self_ms",
        "fatfcore.subgroup_equal.self_ms",
        "fatfcore.GroupElement.init.calls",
        "fixpoint.fix_tuple.calls",
        "fixpoint.fix_tuple.self_ms",
        "fixpoint.FixInput.self_ms",
        "fixpoint.periodic_subgroup.self_ms",
        "fixpoint.autofixed_closure.self_ms",
        "cli.run.self_ms",
        "jsonio.parse.self_ms",
        "jsonio.emit.self_ms",
        "bounds.constants.self_ms",
    ):
        if name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_bits"):
            unit = "bits"
        else:
            unit = "count"
        out.append((name, unit))
    out += [(f"share.{layer}_pct", "%") for layer in LAYERS]
    out += [(f"tail.{layer}_pct", "%") for layer in LAYERS]
    out += [
        ("tail.power_vector_matrix_pct", "%"),
        ("tracing.spans", "count"),
        ("tracing.ops_per_s_untraced", "1/s"),
        ("tracing.ops_per_s_traced", "1/s"),
        ("tracing.overhead_pct", "%"),
    ]
    return out


@dataclass
class RunResult:
    """Raw operation times, each with the calibration round taken before it
    (no rounds when `speed` is None)."""

    speed: Speed | None
    samples: list[float] = field(default_factory=list)
    ticks: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    known_faults: dict[str, int] = field(default_factory=dict)
    unexpected: list[str] = field(default_factory=list)

    def scaled(self) -> list[float]:
        return [dt * self.speed.factor(k) for dt, k in zip(self.samples, self.ticks)]

    def ops_per_s(self, samples: list[float]) -> float:
        return (self.attempted - self.failed) / sum(samples)


class Verifier:
    """Checks outputs; an output equal to one already checked for the same
    operation is accepted by its fingerprint."""

    def __init__(self) -> None:
        self.checked: dict[str, str] = {}

    def verify(self, op: workloads.Op, out, outputs: dict) -> None:
        fp = op.fingerprint(out) if op.fingerprint else None
        if fp is not None and self.checked.get(op.name) == fp:
            return
        op.check(out, outputs)
        if fp is not None:
            self.checked[op.name] = fp


def one_pass(ops: list[workloads.Op], verifier: Verifier, result: RunResult, tracer=None) -> None:
    outputs: dict = {}
    for op in ops:
        result.attempted += 1
        if result.speed is not None:
            result.ticks.append(result.speed.tick())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.run_op(result.attempted, op.call)
        except Exception as e:  # a crash of the program under test is a failed operation
            result.samples.append(time.perf_counter() - t0)
            result.failed += 1
            result.unexpected.append(f"{op.name}: {type(e).__name__}: {e}")
            continue
        result.samples.append(time.perf_counter() - t0)
        outputs[op.name] = out
        try:
            verifier.verify(op, out, outputs)
        except checks.CheckFailed as e:
            result.failed += 1
            if op.known_fault:
                result.known_faults[op.known_fault] = result.known_faults.get(op.known_fault, 0) + 1
            else:
                result.unexpected.append(f"{op.name}: {e}")
        except Exception as e:  # an output the checker cannot even read
            result.failed += 1
            result.unexpected.append(f"{op.name}: unreadable output: {type(e).__name__}: {e}")


def timed_run(wl: workloads.Workload, seconds: float, verifier: Verifier, speed: Speed, tracer=None, between=None) -> RunResult:
    """Whole passes until `seconds` of wall time have gone by.

    `between(elapsed)` runs after each pass, outside the timed operations."""
    result = RunResult(speed)
    gc.collect()
    start = time.perf_counter()
    while result.passes == 0 or time.perf_counter() - start < seconds:
        one_pass(wl.ops, verifier, result, tracer)
        result.passes += 1
        if between is not None:
            between(time.perf_counter() - start)
    speed.tick()
    return result


def setup_once(name: str, seed: int, fatf, speed: Speed) -> tuple[workloads.Workload, Verifier, float, float]:
    """Generate and verify the inputs, then run the warm-up operations,
    starting from a cleared cyclotomic cache. Returns the raw and the
    scaled time."""
    fatf.intlat.cyclotomic.cache_clear()
    before = speed.tick()
    t0 = time.perf_counter()
    wl = workloads.build(name, seed, fatf)
    verifier = Verifier()
    warm = RunResult(None)
    one_pass(wl.warmup, verifier, warm)
    elapsed = time.perf_counter() - t0
    speed.tick()
    for line in warm.unexpected:
        print(f"warm-up failure {line}", file=sys.stderr)
    return wl, verifier, elapsed, elapsed * speed.factor(before)


class SetupRepeats:
    """Set-up is timed SETUP_REPEATS times: once before the timed passes and
    then between passes, spread over the run, so that the median does not
    rest on one moment of a machine whose speed drifts."""

    def __init__(self, name: str, seed: int, fatf, seconds: float, speed: Speed) -> None:
        self.args = (name, seed, fatf, speed)
        self.seconds = seconds
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self) -> tuple[workloads.Workload, Verifier]:
        wl, verifier, raw, scaled = setup_once(*self.args)
        self.raw.append(raw)
        self.scaled.append(scaled)
        return wl, verifier

    def between(self, elapsed: float) -> None:
        if len(self.raw) < SETUP_REPEATS and elapsed >= len(self.raw) * self.seconds / SETUP_REPEATS:
            self.add()

    def medians(self) -> tuple[float, float]:
        while len(self.raw) < SETUP_REPEATS:
            self.add()
        return statistics.median(self.raw), statistics.median(self.scaled)


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(result: RunResult, samples: list[float], setup: float) -> dict[str, float]:
    return {
        "setup_s": setup,
        "ops_per_s": result.ops_per_s(samples),
        "op_p50_ms": percentile(samples, 50) * 1e3,
        "op_p90_ms": percentile(samples, 90) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(wl: workloads.Workload, result: RunResult, metrics: dict, units: dict, raw: dict | None = None) -> None:
    print(f"workload {wl.name}: {len(wl.ops)} operations per pass, {result.passes} passes")
    print("  classes: " + ", ".join(f"{k} x{v}" for k, v in sorted(wl.classes.items())))
    print(f"  attempted {result.attempted}, failed {result.failed}")
    for fault, count in sorted(result.known_faults.items()):
        print(f"  known fault {fault}: {count} failed operations")
    for line in result.unexpected[:10]:
        print(f"  UNEXPECTED FAILURE {line}")
    for name, value in metrics.items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if raw and raw[name] != value else ""
        print(f"  {name} = {value:.6g} {units[name]}{unscaled}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import fatf
        import fatf.cli  # noqa: F401
        import fatf.fixpoint  # noqa: F401
    except ImportError as e:
        print(f"cannot import fatf from {os.path.join(ROOT, 'src')}: {e}", file=sys.stderr)
        return 1
    if not os.path.abspath(fatf.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"fatf was imported from {fatf.__file__}, not from this checkout", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0

    speed = Speed()
    import_s *= speed.factor(speed.tick())
    repeats = SetupRepeats(args.workload, args.seed, fatf, args.seconds, speed)
    wl, verifier = repeats.add()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        result = timed_run(wl, args.seconds, verifier, speed, between=repeats.between)
        setup_raw, setup_scaled = repeats.medians()
        values = end_to_end(result, result.scaled(), import_s + setup_scaled)
        raw = end_to_end(result, result.samples, import_s + setup_raw)
        units = dict(END_TO_END)
        attempted, failed, unexpected = result.attempted, result.failed, result.unexpected
        report(wl, result, values, units, raw)
    else:
        from tracing import Tracer

        half = args.seconds / 2
        base = timed_run(wl, half, verifier, speed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_run(wl, half, verifier, speed, tracer)
        finally:
            tracer.remove()
        summary = tracer.summary(traced.passes)
        summary["tracing.ops_per_s_untraced"] = base.ops_per_s(base.scaled())
        summary["tracing.ops_per_s_traced"] = traced.ops_per_s(traced.scaled())
        summary["tracing.overhead_pct"] = 100.0 * (1.0 - summary["tracing.ops_per_s_traced"] / summary["tracing.ops_per_s_untraced"])
        units = dict(_per_layer())
        values = {name: float(summary.get(name, 0.0)) for name in units}
        attempted = base.attempted + traced.attempted
        failed = base.failed + traced.failed
        unexpected = base.unexpected + traced.unexpected
        report(wl, traced, values, units)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{tag}.json"))

    doc = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
