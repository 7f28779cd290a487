"""Traced run: spans and counts taken by wrapping fatf's public functions.

Nothing in fatf changes. `Tracer.install` replaces the functions and
methods named below with wrappers, everywhere a fatf module holds them
(``fixpoint.kernel_lattice`` is the same function as
``intlat.kernel_lattice``, so both names get the wrapper), and
`Tracer.remove` puts the originals back.

Three kinds of wrapper:
- span: records (id, parent, name, start, end, operation) in memory;
- leaf: a hot function that calls no other wrapped function; its calls and
  time are summed per enclosing span instead of kept one by one, so a pass
  of the oracle does not hold a million spans;
- count: counts calls only; the time stays with the enclosing span.

A span's self time is its duration minus the durations of its child spans
and of the leaf calls made directly under it.
"""

from __future__ import annotations

import functools
import json
import math
import time
import types
from array import array
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, metric name); a dotted attribute is a method
SPANS = [
    ("freewords", "schreier_basis", "freewords.schreier_basis"),
    ("freewords", "stallings", "freewords.stallings"),
    ("freewords", "pullback", "freewords.pullback"),
    ("oracle", "brute_fixed", "oracle.brute_fixed"),
    ("morphisms", "FreeMap.__init__", "morphisms.FreeMap.init"),
    ("morphisms", "apply", "morphisms.apply"),
    ("morphisms", "order", "morphisms.order"),
    ("morphisms", "power", "morphisms.power"),
    ("morphisms", "power_vector_matrix", "morphisms.power_vector_matrix"),
    ("intlat", "Lattice.from_rows", "intlat.Lattice.from_rows"),
    ("intlat", "kernel_lattice", "intlat.kernel_lattice"),
    ("intlat", "lattice_intersect", "intlat.lattice_intersect"),
    ("intlat", "lattice_preimage", "intlat.lattice_preimage"),
    ("intlat", "lattice_index", "intlat.lattice_index"),
    ("intlat", "solve_left", "intlat.solve_left"),
    ("intlat", "matrix_inverse", "intlat.matrix_inverse"),
    ("intlat", "charpoly", "intlat.charpoly"),
    ("intlat", "matrix_order", "intlat.matrix_order"),
    ("intlat", "unity_exponent", "intlat.unity_exponent"),
    ("fatfcore", "member", "fatfcore.member"),
    ("fatfcore", "SubgroupBasis.__init__", "fatfcore.SubgroupBasis.init"),
    ("fatfcore", "subgroup_basis", "fatfcore.subgroup_basis"),
    ("fatfcore", "subgroup_equal", "fatfcore.subgroup_equal"),
    ("fixpoint", "fix_tuple", "fixpoint.fix_tuple"),
    ("fixpoint", "FixInput.__post_init__", "fixpoint.FixInput"),
    ("fixpoint", "periodic_subgroup", "fixpoint.periodic_subgroup"),
    ("fixpoint", "periodic_exponent", "fixpoint.periodic_exponent"),
    ("fixpoint", "autofixed_closure", "fixpoint.autofixed_closure"),
    ("fixpoint", "is_autofixed", "fixpoint.is_autofixed"),
    ("cli", "run", "cli.run"),
    ("cli", "_dump", "jsonio.emit"),
    ("jsonio", "element_from_json", "jsonio.parse"),
    ("jsonio", "subgroup_from_json", "jsonio.parse"),
    ("jsonio", "morphism_from_json", "jsonio.parse"),
    ("jsonio", "element_to_json", "jsonio.emit"),
    ("jsonio", "subgroup_to_json", "jsonio.emit"),
    ("jsonio", "fix_result_to_json", "jsonio.emit"),
    ("bounds", "constants", "bounds.constants"),
]
LEAVES = [
    ("morphisms", "FreeMap.apply", "morphisms.FreeMap.apply"),
    ("freewords", "StallingsGraph.trace", "freewords.trace"),
]
COUNTS = [
    ("intlat", "IntMatrix.__mul__", "intlat.IntMatrix.mul"),
    ("fatfcore", "GroupElement.__init__", "fatfcore.GroupElement.init"),
]
MODULES = ("freewords", "intlat", "fatfcore", "morphisms", "fixpoint", "bounds", "oracle", "jsonio", "cli")
# layer of a span name: its first component, with the JSON front end as one layer
LAYERS = ("freewords", "oracle", "morphisms", "intlat", "fatfcore", "fixpoint", "cli", "bench")
FRONT = {"cli", "jsonio", "bounds"}
# results whose integer entries feed intlat.max_coeff_bits
COEFF_RESULTS = {
    "intlat.Lattice.from_rows",
    "intlat.solve_left",
    "intlat.matrix_inverse",
    "intlat.charpoly",
    "morphisms.power_vector_matrix",
}
OP_SPAN = "bench.op"


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "cli" if head in FRONT else head


def max_bits(obj: Any) -> int:
    if isinstance(obj, bool) or obj is None:
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    basis = getattr(obj, "basis", None)
    if basis is not None:
        obj = basis
    entries = getattr(obj, "entries", None)
    if entries is not None:
        obj = entries
    if isinstance(obj, (list, tuple)):
        return max((max_bits(x) for x in obj), default=0)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.op = array("q")
        self.stack: list[int] = [-1]
        self.next_id = 0
        self.current_op = -1
        # leaf sums per enclosing span: span id -> name -> [calls, seconds]
        self.leaf: dict[int, dict[str, list]] = defaultdict(dict)
        self.counts: dict[str, float] = defaultdict(float)
        self.max_coeff_bits = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self.name_ids.get(name)
        if i is None:
            i = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        counts = self.counts
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.sid.append(sid)
                self.parent.append(parent)
                self.name.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.op.append(self.current_op)
            counts[calls_key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def leaf_wrapper(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        leaf = self.leaf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            acc = leaf[self.stack[-1]].get(name)
            if acc is None:
                leaf[self.stack[-1]][name] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, occurrence: int, call: Callable[[], Any]) -> Any:
        """Run one benchmark operation under its root span; `occurrence`
        numbers the operations of the run, so spans of one call share it."""
        self.current_op = occurrence
        try:
            return self.span(OP_SPAN, call)()
        finally:
            self.current_op = -1

    # -- installation --------------------------------------------------------

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import fatf
        from fatf import cli

        mods = {name: getattr(__import__(f"fatf.{name}"), name) for name in MODULES}
        after = self._after_hooks()
        plan = [(SPANS, self.span), (LEAVES, self.leaf_wrapper), (COUNTS, None)]
        for table, make in plan:
            for mod_name, attr, metric in table:
                mod = mods[mod_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    wrapped = self.count_wrapper(metric, fn) if make is None else make(metric, fn, after.get(metric))
                    self._replace(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                    continue
                orig = getattr(mod, attr)
                if metric == "freewords.schreier_basis":
                    wrapped = self._schreier(orig)
                else:
                    wrapped = make(metric, orig, after.get(metric))
                for holder in list(mods.values()) + [fatf]:
                    for name, value in list(vars(holder).items()):
                        if value is orig:
                            self._replace(holder, name, wrapped)
        # words the oracle enumerates, counted as they are drawn
        reduced = mods["oracle"].reduced_words
        counts = self.counts

        def counted_words(*args, **kwargs):
            for w in reduced(*args, **kwargs):
                counts["oracle.words_enumerated"] += 1
                yield w

        self._replace(mods["oracle"], "reduced_words", counted_words)
        # cli parses its payload with json.loads; give it a traced one
        proxy = types.SimpleNamespace(
            loads=self.span("jsonio.parse", json.loads),
            dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError,
        )
        self._replace(cli, "json", proxy)

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _schreier(self, orig: Callable) -> Callable:
        counts = self.counts

        def traced(ambient_basis, member, index_bound):
            def predicate(w):
                counts["freewords.schreier_basis.predicate_calls"] += 1
                return member(w)

            out = orig(ambient_basis, predicate, index_bound)
            p = len(ambient_basis)
            # Schreier: a free basis of an index-ell subgroup of F_p has ell(p-1)+1 words
            counts["freewords.schreier_basis.cosets"] += (len(out) - 1) // (p - 1) if p > 1 else index_bound
            return out

        return self.span("freewords.schreier_basis", functools.wraps(orig)(traced))

    def _after_hooks(self) -> dict[str, Callable]:
        counts = self.counts

        def vertices(args, kwargs, result):
            counts["freewords.stallings.vertices"] += result.num_vertices

        def letters(args, kwargs, result):
            counts["morphisms.FreeMap.apply.letters_in"] += len(args[1])

        def fixed(args, kwargs, result):
            counts["oracle.fixed_elements"] += len(result)

        def coeff(args, kwargs, result):
            self.max_coeff_bits = max(self.max_coeff_bits, max_bits(result))

        hooks: dict[str, Callable] = {name: coeff for name in COEFF_RESULTS}
        hooks["freewords.stallings"] = vertices
        hooks["morphisms.FreeMap.apply"] = letters
        hooks["oracle.brute_fixed"] = fixed
        return hooks

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in record order."""
        index = {sid: i for i, sid in enumerate(self.sid)}
        child = [0.0] * len(self.sid)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[index[p]] += self.end[i] - self.start[i]
        for sid, sums in self.leaf.items():
            if sid >= 0:
                child[index[sid]] += sum(acc[1] for acc in sums.values())
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.sid))]

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass counts and self times by metric name, plus layer shares."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        layer_all: dict[str, float] = defaultdict(float)
        op_time: dict[int, float] = {}
        per_op_layer: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        op_nid = self.name_ids.get(OP_SPAN)
        for i, s in enumerate(selfs):
            name = self.names[self.name[i]]
            out[name + ".self_ms"] += s * 1e3
            layer = layer_of(name)
            layer_all[layer] += s
            per_op_layer[self.op[i]][layer] += s
            if self.name[i] == op_nid:
                op_time[self.op[i]] = self.end[i] - self.start[i]
        index = {sid: i for i, sid in enumerate(self.sid)}
        for sid, sums in self.leaf.items():
            op = self.op[index[sid]] if sid >= 0 else -1
            for name, (calls, secs) in sums.items():
                out[name + ".calls"] += calls
                out[name + ".self_ms"] += secs * 1e3
                layer_all[layer_of(name)] += secs
                per_op_layer[op][layer_of(name)] += secs
        for key, value in self.counts.items():
            out[key] += value
        result = {k: v / passes for k, v in out.items()}
        total = sum(layer_all.values()) or 1.0
        for layer in LAYERS:
            result[f"share.{layer}_pct"] = 100.0 * layer_all.get(layer, 0.0) / total
        # the slowest tenth of operations
        ranked = sorted(op_time, key=op_time.get, reverse=True)
        tail = ranked[: max(1, math.ceil(len(ranked) / 10))]
        tail_layers: dict[str, float] = defaultdict(float)
        for op in tail:
            for layer, s in per_op_layer[op].items():
                tail_layers[layer] += s
        tail_total = sum(tail_layers.values()) or 1.0
        for layer in LAYERS:
            result[f"tail.{layer}_pct"] = 100.0 * tail_layers.get(layer, 0.0) / tail_total
        pvm = self._tail_self(tail, "morphisms.power_vector_matrix", selfs)
        result["tail.power_vector_matrix_pct"] = 100.0 * pvm / tail_total
        result["intlat.max_coeff_bits"] = float(self.max_coeff_bits)
        result["tracing.spans"] = len(self.sid) / passes
        return result

    def _tail_self(self, ops: list[int], name: str, selfs: list[float]) -> float:
        nid = self.name_ids.get(name)
        chosen = set(ops)
        return sum(s for i, s in enumerate(selfs) if self.name[i] == nid and self.op[i] in chosen)

    def dump(self, path: str) -> None:
        """Write every span and the leaf sums as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["id", "parent", "name", "start", "end", "op"],
            "spans": [
                [self.sid[i], self.parent[i], self.name[i], self.start[i], self.end[i], self.op[i]]
                for i in range(len(self.sid))
            ],
            "leaf_sums": {str(sid): sums for sid, sums in self.leaf.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
