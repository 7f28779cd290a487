"""The three workloads: seeded inputs, the operations timed on them, and the
independent check of every output.

A workload is a fixed list of operations, one pass. The seed changes the
contents of every instance (conjugators, words, lattices, letter choices)
but never the size schedule, so every seed gives the same mix of size
classes and the same number of operations per pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import checks
from instances import (
    element_json,
    finite_order,
    index_family_f2,
    index_family_f3,
    mix_rows,
    morphism_json,
    other_basis,
    random_hnf,
    random_product,
    vec_json,
)
from refalg import (
    Ref,
    Vec,
    Word,
    check_inverse,
    expected_constants,
    format_word,
    outside_hnf_lattice,
    ref_identity,
    vec_add,
)

WORKLOADS = ("fix-index", "oracle-cross-check", "cli-mixed")


@dataclass
class Op:
    """One timed call and the check of its output.

    `check(output, outputs)` raises checks.CheckFailed; `outputs` maps the
    names of the operations already run in this pass to their outputs.
    `fingerprint(output)` identifies an output that has passed its check
    once, so a repeat of it in a later pass needs no second full check.
    """

    name: str
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], None]
    fingerprint: Optional[Callable[[Any], str]] = None
    known_fault: Optional[str] = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Op]
    classes: dict[str, int] = field(default_factory=dict)


def build(name: str, seed: int, fatf) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    make = {
        "fix-index": build_fix_index,
        "oracle-cross-check": build_oracle,
        "cli-mixed": build_cli_mixed,
    }[name]
    ops, warmup = make(rng, fatf)
    wl = Workload(name, ops, warmup)
    for op in ops:
        wl.classes[op.kind] = wl.classes.get(op.kind, 0) + 1
    return wl


def require_inverse(f: Ref, f_inv: Ref) -> None:
    if not check_inverse(f, f_inv):
        raise RuntimeError("generated conjugator is not inverted by its partner")


# ---------------------------------------------------------------------------
# fix-index: library API, coset index ell swept


def to_fatf(f: Ref, fatf):
    amb = fatf.Ambient(f.m, f.n)
    phi = fatf.FreeMap(list(f.images), list(f.inverse_images), f.n)
    return fatf.Morphism(amb, phi, fatf.IntMatrix(list(f.Q), cols=f.m), fatf.IntMatrix(list(f.P), cols=f.m))


def fix_result_data(res) -> tuple:
    """(fg, ell, free part, abelian rows) read off a FixResult."""
    if not res.finitely_generated:
        return (False, res.diagnostics.ell, (), ())
    basis = res.basis
    return (
        True,
        res.diagnostics.ell,
        tuple((tuple(t), tuple(w)) for t, w in basis.free_part),
        tuple(tuple(r) for r in basis.abelian_part.basis.entries),
    )


# sizes per class, and how many operations of each class one pass holds;
# the shares put op_p50_ms inside the middle class and op_p90_ms inside the
# largest one, away from the class boundaries
FIX_SIZES = {"S": (4, 2), "M": (16, 4), "L": (64, 8)}  # ell on F_2, a on F_3 (ell = a^2)
FIX_EXTRA = {"S": 2, "M": 3, "L": 0}


def build_fix_index(rng: random.Random, fatf) -> tuple[list[Op], list[Op]]:
    from fatf import fixpoint

    ops: list[Op] = []
    warm: list[Op] = []
    for cls, (ell, a) in FIX_SIZES.items():
        group: list[Op] = []

        def f2() -> tuple[Ref, Any]:
            ref, theta, theta_inv = index_family_f2(rng, ell)
            require_inverse(theta, theta_inv)
            return ref, to_fatf(ref, fatf)

        def single(kind: str, refs: Sequence[Ref], psis, bases, expect_ell: int, p: int) -> Op:
            inp_args = (tuple(psis), tuple(tuple(b) for b in bases))

            def call():
                return fixpoint.fix_tuple(fixpoint.FixInput(*inp_args))

            def check(out, _outputs):
                checks.check_fix_index(fix_result_data(out), refs, expect_ell, p)

            return Op(
                f"{kind}/{cls}/{len(ops) + len(group)}",
                f"{kind}/{cls}",
                call,
                check,
                lambda out: repr(fix_result_data(out)),
            )

        full2 = [(1,), (2,)]
        full3 = [(1,), (2,), (3,)]
        ref, psi = f2()
        group.append(single("fix-f2", [ref], [psi], [full2], ell, 2))
        ref3 = index_family_f3(rng, a)
        group.append(single("fix-f3", [ref3], [to_fatf(ref3, fatf)], [full3], a * a, 3))
        ref, psi = f2()
        ident = ref_identity(2, 2)
        group.append(single("pair", [ref, ident], [psi, to_fatf(ident, fatf)], [full2, other_basis(rng, 2, 3)], ell, 2))

        ref, psi = f2()
        group.append(
            Op(
                f"periodic/{cls}/{len(ops) + len(group)}",
                f"periodic/{cls}",
                lambda psi=psi: fixpoint.periodic_subgroup(psi),
                lambda out, _o, ref=ref, ell=ell: checks.check_fix_index(fix_result_data(out), [ref], ell, 2),
                lambda out: repr(fix_result_data(out)),
            )
        )

        # is_autofixed needs H = Fix psi: computed once here and checked
        # independently before it is used as an input
        ref, psi = f2()
        fix_inp = fixpoint.FixInput((psi,), (tuple(full2),))
        H_res = fixpoint.fix_tuple(fix_inp)
        checks.check_fix_index(fix_result_data(H_res), [ref], ell, 2)
        H = H_res.basis
        group.append(
            Op(
                f"autofixed/{cls}/{len(ops) + len(group)}",
                f"autofixed/{cls}",
                lambda H=H, inp=fix_inp: fixpoint.is_autofixed(H, fixpoint.FixInput(inp.morphisms, inp.fixed_free_bases)),
                lambda out, _o: checks.check_true(out, "is_autofixed of Fix"),
                repr,
            )
        )
        for i in range(FIX_EXTRA[cls]):
            if i % 2 == 0:
                ref, psi = f2()
                group.append(single("fix-f2", [ref], [psi], [full2], ell, 2))
            else:
                ref3 = index_family_f3(rng, a)
                group.append(single("fix-f3", [ref3], [to_fatf(ref3, fatf)], [full3], a * a, 3))
        if cls == "S":
            warm = list(group)
        ops.extend(group)
    rng.shuffle(ops)
    return ops, warm


# ---------------------------------------------------------------------------
# oracle-cross-check: the oracle-check subcommand at Bounds(5, 2)

# (n, free cycle shape with negative flags) per slot; every shape has at most
# one fixed letter, so the fixed set inside the bounds stays small and the
# cost of a slot does not swing with the seed
ORACLE_SHAPES = {
    1: [([1], [False]), ([1], [True])],
    2: [([2], [False]), ([1, 1], [False, True]), ([2], [True])],
    3: [([3], [False]), ([1, 2], [False, False]), ([1, 2], [False, True]), ([1, 1, 1], [False, True, True])],
    4: [([4], [False]), ([1, 3], [False, False]), ([2, 2], [False, True]), ([1, 1, 2], [True, False, True])],
}
# per pass at Bounds(5, 2); the cost grows about fivefold with each n, and
# these shares put op_p50_ms inside the n = 3 group and op_p90_ms inside n = 4
ORACLE_COUNTS = {1: 24, 2: 28, 3: 56, 4: 48}
ORACLE_SMALL = 4  # per n, at Bounds(3, 1), also compared with a full enumeration
ORACLE_BOUNDS = (5, 2)
ORACLE_SMALL_BOUNDS = (3, 1)


def m_shape(rng: random.Random, m: int) -> tuple[list[int], list[bool]]:
    """Cycle shape of the abelian signed permutation: singletons, half negative."""
    return [1] * m, [i % 2 == 1 for i in range(m)]


def build_oracle(rng: random.Random, fatf) -> tuple[list[Op], list[Op]]:
    from fatf import cli

    ops: list[Op] = []
    warm: list[Op] = []
    for n, count in ORACLE_COUNTS.items():
        shapes = ORACLE_SHAPES[n]
        for i in range(count + ORACLE_SMALL):
            m = i % 5
            n_cycles, n_neg = shapes[i % len(shapes)]
            mc, mneg = m_shape(rng, m)
            fo = finite_order(rng, m, n, n_cycles, n_neg, mc, mneg)
            require_inverse(fo.theta, fo.theta_inv)
            small = i >= count
            L, c = ORACLE_SMALL_BOUNDS if small else ORACLE_BOUNDS
            payload = json.dumps({
                "m": m,
                "n": n,
                "morphisms": [morphism_json(fo.psi)],
                "fixed_bases": [[format_word(w) for w in fo.fixed_free_basis()]],
                "bounds": {"word_len_max": str(L), "coord_abs_max": str(c)},
            })
            kind = f"oracle/n{n}" + ("/small" if small else "")
            op = Op(
                f"{kind}/{i}",
                kind,
                lambda payload=payload: cli.run(["oracle-check"], payload),
                lambda out, _o, psi=fo.psi, L=L, c=c, small=small: checks.check_oracle(out, psi, L, c, exhaustive=small),
                lambda out: out[1],
            )
            ops.append(op)
            if small and i == count:
                warm.append(op)
    rng.shuffle(ops)
    return ops, warm


# ---------------------------------------------------------------------------
# cli-mixed: every other subcommand on JSON payloads

# inputs whose bases come out in the order of their generators (ROADMAP D2)
D2_INPUTS = [
    (2, 1, [((1, 0), (1,)), ((0, 1), (1,))]),
]

# (m, n, abelian cycles, negative flags, free cycles, negative flags): orders
# 30, 60, 105, 210 and 420, LARGE_COPIES instances of each per pass. With
# SMALL_COUNTS, 60 of the 75 operations of a pass cost less than these, so
# op_p90_ms falls in the middle of the order-105 group and op_p50_ms among
# the small requests
LARGE_ORDERS = [
    (8, 2, [3, 5], [False, False], [2], [False]),
    (10, 3, [4, 5, 1], [False, False, False], [3], [False]),
    (12, 3, [5, 7], [False, False], [3], [False]),
    (12, 3, [5, 7], [False, True], [3], [False]),
    (12, 7, [5, 7], [False, False], [3, 4], [False, False]),
]
LARGE_COPIES = 3
LARGE_PER = (1, 2, 3)  # indices into LARGE_ORDERS also sent to per
SMALL_SIZES = [(1, 2), (2, 3), (3, 4), (4, 1), (2, 2), (4, 4), (3, 1), (1, 3)]
# per pass: basis (each also reordered), member pairs (true and false), fix,
# order, closure, per, constants. The 28 basis, member and constants requests
# cost less than fix and order, and fix and order all have the size
# BLOCK_SIZE, so op_p50_ms falls in the middle of a block of 19 requests of
# one size instead of on a slope between sizes
SMALL_COUNTS = {"basis": 6, "member": 5, "fix": 10, "order": 9, "closure": 2, "per": 2, "constants": 4}
BLOCK_SIZE = (2, 3)


def small_finite_order(rng: random.Random, m: int, n: int):
    n_cycles, n_neg = ([1] * n, [i % 2 == 1 for i in range(n)])
    m_cycles, m_neg = ([1] * m, [i % 2 == 0 for i in range(m)])
    fo = finite_order(rng, m, n, n_cycles, n_neg, m_cycles, m_neg)
    require_inverse(fo.theta, fo.theta_inv)
    return fo


def build_cli_mixed(rng: random.Random, fatf) -> tuple[list[Op], list[Op]]:
    from fatf import cli

    # operations come in groups that stay together when the pass is shuffled:
    # a basis-reorder operation is checked against the basis output before it
    groups: list[list[Op]] = []
    sizes = iter(SMALL_SIZES * 10)
    count = 0

    def cli_op(kind: str, argv: list[str], payload: str, check, known_fault=None, fingerprint=True) -> Op:
        nonlocal count
        count += 1
        return Op(
            f"{kind}/{count}",
            kind,
            lambda: cli.run(argv, payload),
            check,
            (lambda out: out[1]) if fingerprint else None,
            known_fault,
        )

    def basis_pair(m: int, n: int, gens: list[tuple[Vec, Word]], order: list[int], rank: int, hnf, fault=None):
        first = cli_op(
            "basis",
            ["basis"],
            json.dumps({"m": m, "n": n, "generators": [element_json(t, w) for t, w in gens]}),
            lambda out, _o: checks.check_basis(out, rank, hnf),
        )
        again = cli_op(
            "basis-reorder",
            ["basis"],
            json.dumps({"m": m, "n": n, "generators": [element_json(*gens[i]) for i in order]}),
            lambda out, outputs: checks.check_same_bytes(out, outputs.get(first.name)),
            known_fault=fault,
            fingerprint=False,
        )
        groups.append([first, again])

    # basis, sent twice: in the built order and in a seeded other order
    for _ in range(SMALL_COUNTS["basis"]):
        m, n = next(sizes)
        r = rng.randint(1, n)
        free = [(tuple(rng.randint(-3, 3) for _ in range(m)), w) for w in other_basis(rng, n, 3)[:r]]
        hnf = random_hnf(rng, m, rng.randint(1, m))
        gens = free + [(v, ()) for v in mix_rows(rng, hnf, m)]
        order = list(range(len(gens)))
        while order == sorted(order):
            rng.shuffle(order)
        basis_pair(m, n, gens, order, r, hnf)
    for m, n, gens in D2_INPUTS:
        basis_pair(m, n, gens, list(reversed(range(len(gens)))), 1, [(1, -1)], fault="D2")

    # member: a product of basis elements, then the same with t moved off the lattice
    for _ in range(SMALL_COUNTS["member"]):
        m, n = next(sizes)
        r = rng.randint(1, n)
        free = [(tuple(rng.randint(-3, 3) for _ in range(m)), w) for w in other_basis(rng, n, 3)[:r]]
        hnf = random_hnf(rng, m, rng.randint(0, m - 1))
        subgroup = {"free": [element_json(t, w) for t, w in free], "abelian": [vec_json(v) for v in hnf]}
        t, w = random_product(rng, free, hnf, m, 4)
        for expected, tt in ((True, t), (False, vec_add(t, outside_hnf_lattice(hnf, m)))):
            payload = json.dumps({"m": m, "n": n, "subgroup": subgroup, "element": element_json(tt, w)})
            groups.append([cli_op("member", ["member"], payload, lambda out, _o, e=expected: checks.check_member(out, e))])

    # fix, order, closure and per on small finite-order morphisms
    def fix_payload(m: int, n: int, fo) -> dict:
        return {
            "m": m,
            "n": n,
            "morphisms": [morphism_json(fo.psi)],
            "fixed_bases": [[format_word(w) for w in fo.fixed_free_basis()]],
        }

    for _ in range(SMALL_COUNTS["fix"]):
        m, n = BLOCK_SIZE
        fo = small_finite_order(rng, m, n)
        payload = json.dumps(fix_payload(m, n, fo))
        groups.append([cli_op("fix", ["fix"], payload, lambda out, _o, psi=fo.psi: checks.check_fix(out, psi))])
    for _ in range(SMALL_COUNTS["closure"]):
        m, n = next(sizes)
        fo = small_finite_order(rng, m, n)
        free, lattice = fo.fixed_subgroup()
        payload = fix_payload(m, n, fo)
        payload["subgroup"] = {"free": [element_json(t, w) for t, w in free], "abelian": [vec_json(v) for v in lattice]}
        groups.append([cli_op("closure", ["closure"], json.dumps(payload), lambda out, _o, psi=fo.psi: checks.check_closure(out, psi))])
    for _ in range(SMALL_COUNTS["order"]):
        m, n = BLOCK_SIZE
        fo = small_finite_order(rng, m, n)
        payload = json.dumps({"m": m, "n": n, "morphism": morphism_json(fo.psi)})
        groups.append([cli_op("order", ["order"], payload, lambda out, _o, k=fo.order: checks.check_order(out, k))])
    for _ in range(SMALL_COUNTS["per"]):
        m, n = next(sizes)
        fo = small_finite_order(rng, m, n)
        payload = json.dumps({"m": m, "n": n, "morphism": morphism_json(fo.psi)})
        groups.append([cli_op("per", ["per"], payload, lambda out, _o, fo=fo: checks.check_per(out, fo))])
    for _ in range(SMALL_COUNTS["constants"]):
        m, n = next(sizes)
        argv = ["constants", "--m", str(m), "--n", str(n)]
        expected = expected_constants(m, n)
        groups.append([cli_op("constants", argv, "", lambda out, _o, e=expected: checks.check_constants(out, e))])

    # the large share: order and per at m from 8 to 12
    for idx, (m, n, mc, mneg, nc, nneg) in enumerate(LARGE_ORDERS * LARGE_COPIES):
        idx %= len(LARGE_ORDERS)
        fo = finite_order(rng, m, n, nc, nneg, mc, mneg)
        require_inverse(fo.theta, fo.theta_inv)
        payload = json.dumps({"m": m, "n": n, "morphism": morphism_json(fo.psi)})
        groups.append([cli_op("order-large", ["order"], payload, lambda out, _o, k=fo.order: checks.check_order(out, k))])
        if idx in LARGE_PER:
            groups.append([cli_op("per-large", ["per"], payload, lambda out, _o, fo=fo: checks.check_per(out, fo))])

    # warm-up: the first operation of each kind, plus the largest per, whose
    # charpoly scan fills the cyclotomic cache up to degree 2m^2+1
    ops_in_order = [op for g in groups for op in g]
    warm: dict[str, Op] = {}
    for op in ops_in_order:
        if op.kind not in ("order-large", "per-large", "basis-reorder"):
            warm.setdefault(op.kind, op)
    warm["per-large"] = [op for op in ops_in_order if op.kind == "per-large"][-1]
    rng.shuffle(groups)
    return [op for g in groups for op in g], list(warm.values())
