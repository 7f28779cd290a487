"""Tests of the benchmark's independent checkers and instance generator.

    python3 fatfbench/test_checkers.py      (or: python3 -m pytest fatfbench)

Each check is shown accepting a real fatf output and rejecting corrupted
copies of it: a flipped t-coordinate, a dropped element, a wrong order.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import instances  # noqa: E402
import refalg  # noqa: E402
import workloads  # noqa: E402
from fatf import cli  # noqa: E402


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def cli_out(argv, payload) -> tuple[int, str]:
    return cli.run(argv, json.dumps(payload) if payload is not None else "")


def edit(out: tuple[int, str], change) -> tuple[int, str]:
    obj = json.loads(out[1])
    change(obj)
    return out[0], json.dumps(obj)


def flip_t(elem: dict) -> None:
    elem["t"][0] = str(int(elem["t"][0]) + 1)


# ---------------------------------------------------------------------------
# reference algebra and generator


def test_reference_action_worked_example():
    # z1 -> z1^-1, Q = diag(1, -1), P = [[1,0],[0,1],[0,2]]: t^(0,1) z3 is fixed
    f = refalg.Ref(2, 3, ((-1,), (2,), (3,)), ((-1,), (2,), (3,)), ((1, 0), (0, -1)), ((1, 0), (0, 1), (0, 2)))
    assert f.act((0, 1), (3,)) == ((0, 1), (3,))
    assert f.act((1, 0), (1, 2)) == ((2, 1), (-1, 2))
    assert not f.fixes((0, 0), (1,))


def test_shortlex_enumerator():
    words = list(refalg.shortlex_words(2, 3))
    assert words[:5] == [(), (1,), (-1,), (2,), (-2,)]
    assert len(words) == 1 + 4 + 4 * 3 + 4 * 9
    keys = [refalg.shortlex_key(w) for w in words]
    assert keys == sorted(keys) and len(set(words)) == len(words)
    assert all(refalg.free_reduce(w) == w for w in words)


def test_generated_finite_order_instances():
    rng = random.Random(5)
    for m, n in [(0, 1), (2, 2), (3, 4), (4, 3)]:
        fo = instances.finite_order(rng, m, n, [1] * n, [i % 2 == 1 for i in range(n)], [1] * m, [True] * m)
        assert refalg.check_inverse(fo.theta, fo.theta_inv)
        power = refalg.ref_identity(m, n)
        for k in range(1, fo.order + 1):
            power = refalg.compose(power, fo.psi)
            assert refalg.is_identity(power) == (k == fo.order)
        for w in fo.fixed_free_basis():
            assert refalg.substitute(w, fo.psi.images) == w
        free, lattice = fo.fixed_subgroup()
        assert all(fo.psi.fixes(t, w) for t, w in free)
        assert all(fo.psi.fixes(v, ()) for v in lattice)


def test_constants_formulas():
    assert refalg.expected_constants(1, 2) == {
        "m": "1", "n": "2", "C": "2", "L1": "2", "L3": "2", "free_per": "720", "C1": "72", "C3": "720",
    }


# ---------------------------------------------------------------------------
# fix-index


def fix_index_output(ell: int):
    from fatf import fixpoint

    ref, _, _ = instances.index_family_f2(random.Random(1), ell)
    psi = workloads.to_fatf(ref, sys.modules["fatf"])
    res = fixpoint.fix_tuple(fixpoint.FixInput((psi,), (((1,), (2,)),)))
    return ref, workloads.fix_result_data(res)


def test_fix_index_check_rejects_corruption():
    ref, data = fix_index_output(9)
    checks.check_fix_index(data, [ref], 9, 2)
    fg, ell, free, lattice = data
    (t, w), rest = free[0], free[1:]
    flipped = ((t[0] + 1,) + t[1:], w)
    assert rejects(checks.check_fix_index, (fg, ell, (flipped,) + rest, lattice), [ref], 9, 2)
    assert rejects(checks.check_fix_index, (fg, ell, rest, lattice), [ref], 9, 2)
    assert rejects(checks.check_fix_index, (fg, 8, free, lattice), [ref], 9, 2)
    assert rejects(checks.check_fix_index, data, [ref], 8, 2)


# ---------------------------------------------------------------------------
# oracle-cross-check


def oracle_case():
    rng = random.Random(3)
    fo = instances.finite_order(rng, 1, 2, [1, 1], [False, True], [1], [False])
    payload = {
        "m": 1,
        "n": 2,
        "morphisms": [instances.morphism_json(fo.psi)],
        "fixed_bases": [[refalg.format_word(w) for w in fo.fixed_free_basis()]],
        "bounds": {"word_len_max": "3", "coord_abs_max": "1"},
    }
    return fo.psi, cli_out(["oracle-check"], payload)


def test_oracle_check_rejects_corruption():
    psi, out = oracle_case()
    checks.check_oracle(out, psi, 3, 1, exhaustive=True)
    fixed = json.loads(out[1])["fixed"]
    assert len(fixed) > 2

    def drop(o):
        del o["fixed"][1]

    def flip(o):
        flip_t(o["fixed"][-1])

    def repeat(o):
        o["fixed"].insert(1, o["fixed"][1])

    def swap(o):
        o["fixed"][1], o["fixed"][-1] = o["fixed"][-1], o["fixed"][1]

    def uncontained(o):
        o["contained"] = False

    assert rejects(checks.check_oracle, edit(out, drop), psi, 3, 1, True)
    for change in (flip, repeat, swap, uncontained):
        assert rejects(checks.check_oracle, edit(out, change), psi, 3, 1, False)
    assert rejects(checks.check_oracle, out, psi, 2, 1, False)


# ---------------------------------------------------------------------------
# cli-mixed


def small_case(m=2, n=3):
    return instances.finite_order(random.Random(11), m, n, [1] * n, [False, True, False][:n], [1] * m, [False, True][:m])


def test_order_and_per_checks_reject_corruption():
    fo = small_case()
    payload = {"m": 2, "n": 3, "morphism": instances.morphism_json(fo.psi)}
    order = cli_out(["order"], payload)
    checks.check_order(order, fo.order)
    assert rejects(checks.check_order, edit(order, lambda o: o.update(order=str(fo.order * 2))), fo.order)
    per = cli_out(["per"], payload)
    checks.check_per(per, fo)
    assert rejects(checks.check_per, edit(per, lambda o: o.update(exponent="1")), fo)
    assert rejects(checks.check_per, edit(per, lambda o: flip_t(o["result"]["basis"]["free"][0])), fo)
    assert rejects(checks.check_per, edit(per, lambda o: o["result"]["basis"]["free"].pop()), fo)


def test_fix_and_closure_checks_reject_corruption():
    fo = small_case()
    payload = {
        "m": 2,
        "n": 3,
        "morphisms": [instances.morphism_json(fo.psi)],
        "fixed_bases": [[refalg.format_word(w) for w in fo.fixed_free_basis()]],
    }
    fix = cli_out(["fix"], payload)
    checks.check_fix(fix, fo.psi)
    assert rejects(checks.check_fix, edit(fix, lambda o: flip_t(o["result"]["basis"]["free"][0])), fo.psi)
    free, lattice = fo.fixed_subgroup()
    payload["subgroup"] = {
        "free": [instances.element_json(t, w) for t, w in free],
        "abelian": [instances.vec_json(v) for v in lattice],
    }
    closure = cli_out(["closure"], payload)
    checks.check_closure(closure, fo.psi)
    assert rejects(checks.check_closure, edit(closure, lambda o: o.update(autofixed=False)), fo.psi)
    assert rejects(checks.check_closure, edit(closure, lambda o: flip_t(o["result"]["basis"]["free"][0])), fo.psi)


def test_basis_member_constants_checks_reject_corruption():
    gens = [((1, 0, 2), (1, 2)), ((0, 0, 0), (2,)), ((2, 0, 0), ()), ((0, 3, 1), ())]
    payload = {"m": 3, "n": 2, "generators": [instances.element_json(t, w) for t, w in gens]}
    basis = cli_out(["basis"], payload)
    hnf = [(2, 0, 0), (0, 3, 1)]
    checks.check_basis(basis, 2, hnf)
    assert rejects(checks.check_basis, basis, 2, [(1, 0, 0), (0, 3, 1)])
    assert rejects(checks.check_basis, edit(basis, lambda o: o["basis"]["free"].pop()), 2, hnf)
    assert rejects(checks.check_same_bytes, basis, edit(basis, lambda o: flip_t(o["basis"]["free"][0])))

    subgroup = {"free": [instances.element_json(t, w) for t, w in gens[:2]], "abelian": [instances.vec_json(v) for v in hnf]}
    element = instances.element_json((3, 3, 3), (1, 2, 2))  # gens0 * gens1 + (2,0,0) + (0,3,1)
    member = cli_out(["member"], {"m": 3, "n": 2, "subgroup": subgroup, "element": element})
    checks.check_member(member, True)
    assert rejects(checks.check_member, member, False)
    off = refalg.vec_add((3, 3, 3), refalg.outside_hnf_lattice(hnf, 3))
    miss = cli_out(["member"], {"m": 3, "n": 2, "subgroup": subgroup, "element": instances.element_json(off, (1, 2, 2))})
    checks.check_member(miss, False)

    constants = cli.run(["constants", "--m", "3", "--n", "2"], "")
    expected = refalg.expected_constants(3, 2)
    checks.check_constants(constants, expected)
    assert rejects(checks.check_constants, edit(constants, lambda o: o.update(C1="1")), expected)


def test_d2_reorder_is_caught():
    gens = [((1, 0), (1,)), ((0, 1), (1,))]
    first = cli_out(["basis"], {"m": 2, "n": 1, "generators": [instances.element_json(t, w) for t, w in gens]})
    again = cli_out(["basis"], {"m": 2, "n": 1, "generators": [instances.element_json(t, w) for t, w in reversed(gens)]})
    checks.check_basis(first, 1, [(1, -1)])
    checks.check_basis(again, 1, [(1, -1)])
    assert rejects(checks.check_same_bytes, again, first)


def test_benchmark_json_lists_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run._per_layer()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as e:  # report every test, then fail as a whole
                failures += 1
                print(f"FAIL {name}: {type(e).__name__}: {e}")
    sys.exit(1 if failures else 0)
