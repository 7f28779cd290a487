"""Command-line front end: JSON in on stdin, JSON out on stdout.

Exit codes: 0 success; 2 for a rejected input, with one JSON error object
on stdout; 64 unknown subcommand; 65 malformed JSON, nesting too deep and
numbers too long to parse included. `run` is the one boundary: every
ValueError a library call raises for an input it rejects (payload shape,
validation, budget overrun) and every failed certificate (CertificateError)
exits 2. Any other exception is an internal fault and propagates.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Any

from . import bounds as bounds_mod
from . import budget, fixpoint, freewords, jsonio, morphisms, oracle
from .fatfcore import Ambient, Vec, member, members, subgroup_basis

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNKNOWN = 64
EXIT_BAD_JSON = 65


def _dump(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _ambient(payload: dict) -> Ambient:
    try:
        m = jsonio._int(payload.get("m"))
        n = jsonio._int(payload.get("n"))
    except ValueError:
        raise ValueError("payload needs integer fields m and n") from None
    return Ambient(m, n)


def _fix_input(payload: dict, ambient: Ambient) -> fixpoint.FixInput:
    morph_obj = payload.get("morphisms")
    bases_obj = payload.get("fixed_bases")
    if not isinstance(morph_obj, list) or not isinstance(bases_obj, list):
        raise ValueError("payload needs lists morphisms and fixed_bases")
    maps = tuple(jsonio.morphism_from_json(o, ambient) for o in morph_obj)
    bases = []
    for b in bases_obj:
        if not isinstance(b, list):
            raise ValueError("each fixed basis must be a list of words")
        bases.append(tuple(jsonio.word_from_json(w) for w in b))
    return fixpoint.FixInput(maps, tuple(bases))


def _cmd_basis(payload: dict, ambient: Ambient) -> dict:
    gens_obj = payload.get("generators")
    if not isinstance(gens_obj, list):
        raise ValueError("payload needs a list of generators")
    gens = [jsonio.element_from_json(o, ambient) for o in gens_obj]
    H = subgroup_basis(gens, ambient)
    return {"basis": jsonio.subgroup_to_json(H)}


def _cmd_member(payload: dict, ambient: Ambient) -> dict:
    H = jsonio.subgroup_from_json(payload.get("subgroup"), ambient)
    g = jsonio.element_from_json(payload.get("element"), ambient)
    return {"member": member(H, g)}


def _cmd_fix(payload: dict, ambient: Ambient) -> dict:
    inp = _fix_input(payload, ambient)
    res = fixpoint.fix_tuple(inp)
    return {"result": jsonio.fix_result_to_json(res)}


def _cmd_per(payload: dict, ambient: Ambient) -> dict:
    psi = jsonio.morphism_from_json(payload.get("morphism"), ambient)
    e = fixpoint.periodic_exponent(psi)
    res = fixpoint.fix_power(psi, e)
    return {"exponent": str(e), "result": jsonio.fix_result_to_json(res)}


def _cmd_order(payload: dict, ambient: Ambient) -> dict:
    psi = jsonio.morphism_from_json(payload.get("morphism"), ambient)
    if psi.phi.inverse_images is None:
        raise ValueError("order needs a morphism with inverse images")
    return {"order": jsonio._count_to_json(morphisms.order(psi))}


def _cmd_closure(payload: dict, ambient: Ambient) -> dict:
    H = jsonio.subgroup_from_json(payload.get("subgroup"), ambient)
    inp = _fix_input(payload, ambient)
    res = fixpoint.autofixed_closure(H, inp)
    return {
        "result": jsonio.fix_result_to_json(res),
        "autofixed": res.basis == H,
    }


def _cmd_constants(argv: list[str]) -> dict:
    """Reads only its argv flags, never stdin."""
    m = n = None
    it = iter(argv)
    for flag in it:
        if flag == "--m":
            m = next(it, None)
        elif flag == "--n":
            n = next(it, None)
        else:
            raise ValueError(f"unknown flag {flag!r}")
    if m is None or n is None:
        raise ValueError("constants needs --m and --n")
    report = bounds_mod.constants(int(m), int(n))
    return {k: str(v) for k, v in dataclasses.asdict(report).items()}


def _cmd_oracle_check(payload: dict, ambient: Ambient) -> dict:
    inp = _fix_input(payload, ambient)
    b_obj = payload.get("bounds")
    if not isinstance(b_obj, dict):
        raise ValueError("payload needs a bounds object")
    bnds = oracle.Bounds(
        jsonio._int(b_obj.get("word_len_max", 0)),
        jsonio._int(b_obj.get("coord_abs_max", 0)),
    )
    runs = oracle.brute_fixed(list(inp.morphisms), bnds)
    res = fixpoint.fix_tuple(inp)
    # each word is spelled once, each distinct vector converted once
    texts: dict[Vec, list[str]] = {}
    fixed = []
    for w, vecs in runs:
        word = freewords.format_word(w)
        for a in vecs:
            if a not in texts:
                texts[a] = jsonio.vec_to_json(a)
        fixed.extend([{"t": texts[a], "w": word} for a in vecs])
    return {
        "fixed": fixed,
        "fg": res.finitely_generated,
        "contained": None if res.basis is None else all(members(res.basis, runs)),
    }


COMMANDS = {
    "basis": _cmd_basis,
    "member": _cmd_member,
    "fix": _cmd_fix,
    "per": _cmd_per,
    "order": _cmd_order,
    "closure": _cmd_closure,
    "constants": _cmd_constants,
    "oracle-check": _cmd_oracle_check,
}


def run(argv: list[str], stdin: str) -> tuple[int, str]:
    handler = COMMANDS.get(argv[0]) if argv else None
    if handler is None:
        return EXIT_UNKNOWN, _dump({"ok": False, "error": "unknown subcommand"})
    if handler is not _cmd_constants:
        try:
            payload = json.loads(stdin) if stdin.strip() else {}
        except (ValueError, RecursionError) as e:
            # JSONDecodeError is a ValueError, as is a number past the
            # interpreter's digit limit
            return EXIT_BAD_JSON, _dump({"ok": False, "error": f"malformed JSON: {e}"})
        if not isinstance(payload, dict):
            return EXIT_BAD_JSON, _dump({"ok": False, "error": "payload must be an object"})
    # the library raises ValueError only for inputs it rejects; other faults propagate
    try:
        with budget.scope():
            reply = handler(argv[1:]) if handler is _cmd_constants else handler(payload, _ambient(payload))
    except (ValueError, fixpoint.CertificateError) as e:
        return EXIT_VALIDATION, _dump({"ok": False, "error": str(e)})
    return EXIT_OK, _dump({"ok": True, **reply})


def main() -> None:
    code, out = run(sys.argv[1:], sys.stdin.read() if not sys.stdin.isatty() else "")
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
