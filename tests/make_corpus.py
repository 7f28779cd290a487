"""Write tests/fixtures/corpus.jsonl: CLI requests with the bytes they print.

Each line is one request, a JSON object with
  case    a label naming the generator and its parameters,
  argv    the subcommand and its flags,
  stdin   the JSON payload as sent,
  exit    the exit code `cli.run` returned,
  sha256  the hex digest of what it wrote on stdout.

The inputs come from the seeded generators of tests/conftest.py and the golden
fixtures. The file is the contract, not this script: test_corpus.py replays
the stored inputs and never regenerates them, so a change to a generator cannot
change the corpus silently. Rewrite it only on purpose, with the reason in
CHANGES.md:

    PYTHONPATH=src python tests/make_corpus.py [OUT]
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import random
import sys

from conftest import (
    random_element,
    random_finite_order_matrix,
    random_finite_order_morphism,
    random_matrix,
    random_morphism,
)
from fatf import Ambient, FreeMap, GroupElement, IntMatrix, Morphism, fix_tuple, inv, mul, subgroup_basis
from fatf.cli import run
from fatf.fixpoint import FixInput
from fatf.freewords import format_word
from fatf.jsonio import element_to_json, subgroup_to_json

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = ["basis", "member", "fix", "per", "order", "closure", "oracle-check"]


def _mat(M: IntMatrix) -> list[list[str]]:
    return [[str(x) for x in r] for r in M.entries]


def _morphism(psi: Morphism) -> dict:
    out = {"phi": [format_word(w) for w in psi.phi.images], "Q": _mat(psi.Q), "P": _mat(psi.P)}
    if psi.phi.inverse_images is not None:
        out["phi_inv"] = [format_word(w) for w in psi.phi.inverse_images]
    return out


def _amb(amb: Ambient) -> dict:
    return {"m": amb.m, "n": amb.n}


def _fix_body(maps, bases) -> dict:
    return {
        **_amb(maps[0].ambient),
        "morphisms": [_morphism(psi) for psi in maps],
        "fixed_bases": [[format_word(w) for w in b] for b in bases],
    }


def _ell_family(ell: int) -> Morphism:
    """phi = id, Q = [[ell+2, 1], [-1, 0]], P = I on Z^2 x F_2: Fix has coset index ell."""
    return Morphism(Ambient(2, 2), FreeMap.identity(2), IntMatrix([[ell + 2, 1], [-1, 0]]), IntMatrix.identity(2))


def _identity_free(rng: random.Random, amb: Ambient) -> Morphism:
    """phi = id with a finite-order Q and a small P: Fix phi is F_n, basis z1..zn."""
    return Morphism(amb, FreeMap.identity(amb.n), random_finite_order_matrix(rng, amb.m),
                    random_matrix(rng, amb.n, amb.m, bound=1))


def _gens(n: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(1, n + 1)]


def _ambients(rng: random.Random, count: int, m_max: int, n_min: int, n_max: int) -> list[Ambient]:
    return [Ambient(rng.randint(0, m_max), rng.randint(n_min, n_max)) for _ in range(count)]


def basis_cases(rng):
    for i, amb in enumerate(_ambients(rng, 36, 3, 0, 3) + [Ambient(0, 0), Ambient(2, 0)]):
        gens = [random_element(rng, amb, max_len=5) for _ in range(rng.randint(0, 4))]
        body = {**_amb(amb), "generators": [element_to_json(g) for g in gens]}
        yield f"basis/random/{i}", ["basis"], body


def member_cases(rng):
    for i, amb in enumerate(_ambients(rng, 40, 3, 1, 3)):
        gens = [random_element(rng, amb, max_len=4) for _ in range(rng.randint(1, 3))]
        H = subgroup_basis(gens, amb)
        if i % 2:
            pool = gens + [inv(g) for g in gens]
            g = functools.reduce(mul, rng.choices(pool, k=rng.randint(1, 3)))
        else:
            g = random_element(rng, amb)
        body = {**_amb(amb), "subgroup": subgroup_to_json(H), "element": element_to_json(g)}
        yield f"member/{'product' if i % 2 else 'random'}/{i}", ["member"], body


def _finite_order_inputs(rng):
    """(label, FixInput) pairs: single finite-order maps, pairs with a map
    fixing all of F_n, the ell family up to 256 and maps of infinite order
    with the empty fixed basis (a sub-basis, accepted on purpose)."""
    for i, amb in enumerate(_ambients(rng, 30, 4, 1, 3)):
        psi, basis, _ = random_finite_order_morphism(rng, amb)
        yield f"single/{i}", FixInput((psi,), (tuple(basis),))
    for i, amb in enumerate(_ambients(rng, 12, 3, 1, 3)):
        psi, basis, _ = random_finite_order_morphism(rng, amb)
        yield f"pair/{i}", FixInput((psi, _identity_free(rng, amb)), (tuple(basis), tuple(_gens(amb.n))))
    for ell in (1, 2, 3, 4, 5, 8, 16, 32, 64, 100, 128, 256):
        psi = _ell_family(ell)
        yield f"ell/{ell}", FixInput((psi,), (((1,), (2,)),))
        # the same subgroup met through another basis of F_2
        other = Morphism(psi.ambient, FreeMap.identity(2), IntMatrix.identity(2), IntMatrix.zeros(2, 2))
        yield f"ell-pair/{ell}", FixInput((psi, other), (((1,), (2,)), ((2, 1), (1,))))
    for i, amb in enumerate(_ambients(rng, 8, 3, 2, 3)):
        yield f"infinite/{i}", FixInput((random_morphism(rng, amb),), ((),))


def fix_cases(rng):
    for label, inp in _finite_order_inputs(rng):
        yield f"fix/{label}", ["fix"], _fix_body(inp.morphisms, inp.fixed_free_bases)


def _single_morphisms(rng, count: int, m_max: int):
    """Finite-order maps at m up to m_max, the same with P redrawn (mostly
    of infinite order) and random maps (infinite order phi); then three maps
    each at m = 8, 10 and 12, the last with P redrawn."""
    for i in range(count):
        amb = Ambient(rng.randint(0, m_max), rng.randint(1, 3))
        psi, _, _ = random_finite_order_morphism(rng, amb)
        kind = ("finite", "new P", "random")[i % 3]
        if kind == "new P":
            psi = Morphism(amb, psi.phi, psi.Q, random_matrix(rng, amb.n, amb.m, bound=1))
        elif kind == "random":
            psi = random_morphism(rng, Ambient(min(amb.m, 4), amb.n))
        yield f"{kind}/m{psi.ambient.m}/{i}", psi
    for m in (8, 10, 12):
        for i in range(3):
            psi, _, _ = random_finite_order_morphism(rng, Ambient(m, rng.randint(1, 3)))
            if i == 2:
                psi = Morphism(psi.ambient, psi.phi, psi.Q, random_matrix(rng, psi.ambient.n, m, bound=1))
            yield f"large/m{m}/{i}", psi


def order_cases(rng):
    for label, psi in _single_morphisms(rng, 48, 12):
        yield f"order/{label}", ["order"], {**_amb(psi.ambient), "morphism": _morphism(psi)}
    for m in range(2, 13, 2):
        psi = _identity_free(rng, Ambient(m, rng.randint(0, 2)))
        yield f"order/identity-phi/m{m}", ["order"], {**_amb(psi.ambient), "morphism": _morphism(psi)}


def per_cases(rng):
    for label, psi in _single_morphisms(rng, 36, 12):
        yield f"per/{label}", ["per"], {**_amb(psi.ambient), "morphism": _morphism(psi)}


def closure_cases(rng):
    """H is the answer (autofixed), a subgroup of it (closure answered, not
    autofixed), the answer with a unit vector added to its generators
    (mostly ValueError: not fixed) or the answer against a fixed basis
    missing one word (CertificateError: the closure must contain H)."""
    for label, inp in _finite_order_inputs(rng):
        # a prefix match: the ell family at 1, 16, 100 and 128 is left out too
        if label.startswith(("infinite", "ell/1", "ell-pair")):
            continue
        B = fix_tuple(inp).basis
        if B is None:
            continue
        amb = B.ambient
        gens = B.basis_elements()
        pool = gens + [inv(g) for g in gens]
        sub = [functools.reduce(mul, rng.choices(pool, k=2)) for _ in range(rng.randint(1, 2))] if pool else []
        cases = [("answer", B, inp), ("subgroup", subgroup_basis(sub, amb), inp)]
        if amb.m and label.startswith("single"):
            e = [0] * amb.m
            e[rng.randrange(amb.m)] = 1
            moved = subgroup_basis(gens + [GroupElement(amb, tuple(e), ())], amb)
            cases.append(("moved", moved, inp))
        bases = inp.fixed_free_bases
        if len(inp.morphisms) == 1 and bases[0] and not inp.morphisms[0].phi.is_identity():
            cases.append(("short basis", B, FixInput(inp.morphisms, (bases[0][1:],))))
        for kind, H, stab in cases:
            body = {**_fix_body(stab.morphisms, stab.fixed_free_bases), "subgroup": subgroup_to_json(H)}
            yield f"closure/{label}/{kind}", ["closure"], body


def oracle_cases(rng):
    for i, amb in enumerate(_ambients(rng, 48, 4, 1, 3)):
        psi, basis, _ = random_finite_order_morphism(rng, amb)
        maps, bases = [psi], [basis]
        if i % 4 == 3:
            maps.append(_identity_free(rng, amb))
            bases.append(_gens(amb.n))
        body = {**_fix_body(maps, bases), "bounds": {"word_len_max": "5", "coord_abs_max": "2"}}
        yield f"oracle-check/{len(maps)}/{i}", ["oracle-check"], body


def constants_cases(rng):
    for m, n in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (3, 5), (8, 3), (12, 7), (100, 250)]:
        yield f"constants/{m}-{n}", ["constants", "--m", str(m), "--n", str(n)], None
    for flags in (["--m", "1"], ["--m", "1", "--n", "2", "--k", "3"], ["--m", "-1", "--n", "2"]):
        yield f"constants/error/{' '.join(flags)}", ["constants", *flags], None


def free_map_check_cases(rng):
    """One payload per FreeMap check, and payloads that fail two checks at
    once, so the order in which they are made is pinned: the letters of the
    images, then those of the inverse images, then the image count, then the
    inverse count, then whether the inverse undoes the map."""
    good = {"phi": ["z1 z2", "z2"], "phi_inv": ["z1 z2^-1", "z2"], "Q": [["1"]], "P": [["0"], ["1"]]}
    variants = {
        "valid": {},
        "image count": {"phi": ["z1 z2"]},
        "image letter": {"phi": ["z1 z3", "z2"]},
        "inverse letter": {"phi_inv": ["z1 z2^-1", "z3"]},
        "inverse count": {"phi_inv": ["z1 z2^-1"]},
        "does not undo": {"phi_inv": ["z1 z2", "z2"]},
        "image count and inverse count": {"phi": ["z1 z2"], "phi_inv": ["z2"]},
        "image letter and inverse letter": {"phi": ["z1 z3", "z2"], "phi_inv": ["z1", "z4"]},
        "inverse letter and inverse count": {"phi_inv": ["z3"]},
        "inverse count and does not undo": {"phi_inv": ["z2", "z1", "z1"]},
        "not onto, inverse claimed": {"phi": ["z1 z1", "z2"], "phi_inv": ["z1", "z2"]},
        "unreduced inverse": {"phi_inv": ["z1 z2^-1 z1 z1^-1", "z2 z2 z2^-1"]},
        "no inverse": {"phi_inv": None},
        "inverse not a list": {"phi_inv": "z1"},
    }
    for kind, change in variants.items():
        morphism = {**good, **change}
        if morphism["phi_inv"] is None:
            del morphism["phi_inv"]
        for cmd in ("order", "fix"):
            if cmd == "fix":
                body = {"m": 1, "n": 2, "morphisms": [morphism], "fixed_bases": [[]]}
            else:
                body = {"m": 1, "n": 2, "morphism": morphism}
            yield f"{cmd}/free-map check/{kind}", [cmd], body


def mutated_golden_cases(rng):
    """Golden inputs with one random change each (test_cli._mutate)."""
    from test_cli import _mutate

    for i in range(28):
        name = GOLDEN[i % len(GOLDEN)]
        payload = json.loads((FIXTURES / f"{name}.in.json").read_text())
        yield f"{name}/mutated/{i}", [name], _mutate(rng, payload)


GROUPS = [
    (basis_cases, 1), (member_cases, 2), (fix_cases, 3), (order_cases, 4), (per_cases, 5),
    (closure_cases, 6), (oracle_cases, 7), (constants_cases, 8), (free_map_check_cases, 9),
    (mutated_golden_cases, 11),
]


def cases():
    for group, seed in GROUPS:
        yield from group(random.Random(seed))


def main(out: pathlib.Path) -> None:
    lines, answered = [], 0
    for label, argv, body in cases():
        stdin = "" if body is None else json.dumps(body)
        code, stdout = run(argv, stdin)
        answered += code == 0
        line = {"case": label, "argv": argv, "stdin": stdin, "exit": code,
                "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        lines.append(json.dumps(line, sort_keys=True) + "\n")
    out.write_text("".join(lines))
    print(f"{len(lines)} requests, {answered} answered, written to {out}")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURES / "corpus.jsonl")
