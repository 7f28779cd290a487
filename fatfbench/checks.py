"""Independent checks of fatf's outputs.

Each check raises CheckFailed when an output is wrong. The checks use the
reference algebra in ``refalg`` and the answers built into the inputs; none
of them calls fatf's Stallings, lattice or oracle code.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from refalg import (
    Ref,
    Vec,
    Word,
    identity,
    parse_vec,
    parse_word,
    shortlex_key,
    shortlex_words,
)

class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_true(out: Any, what: str) -> None:
    require(out is True, f"{what}: expected True, got {out!r}")


def cli_payload(out: tuple[int, str]) -> dict:
    code, text = out
    require(code == 0, f"exit code {code}: {text.strip()}")
    obj = json.loads(text)
    require(obj.get("ok") is True, "reply is not ok")
    return obj


def elements_of_basis(basis: dict, m: int) -> tuple[list[tuple[Vec, Word]], list[Vec]]:
    free = [(parse_vec(e["t"], m), parse_word(e["w"])) for e in basis["free"]]
    lattice = [parse_vec(r, m) for r in basis["abelian"]]
    return free, lattice


def require_fixed(refs: Sequence[Ref], free: Sequence[tuple[Vec, Word]], lattice: Sequence[Vec]) -> None:
    for f in refs:
        for t, w in free:
            require(bool(w), "identity word in a free part")
            require(f.fixes(t, w), f"basis element t^{t} {w} is not fixed")
        for v in lattice:
            require(f.fixes(v, ()), f"lattice vector {v} is not fixed")


# ---------------------------------------------------------------------------
# fix-index


def check_fix_index(data: tuple, refs: Sequence[Ref], expect_ell: int, p: int) -> None:
    """data = (fg, ell, free part, abelian rows) of a FixResult: finitely
    generated, the built-in index, Schreier's rank ell(p-1)+1 and every
    basis element fixed by every morphism."""
    fg, ell, free, lattice = data
    require(fg is True, "fixed subgroup reported not finitely generated")
    require(ell == expect_ell, f"index {ell}, built with {expect_ell}")
    require(len(free) == expect_ell * (p - 1) + 1, f"free rank {len(free)}, Schreier gives {expect_ell * (p - 1) + 1}")
    require_fixed(refs, free, lattice)


# ---------------------------------------------------------------------------
# oracle-cross-check


def check_oracle(out: tuple[int, str], psi: Ref, L: int, c: int, exhaustive: bool) -> None:
    """fg and contained, every listed element fixed and inside the bounds,
    no repeats, shortlex word order (vectors ascending within a word); with
    `exhaustive`, the list equals a full enumeration of the bounded box."""
    obj = cli_payload(out)
    require(obj["fg"] is True, "fg is not true")
    require(obj["contained"] is True, "contained is not true")
    m = psi.m
    elems = [(parse_vec(e["t"], m), parse_word(e["w"])) for e in obj["fixed"]]
    prev = None
    for t, w in elems:
        require(len(w) <= L and all(abs(x) <= c for x in t), f"element t^{t} {w} outside the bounds")
        key = (shortlex_key(w), t)
        require(prev is None or prev < key, "elements repeated or out of shortlex order")
        prev = key
        require(psi.fixes(t, w), f"listed element t^{t} {w} is not fixed")
    if exhaustive:
        require(elems == enumerate_fixed(psi, L, c), "listed set differs from the full enumeration")


def box(m: int, c: int) -> list[Vec]:
    vecs: list[Vec] = [()]
    for _ in range(m):
        vecs = [v + (x,) for v in vecs for x in range(-c, c + 1)]
    return vecs


def enumerate_fixed(psi: Ref, L: int, c: int) -> list[tuple[Vec, Word]]:
    """Every element of the box |w| <= L, |t_i| <= c fixed by psi, in order."""
    vecs = box(psi.m, c)
    return [(t, w) for w in shortlex_words(psi.n, L) for t in vecs if psi.fixes(t, w)]


# ---------------------------------------------------------------------------
# cli-mixed


def check_basis(out: tuple[int, str], rank: int, hnf: Sequence[Vec]) -> None:
    obj = cli_payload(out)
    basis = obj["basis"]
    require(len(basis["free"]) == rank, f"free rank {len(basis['free'])}, built with {rank}")
    require(all(parse_word(e["w"]) for e in basis["free"]), "identity word in a free part")
    m = len(hnf[0]) if hnf else 0
    got = [parse_vec(r, m) for r in basis["abelian"]]
    require(got == [tuple(v) for v in hnf], f"abelian lattice {got}, built with {list(hnf)}")


def check_same_bytes(out: tuple[int, str], partner: tuple[int, str] | None) -> None:
    require(partner is not None, "the basis request in the built order has no output")
    require(out == partner, "reordered generators give another basis")


def check_member(out: tuple[int, str], expected: bool) -> None:
    obj = cli_payload(out)
    require(obj["member"] is expected, f"member {obj['member']}, expected {expected}")


def reduced_rank_bound(obj: dict, m: int, n: int) -> None:
    basis = obj["basis"]
    rank = len(basis["free"]) + len(basis["abelian"])
    ell = obj["diagnostics"]["ell"]
    bound = m if ell == "inf" else int(ell) * (n - 1) + m
    require(max(rank - 1, 0) <= bound, f"reduced rank {rank - 1} exceeds ell(n-1)+m = {bound}")


def check_fix(out: tuple[int, str], psi: Ref) -> None:
    res = cli_payload(out)["result"]
    require(res["fg"] is True, "fix reported not finitely generated")
    free, lattice = elements_of_basis(res["basis"], psi.m)
    require_fixed([psi], free, lattice)
    reduced_rank_bound(res, psi.m, psi.n)


def check_closure(out: tuple[int, str], psi: Ref) -> None:
    obj = cli_payload(out)
    require(obj["autofixed"] is True, "the closure of Fix is not auto-fixed")
    res = obj["result"]
    require(res["fg"] is True, "closure reported not finitely generated")
    free, lattice = elements_of_basis(res["basis"], psi.m)
    require_fixed([psi], free, lattice)


def check_order(out: tuple[int, str], order: int) -> None:
    obj = cli_payload(out)
    require(obj["order"] == str(order), f"order {obj['order']}, built with {order}")


def check_per(out: tuple[int, str], fo) -> None:
    """Exponent lcm(ord phi0, ord S), and Per = G: abelian I_m, free z1..zn
    with zero t-vectors, index 1."""
    obj = cli_payload(out)
    m, n = fo.psi.m, fo.psi.n
    require(obj["exponent"] == str(fo.order), f"exponent {obj['exponent']}, built with {fo.order}")
    res = obj["result"]
    require(res["fg"] is True and res["diagnostics"]["ell"] == "1", "Per is not of index 1")
    free, lattice = elements_of_basis(res["basis"], m)
    require(lattice == list(identity(m)), "abelian part of Per is not I_m")
    require(
        sorted(free) == sorted(((0,) * m, (i,)) for i in range(1, n + 1)),
        "free part of Per is not z1..zn",
    )


def check_constants(out: tuple[int, str], expected: dict) -> None:
    obj = cli_payload(out)
    got = {k: v for k, v in obj.items() if k != "ok"}
    require(got == expected, f"constants {got}, expected {expected}")
