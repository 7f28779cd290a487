"""JSON wire formats.

All integers travel as decimal strings so arbitrary precision survives any
JSON implementation. Words use the text form "z1 z2^-1"; the identity is "".
"""

from __future__ import annotations

import contextlib
import math
import sys
from contextvars import ContextVar
from typing import Any, Iterator, Optional, Sequence

from . import freewords
from .fatfcore import Ambient, GroupElement, SubgroupBasis
from .fixpoint import FixDiagnostics, FixResult
from .intlat import IntMatrix, Lattice
from .morphisms import FreeMap, Morphism


class FormatError(ValueError):
    """The JSON payload does not match the expected shape."""


def _ints(obj: list) -> tuple[int, ...]:
    """The integers of a list of decimal strings or JSON numbers. Inside
    `request`, raises ValueError once the integers of the request have more
    than MAX_INPUT_DIGITS digits."""
    for s in obj:
        if isinstance(s, bool) or not isinstance(s, (str, int)):
            raise FormatError(f"expected a decimal string, got {s!r}")
    _spend("digits", sum(map(len, map(str, obj))), MAX_INPUT_DIGITS, "the integers of one request have more than {} digits in all")
    return tuple(map(int, obj))


def _int(s: Any) -> int:
    return _ints([s])[0]


def vec_to_json(v: Sequence[int]) -> list[str]:
    # str() refuses integers past the interpreter's digit limit (4,300 by
    # default); entries that large arise only as products of large inputs
    try:
        return [str(int(x)) for x in v]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"the answer has an integer of more than {limit} digits") from None


def vec_from_json(obj: Any, length: Optional[int] = None) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise FormatError("expected a list of decimal strings")
    v = _ints(obj)
    if length is not None and len(v) != length:
        raise FormatError(f"expected a vector of length {length}")
    return v


def matrix_from_json(obj: Any, rows: int, cols: int) -> IntMatrix:
    if not isinstance(obj, list):
        raise FormatError("expected a list of rows")
    data = [vec_from_json(r) for r in obj]
    if len(data) != rows:
        raise FormatError(f"expected {rows} rows")
    return IntMatrix(data, cols=cols)


def lattice_to_json(L: Lattice) -> list[list[str]]:
    return [vec_to_json(r) for r in L.basis.entries]


def lattice_from_json(obj: Any, ambient: int) -> Lattice:
    if not isinstance(obj, list):
        raise FormatError("expected a list of lattice rows")
    rows = [vec_from_json(r, ambient) for r in obj]
    return Lattice.from_rows(rows, ambient)


# Most digits, signs included, the integers of one CLI request may have in
# all, as freewords.MAX_WORD_LETTERS caps its letters: `basis` on two
# generators with entries of 10^4000 is refused before any HNF. With a digit
# or more per entry an m x m matrix passes only for m <= 70; at m = 66 (the
# companion of Phi_67, 4,422 digits) `order` takes 0.24 s and `per` 0.22 s on
# Python 3.11. The largest request of the tests under it, the m = 38 payload
# of `order` and `per` in test_cli.py, has about 2,700 digits.
MAX_INPUT_DIGITS = 5_000

# Largest free rank n at which `morphism_from_json` reads a morphism: `order`
# and `per` take the characteristic polynomial of the n x n abelianization, at
# about n^5. On the identity of F_n (m = 0), a permutation or z_i -> z_i z_(i+1),
# `order` takes 0.10 s at n = 64, 0.5 s at n = 100, 1.3 s at n = 128 and 7.5 s
# at n = 200 (Python 3.11). `basis` and `member` read no morphism.
MAX_MORPHISM_RANK = 100

# the letters the words, and the digits the integers, parsed so far in the
# current request spell out, by kind; None outside a request, where only the
# per-word cap holds
_spent: ContextVar[Optional[dict[str, int]]] = ContextVar("spent", default=None)


@contextlib.contextmanager
def request() -> Iterator[None]:
    """Count the letters of every word parsed inside against
    freewords.MAX_WORD_LETTERS, and the digits of every integer against
    MAX_INPUT_DIGITS, in all."""
    token = _spent.set({"letters": 0, "digits": 0})
    try:
        yield
    finally:
        _spent.reset(token)


def _spend(kind: str, amount: int, cap: int, error: str) -> None:
    """Add amount to the request's count of kind; ValueError(error with the
    cap) once it passes cap. Outside a request nothing is counted."""
    spent = _spent.get()
    if spent is not None:
        spent[kind] += amount
        if spent[kind] > cap:
            raise ValueError(error.format(cap))


def word_from_json(obj: Any, n: int) -> freewords.Word:
    """The reduced word of the text obj. Inside `request`, raises ValueError
    once the words of the request spell out more than MAX_WORD_LETTERS."""
    if not isinstance(obj, str):
        raise FormatError("expected a word string")
    letters = freewords.spell_word(obj)
    _spend("letters", len(letters), freewords.MAX_WORD_LETTERS, "the words of one request are longer than {} letters in all")
    return freewords.reduce_word(letters, n)


def element_to_json(g: GroupElement) -> dict:
    return {"t": vec_to_json(g.t), "w": freewords.format_word(g.w)}


def element_from_json(obj: Any, ambient: Ambient) -> GroupElement:
    if not isinstance(obj, dict):
        raise FormatError("expected an element object")
    t = vec_from_json(obj.get("t"), ambient.m)
    w = word_from_json(obj.get("w"), ambient.n)
    return GroupElement(ambient, t, w)


def subgroup_to_json(H: SubgroupBasis) -> dict:
    return {
        "free": [
            {"t": vec_to_json(a), "w": freewords.format_word(u)} for a, u in H.free_part
        ],
        "abelian": lattice_to_json(H.abelian_part),
    }


def subgroup_from_json(obj: Any, ambient: Ambient) -> SubgroupBasis:
    if not isinstance(obj, dict):
        raise FormatError("expected a subgroup object")
    free_obj = obj.get("free", [])
    if not isinstance(free_obj, list):
        raise FormatError("expected a list of free generators")
    free = []
    for e in free_obj:
        g = element_from_json(e, ambient)
        free.append((g.t, g.w))
    lattice = lattice_from_json(obj.get("abelian", []), ambient.m)
    return SubgroupBasis.from_words(ambient, free, lattice)


def morphism_from_json(obj: Any, ambient: Ambient) -> Morphism:
    if not isinstance(obj, dict):
        raise FormatError("expected a morphism object")
    if ambient.n > MAX_MORPHISM_RANK:
        raise ValueError(f"morphisms are read for free rank n <= {MAX_MORPHISM_RANK}")
    phi_obj = obj.get("phi")
    if not isinstance(phi_obj, list):
        raise FormatError("expected a list of generator images")
    images = [word_from_json(w, ambient.n) for w in phi_obj]
    inv_obj = obj.get("phi_inv")
    inverse = None
    if inv_obj is not None:
        if not isinstance(inv_obj, list):
            raise FormatError("expected a list of inverse images")
        inverse = [word_from_json(w, ambient.n) for w in inv_obj]
    phi = FreeMap(images, inverse, ambient.n)
    Q = matrix_from_json(obj.get("Q", []), rows=ambient.m, cols=ambient.m)
    P = matrix_from_json(obj.get("P", []), rows=ambient.n, cols=ambient.m)
    return Morphism(ambient, phi, Q, P)


def _count_to_json(x) -> str:
    return "inf" if x == math.inf else str(int(x))


def fix_result_to_json(res: FixResult) -> dict:
    d: FixDiagnostics = res.diagnostics
    out: dict = {
        "fg": res.finitely_generated,
        "diagnostics": {
            "im_rho": lattice_to_json(d.im_rho),
            "im_P": lattice_to_json(d.im_P),
            "M": lattice_to_json(d.M),
            "N": lattice_to_json(d.N),
            "preimage": lattice_to_json(d.preimage) if d.preimage is not None else None,
            "ell": _count_to_json(d.ell),
        },
    }
    if res.basis is not None:
        out["basis"] = subgroup_to_json(res.basis)
    return out
