"""README.md names fatf's callables with the parameters they take.

A backticked span `name(a, b)` whose arguments are all plain names is read as
a signature. When name (bare, `Class.method` or `module.name`) means a
function or class defined in fatf, the arguments must be its parameters, in
order: `inspect.signature`, less a leading `self`. Spans with values in them,
such as `order_bound(0)`, are examples, not signatures; spans naming nothing
defined in fatf, such as `int()` or the `step(state, letter)` a caller
writes, are skipped.
"""

import importlib
import inspect
import pathlib
import re

import fatf

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = [
    importlib.import_module(f"fatf.{p.stem}")
    for p in sorted(pathlib.Path(fatf.__file__).resolve().parent.glob("*.py"))
    if p.stem != "__init__"
]
SIGNATURE = re.compile(r"`([A-Za-z_][\w.]*)\(((?:\s*[A-Za-z_]\w*\s*,)*\s*(?:[A-Za-z_]\w*)?\s*)\)`")


def _definitions(name: str) -> list:
    """The functions and classes of fatf that name can mean, each once."""
    found = []
    for module in MODULES:
        path = name.split(".")
        if path[0] == module.__name__.rsplit(".", 1)[-1] and len(path) > 1:
            path = path[1:]
        obj = module
        for attr in path:
            obj = getattr(obj, attr, None)
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            if all(obj is not seen for seen in found):
                found.append(obj)
    return found


def _signatures(text: str) -> list[tuple[str, list[str]]]:
    """(name, arguments) of each signature span outside fenced code."""
    prose = "".join(text.split("```")[::2])
    return [(m[1], [a.strip() for a in m[2].split(",") if a.strip()]) for m in SIGNATURE.finditer(prose)]


def _parameters(obj) -> list[str]:
    names = list(inspect.signature(obj).parameters)
    return names[1:] if names[:1] == ["self"] else names


def test_readme_signatures_match_the_code():
    checked, wrong = set(), []
    for name, args in _signatures(README.read_text()):
        objs = _definitions(name)
        if not objs:
            continue
        assert len(objs) == 1, f"`{name}` names {len(objs)} definitions; qualify it with its module"
        checked.add(name)
        if args != _parameters(objs[0]):
            wrong.append(f"`{name}({', '.join(args)})`: the code takes ({', '.join(_parameters(objs[0]))})")
    assert wrong == []
    assert {"StallingsGraph", "Lattice", "pullback", "freewords.alphabet"} <= checked


def test_signature_spans_are_read():
    text = "`Lattice(ambient, basis)` and `hnf(M)`, not `order_bound(0)`\n```\n`pullback(g1)`\n```\n"
    assert _signatures(text) == [("Lattice", ["ambient", "basis"]), ("hnf", ["M"])]
    assert _parameters(_definitions("Lattice")[0]) == ["basis"]
    assert _definitions("intlat.hnf") == _definitions("hnf") == [fatf.intlat.hnf]
    assert _definitions("step") == _definitions("int") == []
