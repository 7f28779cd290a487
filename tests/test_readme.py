"""README.md names fatf's callables with the parameters they take, and its
Quick example prints what its comments say.

A backticked span `name(a, b)` whose arguments are all plain names is read as
a signature. When name (bare, `Class.method` or `module.name`) means a
function or class defined in fatf, the arguments must be its parameters, in
order: `inspect.signature`, less a leading `self`. Spans with values in them,
such as `order_bound(0)`, are examples, not signatures; spans naming nothing
defined in fatf, such as `int()` or the `step(state, letter)` a caller
writes, are skipped.
"""

import contextlib
import importlib
import inspect
import io
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


def _quick_example() -> str:
    """The code of the README's Quick example, its first fenced block."""
    section = README.read_text().split("## Quick example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected_prints(code: str) -> list[str]:
    """What the comment of each line that starts with print( says it prints:
    the comment's last line, which is the print's own `# ...` or, for a value
    too long for it, an indented comment line that follows."""
    expected, continues = [], False
    for line in code.splitlines():
        if line.startswith("print("):
            expected.append(line.split("# ", 1)[1])
            continues = True
        elif continues and line.startswith(" ") and line.lstrip().startswith("# "):
            expected[-1] = line.lstrip()[2:]
        else:
            continues = False
    return expected


def test_quick_example_prints_what_its_comments_say():
    # a comment gives the printed value, alone or before ": " and a note
    code = _quick_example()
    expected = _expected_prints(code)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 7
    assert [c for v, c in zip(printed, expected) if c != v and not c.startswith(v + ": ")] == []
    # res.basis == want, and is_autofixed
    assert printed[-2:] == ["True", "True"]


def test_print_comments_are_read():
    code = "x = 1\nprint(x)  # 1: one\nprint((x, x))  # the pair:\n               # (1, 1)\n\n# a note\n"
    assert _expected_prints(code) == ["1: one", "(1, 1)"]
