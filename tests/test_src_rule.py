"""Every definition in src/fatf earns its place: src/ calls it, `fatf`
exports it, or a pinned reason below keeps it. A helper that only tests use
belongs in tests/conftest.py.

References are read from the source with `ast`: a function, class or
module-level constant counts as called when, outside its own body, its name
is loaded and not bound as a local, or read as an attribute of an imported
module (`morphisms.order`, not `psi.phi.order`); a method counts when its
name is read as an attribute outside its own body. Dunder methods and dunder
names such as `__version__` are read by the language and tools and are not
checked. A pin whose name src/ calls is stale and fails too.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib
from collections import Counter

import fatf

SRC = pathlib.Path(fatf.__file__).resolve().parent
BENCH = SRC.parent.parent / "fatfbench"

# definitions with no caller in src/ that stay, one reason each
PINNED = {
    "fatfcore.SubgroupBasis.basis_elements": "the basis as elements, public API; the word-level references in tests/conftest.py read it",
    "intlat.lattice_intersect": "wrapped by fatfbench/tracing.py; the reference route for N in test_fixpoint.py",
    "intlat.solve_left": "wrapped by fatfbench/tracing.py; fix_tuple solves through left_solver",
    "freewords.schreier_basis": "wrapped by fatfbench/tracing.py; the reference for the residue cover in test_freewords.py",
    "morphisms.power": "wrapped by fatfbench/tracing.py; order and fix_power use linear_power",
    "morphisms.power_vector_matrix": "wrapped by fatfbench/tracing.py; reads P_k off linear_power, which order and fix_power call",
    "oracle.reduced_words": "wrapped by fatfbench/tracing.py",
    "jsonio.element_to_json": "wrapped by fatfbench/tracing.py; tests/make_corpus.py writes request elements with it",
}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names that `import x [as y]` and `from . import x [as y]` bind."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module is None):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
    return out


class _Refs(ast.NodeVisitor):
    """Counts of loaded free names, of attribute names read, and of attribute
    names read off a module alias."""

    def __init__(self, modules: set[str] = frozenset()) -> None:
        self.names: Counter = Counter()
        self.attrs: Counter = Counter()
        self.module_attrs: Counter = Counter()
        self.modules = modules
        self.bound: list[set] = []

    def visit_Module(self, node: ast.Module) -> None:
        self.modules = _module_aliases(node)
        self.generic_visit(node)

    def _scope(self, node) -> None:
        args = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        stores = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        self.bound.append(args | stores)
        self.generic_visit(node)
        self.bound.pop()

    visit_FunctionDef = visit_Lambda = _scope

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.bound):
            self.names[node.id] += 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attrs[node.attr] += 1
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self.module_attrs[node.attr] += 1
        self.generic_visit(node)


def _definitions(tree: ast.Module):
    """(qualified name, node, is_method) of every module-level function,
    class and non-dunder constant, and of every non-dunder method of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node, False


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def src_calls() -> dict[str, int]:
    """Number of references from src/ to each definition in src/fatf, by
    qualified name, its own body excluded."""
    modules = _modules()
    total = _Refs()
    for tree in modules.values():
        total.visit(tree)
    out = {}
    for mod, tree in modules.items():
        aliases = _module_aliases(tree)
        for qual, node, is_method in _definitions(tree):
            own = _Refs(aliases)
            own.visit(node)
            name = qual.rsplit(".", 1)[-1]
            if is_method:
                calls = total.attrs[name] - own.attrs[name]
            else:
                calls = total.names[name] - own.names[name]
                calls += total.module_attrs[name] - own.module_attrs[name]
            out[f"{mod}.{qual}"] = calls
    return out


def uncalled() -> list[str]:
    """Definitions in src/fatf that nothing in src/ calls, that fatf does not
    export and that PINNED does not keep."""
    return [
        key
        for key, calls in src_calls().items()
        if calls == 0 and key.rsplit(".", 1)[-1] not in fatf.__all__ and key not in PINNED
    ]


def test_every_definition_is_called_exported_or_pinned():
    assert uncalled() == []


def test_definitions_include_classes_and_constants():
    tree = ast.parse(
        "A = 1\n__version__ = '1'\nB: int = 2\n"
        "class C:\n    def f(self): ...\n    def __eq__(self, o): ...\ndef g(): ...\n"
    )
    assert [qual for qual, _, _ in _definitions(tree)] == ["A", "B", "C", "C.f", "g"]


def test_pins_name_existing_definitions():
    assert set(PINNED) <= set(src_calls())


def test_pins_have_no_caller_in_src():
    calls = src_calls()
    assert [key for key in PINNED if calls[key]] == []


def _eq_without_hash(classes) -> list[str]:
    """The names of the classes that define __eq__ with __hash__ None, as
    Python sets it for a class that defines __eq__ alone."""
    return [cls.__name__ for cls in classes if "__eq__" in vars(cls) and cls.__hash__ is None]


def test_every_class_with_eq_hashes():
    # equal values hash equal, and a value with no hash leaves every frozen
    # dataclass that holds one unhashable
    modules = [importlib.import_module(f"fatf.{p.stem}") for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    classes = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    assert {"SubgroupBasis", "StallingsGraph", "FreeMap", "Morphism", "FixInput"} <= {
        cls.__name__ for cls in classes if "__eq__" in vars(cls)
    }
    assert _eq_without_hash(classes) == []


def test_eq_without_hash_is_found():
    class Plain:
        def __eq__(self, other):
            return self is other

    class Hashed(Plain):
        def __hash__(self):
            return 0

    @dataclasses.dataclass
    class Mutable:
        x: int

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: int

    assert _eq_without_hash([Plain, Hashed, Mutable, Frozen, int]) == ["Plain", "Mutable"]


def _unused_imports(tree: ast.Module, exported: frozenset = frozenset()) -> list[str]:
    """Names that an import in tree binds and tree never loads, outside
    `exported` and `from __future__ import ...`."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    bound = [
        a.asname or a.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for a in node.names
    ]
    return [name for name in bound if name not in loaded and name not in exported]


def test_every_import_is_used():
    # the re-exports of __init__.py are used by being in fatf.__all__; the
    # test modules are held to the same rule
    found = [
        f"{mod}.{name}"
        for mod, tree in _modules().items()
        for name in _unused_imports(tree, frozenset(fatf.__all__) if mod == "__init__" else frozenset())
    ]
    found += [
        f"tests/{p.name}:{name}"
        for p in sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
        for name in _unused_imports(ast.parse(p.read_text(), str(p)))
    ]
    assert found == []


def test_unused_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nimport itertools\n"
        "from collections import Counter as C, deque\nfrom . import x\n"
        "def f(a: deque) -> None:\n    return x.y(os.sep)\n"
    )
    assert _unused_imports(tree) == ["itertools", "C"]
    assert _unused_imports(tree, frozenset({"C"})) == ["itertools"]


def test_no_assert_in_src():
    # checks are explicit raises, so python -O keeps them
    found = [
        f"{mod}.py:{node.lineno}"
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_wire_formats_never_build_trusted_objects():
    # everything jsonio reads goes through the checking public constructors
    tree = _modules()["jsonio"]
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "_trusted" not in names


def test_wire_formats_leave_words_to_the_constructors():
    # jsonio spells and budgets words; the constructors reduce and check them
    tree = _modules()["jsonio"]
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"reduce_word", "check_letters"}


def test_wire_formats_define_no_exception_class():
    # a shape error is a plain ValueError, which cli.run turns into exit 2
    jsonio = importlib.import_module("fatf.jsonio")
    assert [
        name
        for name, obj in vars(jsonio).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == jsonio.__name__
    ] == []


def _tracing():
    spec = importlib.util.spec_from_file_location("_fatfbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_pins_for_the_benchmark_name_what_it_wraps():
    # a pin kept for fatfbench/tracing.py fails here once the tracer stops
    # wrapping its name, instead of going stale; install() replaces
    # oracle.reduced_words outside the three tables
    tracing = _tracing()
    traced = {f"{mod}.{attr}" for mod, attr, _ in tracing.SPANS + tracing.LEAVES + tracing.COUNTS}
    traced.add("oracle.reduced_words")
    cited = [key for key, reason in PINNED.items() if "fatfbench/tracing.py" in reason]
    assert cited
    assert [key for key in cited if key not in traced] == []


def test_names_the_benchmark_wraps_resolve():
    # `fatfbench --trace 1` replaces these attributes; a missing one fails
    # the traced run with AttributeError
    tracing = _tracing()
    for mod_name, attr, _ in tracing.SPANS + tracing.LEAVES + tracing.COUNTS:
        obj = importlib.import_module(f"fatf.{mod_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
    # install() also replaces these two module attributes
    assert callable(importlib.import_module("fatf.oracle").reduced_words)
    assert callable(importlib.import_module("fatf.cli").json.loads)
