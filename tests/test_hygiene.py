"""Source hygiene: every name a module imports is used by that module,
every function, method and module constant of the package is
referenced from the package, its tests or the benchmark, and none but
the documented API is referenced from the tests alone."""

import ast
import inspect
from pathlib import Path

import pytest

import fusioncalc
from caches import MODULES as LOADED, cached, fresh_caches, package_caches
from fusioncalc import terms
from fusioncalc.process import parse_process

PACKAGE = Path(fusioncalc.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a literal `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in ast.walk(node.value)
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "NameSet"
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = ("from typing import Optional, Iterable\n"
              "import os\n"
              "def f(x: Iterable) -> None:\n"
              "    return None\n")
    assert unused_imports(source) == ["Optional (line 1)", "os (line 2)"]
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, methods (as Class.name) and module-level
    assigned names, dunders left out."""
    out: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in out
            if not (name.split(".")[-1].startswith("__")
                    and name.endswith("__"))]


def references(tree: ast.Module) -> set[str]:
    """Names read, attributes, imported names, and the identifiers in
    string constants (the benchmark names the entry points it wraps)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= {word for word in node.value.replace(".", " ").split()
                    if word.isidentifier()}
    return out


def unreferenced(source: str, used: set[str]) -> list[str]:
    return [name for name in definitions(ast.parse(source))
            if name.split(".")[-1] not in used]


def test_scanner_flags_an_unreferenced_definition():
    module = ("LIMIT = 3\n"
              "def used(): return LIMIT\n"
              "def unused(): pass\n"
              "class C:\n"
              "    def __init__(self): pass\n"
              "    def method(self): pass\n"
              "    def spanned(self): pass\n")
    caller = "from m import used\nused()\nNAMES = ('C.spanned',)\n"
    used = references(ast.parse(module)) | references(ast.parse(caller))
    assert unreferenced(module, used) == ["unused", "C.method"]


def test_every_definition_is_referenced():
    assert len(SOURCES) > len(MODULES)
    used = set().union(*(references(ast.parse(p.read_text()))
                         for p in SOURCES))
    assert {path.name: unreferenced(path.read_text(), used)
            for path in MODULES} == {path.name: [] for path in MODULES}


def uses(tree: ast.Module) -> set[str]:
    """Names read and attributes, as code reads them: an import, an
    `__all__` entry or a name in a string (the benchmark wraps entry
    points by name, and skips those that are gone) is no use."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


# The paper's operators and the package's documented API, which a
# caller of the library reads although the package itself may not.
DOCUMENTED_API = {
    # fusions: the identity and ψ combinators, the relation, validity,
    # the join of a family and the paper's second representative x*
    "identity_I", "psi", "related", "validate", "join_all", "second_rep",
    # processes with fusions: the guarded prefix, restriction by a
    # finite set, free names, and the tensor-style composition `bullet`,
    # the reference that the universe's node images are checked against
    "prefix", "nu_finite", "fn_contains", "bullet",
    # the printed form of a congruence class, read by criterion 06
    "canonical",
    # the paper's one-step reduction, whose reducts print as terms
    "step",
    # the universe's orthogonal of a PWF list and the behaviour
    # operations 1 and ⅋
    "orthogonal", "op_one", "op_parr",
    # composition of separator homomorphisms in a finite algebra
    "hom_compose",
}


def test_scanner_flags_a_definition_only_tests_use():
    module = ("def api(): pass\n"
              "def helper(): pass\n"
              "def inner(): pass\n"
              "def outer(): return inner()\n")
    caller = ("from m import helper, api\n"
              "__all__ = ['helper']\n"
              "NAMES = ('helper',)\n")
    used = uses(ast.parse(module)) | uses(ast.parse(caller))
    assert unreferenced(module, used | {"api"}) == ["helper", "outer"]


def test_no_definition_is_used_by_the_tests_alone():
    """Each definition of the package, outside the documented API, is
    used by the package or the benchmark; helpers that only tests use
    belong in the tests' reference modules."""
    used = DOCUMENTED_API | set().union(*(
        uses(ast.parse(p.read_text())) for p in SOURCES
        if p.is_relative_to(ROOT / "src") or
        p.is_relative_to(ROOT / "perfbench")))
    assert {path.name: unreferenced(path.read_text(), used)
            for path in MODULES} == {path.name: [] for path in MODULES}


def test_no_config_parameter_or_banner_returns(capsys):
    """The class budget is a constant (`fusion._CLASS_BUDGET`): there is
    no `config.py`, no function of the package takes a `config`
    parameter, and no report opens with a `# config` banner."""
    from fusioncalc.cli import main

    assert "config.py" not in [path.name for path in MODULES]
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)]
                assert "config" not in names, (path.name, node.lineno)
    for argv in (["laws"], ["pole-laws", "--universe", "limit=20"]):
        assert main(argv) == 0
        assert "# config" not in capsys.readouterr().out, argv


def test_every_memo_is_a_bounded_functools_cache():
    """The package memoises through `functools` caches alone: each one
    whose function takes an argument has a finite `maxsize`, and neither
    the hand-written stores nor their eviction helper exist."""
    caches = package_caches()
    assert caches
    for cache in caches:
        if inspect.signature(cache.__wrapped__).parameters:
            assert cache.cache_info().maxsize is not None, cache
    assert not hasattr(fusioncalc.names, "remember")
    gone = ("_ANALYSES", "_FAMILY_ANALYSES", "_FamilyAnalysis", "_remembered",
            "_KEYS", "_REDUCTS", "_TABLES")
    assert [(module.__name__, name) for module in LOADED for name in gone
            if hasattr(module, name)] == []


def test_one_sibling_order_search(monkeypatch):
    """The congruence key is the one sibling-order search: `terms` has no
    least-rendering search, and the printed form of a class that binds
    a name is read from its key, so printing a node whose key is cached
    constructs no `_KeySearch`, and one whose key is not, one."""
    assert not hasattr(terms, "_FormSearch")
    assert not hasattr(terms, "_Search")
    node = terms.multiset_form(parse_process(
        "new 0 1. (0!().1?() | 1!().0?() | 2?(3).3!())"))[0]
    searches = []
    search = terms._KeySearch
    monkeypatch.setattr(terms, "_KeySearch",
                        lambda: searches.append(None) or search())
    with fresh_caches(terms):
        terms.node_key(node)
        assert len(searches) == 1
        cached(terms.node_key, node)
        form = terms.canonical_form(node)
        assert len(searches) == 1
        terms.node_key.cache_clear()
        assert terms.canonical_form(node) == form and len(searches) == 2


def test_one_tokenizer_and_one_term_printer():
    """Every literal is read through `names.Tokens`: the process parser
    scans no characters, the universe spec is not split by hand, mll
    keeps no tokenizer of its own, and no module but `names` imports
    `re`; a `Process` prints as `form_str` of its node, with no walk of
    its own."""
    from fusioncalc import cli, mll, process

    assert not hasattr(cli, "_top_level_items")
    assert not hasattr(process, "_par_list")
    assert not hasattr(process._Parser, "skip")
    assert issubclass(process._Parser, fusioncalc.names.Tokens)
    assert not {"_tokenize", "_Tokens", "_PUNCT"} & set(vars(mll))
    assert {path.name for path in MODULES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and "re" in (alias.name for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "re"
            } == {"names.py"}
