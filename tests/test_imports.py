"""Every name a jetlaw module imports is read somewhere in that module,
every parameter of a jetlaw function is read in its body, and every error a
jetlaw module raises is an ExprError.  `__init__.py` is left out of these
three scans: it imports names to re-export them.  Instead, it imports exactly
the names of `jetlaw.__all__`.

Every top-level function and class of the package, and every method of such
a class bar the dunders, is exported or read by some jetlaw module outside its
own body.  A helper that only tests call belongs in tests/conftest.py.

Every attribute a jetlaw class sets on self, and every dataclass field, is
loaded as an attribute somewhere in the package; the attributes of an
ExprError subclass are data for callers and are left out."""

import ast
import builtins
import importlib
from collections import Counter
from pathlib import Path

import pytest

import jetlaw
from jetlaw.expr import ExprError
from jetlaw.parser import ParseError

PACKAGE = Path(jetlaw.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never loaded, in source order;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported if name not in read)


def unused_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter of a function or lambda
    that its body never loads, sorted by line; self and cls are left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs \
            + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg) for a in params
                  if a.arg not in read and a.arg not in ("self", "cls")]
    return sorted(found)


def test_guard_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") == \
        [(1, "os"), (2, "c")]


def test_every_module_is_scanned():
    assert {"cli.py", "expr.py", "laws.py", "parser.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_parameter():
    source = ("class A:\n"
              "    def f(self, a, *rest, b=1, **kw):\n"
              "        return a + kw['k']\n"
              "g = lambda c, d: c\n"
              "def h(e, f):\n"
              "    def inner():\n"
              "        return e\n"
              "    return inner\n")
    assert unused_parameters(source) == [
        (2, "f", "b"), (2, "f", "rest"), (4, "<lambda>", "d"), (5, "h", "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def foreign_raises(source: str, namespace: dict) -> list:
    """(line, name) for each `raise X(...)` or `raise X` whose X, looked up in
    namespace and then among the builtins, is not an ExprError subclass,
    sorted by line; a bare `raise` re-raises and is left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        cls = namespace.get(name, getattr(builtins, name, None))
        if not (isinstance(cls, type) and issubclass(cls, ExprError)):
            found.append((node.lineno, name))
    return sorted(found)


def test_guard_finds_a_foreign_raise():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise ParseError('p', 0)\n"
              "    try:\n"
              "        g()\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise ValueError('v') from None\n"
              "    raise TypeError\n"
              "    raise ExprError\n")
    namespace = {"ExprError": ExprError, "ParseError": ParseError}
    assert foreign_raises(source, namespace) == [(8, "ValueError"), (9, "TypeError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raised_error_is_an_expr_error(path):
    module = importlib.import_module("jetlaw." + path.stem)
    assert foreign_raises(path.read_text(), vars(module)) == []


def _reads(node) -> Counter:
    """How often each name is loaded under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def unread_definitions(sources: dict, exported) -> list:
    """(module, name, line) for each top-level function or class of the
    modules in sources (module name -> source text) that is not in exported,
    and each non-dunder method of a top-level class, that no module loads as
    a name or an attribute outside the definition's own body; sorted.  An
    import binds a name without reading it, so a re-export is no read."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum(map(_reads, trees.values()), Counter())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, functions + (ast.ClassDef,)):
                continue
            candidates = [] if node.name in exported else [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                candidates += [(node.name + "." + m.name, m) for m in node.body
                               if isinstance(m, functions)
                               and not (m.name.startswith("__") and m.name.endswith("__"))]
            found += [(module, name, d.lineno) for name, d in candidates
                      if read[d.name] == _reads(d)[d.name]]
    return sorted(found)


def test_guard_finds_an_unread_definition():
    sources = {
        "a": ("def used():\n"
              "    return helper()\n"
              "def helper():\n"
              "    return helper()\n"
              "def lonely():\n"
              "    return lonely()\n"
              "class K:\n"
              "    def __repr__(self):\n"
              "        return 'K'\n"
              "    def m(self):\n"
              "        return self.m()\n"
              "    def n(self):\n"
              "        return 1\n"
              "class Shown:\n"
              "    def hidden(self):\n"
              "        pass\n"),
        "b": ("from a import lonely, used\n"
              "print(used(), K().n())\n"),
    }
    assert unread_definitions(sources, {"Shown"}) == [
        ("a", "K.m", 10), ("a", "Shown.hidden", 15), ("a", "lonely", 5)]


def test_every_definition_is_exported_or_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources, set(jetlaw.__all__)) == []


def unread_attributes(sources: dict) -> list:
    """(module, class, attribute, line) for each attribute that a class in
    sources (module name -> source text) sets on self, or declares as a
    dataclass field, and that no module loads as `.attribute`; sorted.
    Subclasses of ExprError, followed through the bases named in sources,
    are left out."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    classes = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    errors = {"ExprError"}
    grown = True
    while grown:
        before = len(errors)
        errors |= {c.name for _, c in classes
                   if any(ast.unparse(b) in errors for b in c.bases)}
        grown = len(errors) > before
    loaded = {n.attr for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    found = []
    for module, node in classes:
        if node.name in errors:
            continue
        dataclass = any(ast.unparse(d).split("(")[0] == "dataclass"
                        for d in node.decorator_list)
        fields = [(s.target.id, s.lineno) for s in node.body if dataclass
                  and isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        stored = [(n.attr, n.lineno) for n in ast.walk(node)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"]
        found += [(module, node.name, name, line) for name, line in fields + stored
                  if name not in loaded]
    return sorted(found)


def test_guard_finds_an_unread_attribute():
    sources = {
        "a": ("@dataclass(frozen=True)\n"
              "class Spec:\n"
              "    read: int\n"
              "    unread: int = 0\n"
              "class Parser:\n"
              "    def __init__(self, text):\n"
              "        self.text = text\n"
              "        self.pos = 0\n"
              "        self.depth = 0\n"
              "    def step(self):\n"
              "        self.depth += 1\n"
              "        return self.pos\n"
              "class Plain:\n"
              "    count: int\n"
              "class Failed(ExprError):\n"
              "    def __init__(self, residual):\n"
              "        self.residual = residual\n"
              "class Worse(Failed):\n"
              "    def __init__(self, norm):\n"
              "        self.norm = norm\n"),
        "b": "print(spec.read)\n",
    }
    assert unread_attributes(sources) == [
        ("a", "Parser", "depth", 9), ("a", "Parser", "depth", 11),
        ("a", "Parser", "text", 7), ("a", "Spec", "unread", 4)]


def test_every_attribute_is_read():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_attributes(sources) == []


def test_init_imports_exactly_the_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names]
    assert sorted(imported) == sorted(n for n in jetlaw.__all__ if n != "__version__")
