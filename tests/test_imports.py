"""Every name a jetlaw module imports is read somewhere in that module,
every parameter of a jetlaw function is read in its body, and every error a
jetlaw module raises is an ExprError.

`__init__.py` is left out: it imports names to re-export them."""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

import jetlaw
from jetlaw.expr import ExprError
from jetlaw.parser import ParseError

MODULES = sorted(p for p in Path(jetlaw.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
