"""Every name a jetlaw module imports is read somewhere in that module.

`__init__.py` is left out: it imports names to re-export them."""

import ast
from pathlib import Path

import pytest

import jetlaw

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


def test_guard_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") == \
        [(1, "os"), (2, "c")]


def test_every_module_is_scanned():
    assert {"cli.py", "expr.py", "laws.py", "parser.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
