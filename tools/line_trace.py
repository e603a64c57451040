"""List the src/jetlaw statements that a pytest run never executes.

    python3 tools/line_trace.py [pytest arguments...]

Runs pytest in this process (default arguments: -q -p no:cacheprovider)
under a `sys.settrace` tracer that records the lines executed in
src/jetlaw, then prints every statement of a function body whose lines
never ran, as path:line: text, except those in ALLOWED.  A statement counts
as run when any line it spans ran; a compound statement (if, for, try, ...)
counts through the statements of its bodies.  Exit 0 when every statement
ran or is allowed, 1 otherwise, and pytest's own code when tests fail.

Standard library only.  The tracer makes tier-1 about five times slower
(290 s against 57 s, 2 vCPU, Python 3.11), so tier-1 runs only the cheap
check that each ALLOWED text is still a statement of its file
(tests/test_imports.py).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jetlaw"

# (file name, stripped source line, reason): statements allowed to stay
# unrun in-process.  Only lines that run in a subprocess belong here.
ALLOWED = (
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())",
     "closed-stdout exit; tests/test_cli.py runs it in a subprocess"),
    ("cli.py", "return 141",
     "closed-stdout exit; tests/test_cli.py runs it in a subprocess"),
)

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try)


def _leaves(body):
    """The simple statements of a statement list, through compound ones."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, _COMPOUND):
            for field in ("body", "orelse", "finalbody"):
                yield from _leaves(getattr(stmt, field, []))
            for handler in getattr(stmt, "handlers", []):
                yield from _leaves(handler.body)
        elif not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            yield stmt


def statements(source: str) -> list:
    """(first line, last line) of every simple statement in a function body,
    docstrings left out."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            spans.extend((s.lineno, s.end_lineno) for s in _leaves(body))
    return sorted(spans)


def unrun(sources: dict, executed: dict) -> list:
    """(file name, line, text) of each statement of sources ({name: text})
    whose lines are all missing from executed ({name: set of lines}) and
    that ALLOWED does not list."""
    allowed = {(name, text) for name, text, _ in ALLOWED}
    out = []
    for name, source in sorted(sources.items()):
        lines = source.splitlines()
        ran = executed.get(name, set())
        for first, last in statements(source):
            text = lines[first - 1].strip()
            if not ran.intersection(range(first, last + 1)) and (name, text) not in allowed:
                out.append((name, first, text))
    return out


class Tracer:
    """Records executed lines of files under PACKAGE, by file name."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.executed: dict = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.executed.setdefault(filename[len(self.prefix):], set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def main(argv=None) -> int:
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["-q", "-p", "no:cacheprovider"]
    sys.path.insert(0, str(PACKAGE.parent))
    with Tracer() as tracer:
        code = pytest.main(args)
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    missing = unrun(sources, tracer.executed)
    for name, line, text in missing:
        print("src/jetlaw/%s:%d: %s" % (name, line, text))
    print("%d unrun statement(s) outside ALLOWED" % len(missing))
    if code != 0:
        return int(code)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
