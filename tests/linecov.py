"""Opt-in line trace of ``src/lomaxmix``: which statements did no test run?

Load it by name; tier-1 never does:

    PYTHONPATH=tests python -m pytest -p linecov

The trace starts when pytest imports this plugin, before any test module
imports the package, so module-level statements count.  Only frames of
files under ``src/lomaxmix`` are traced line by line.  At the end of the
session it prints each source line that holds the start of a statement no
test ran.  The statements come from ``ast``; docstrings are not
statements here, and neither are ``global``/``nonlocal`` declarations or
annotations without a value inside a function, which run no code.
"""

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lomaxmix"
_PREFIX = str(PACKAGE) + os.sep
_ran: dict[str, set[int]] = {}  # file -> the lines a line event reached


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None  # no line events for this frame
    _ran.setdefault(frame.f_code.co_filename, set())
    return _local


sys.settrace(_global)
threading.settrace(_global)


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(path: Path) -> dict[int, tuple[int, int]]:
    """Each statement's first line, with the span of lines whose events show that it ran:
    a simple statement's lines, or a compound statement's header, decorators included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = {}
    in_function = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function.update(id(child) for child in ast.walk(node) if child is not node)
        if isinstance(node, _SCOPES) and node.body and _is_docstring(node.body[0]):
            node.body[0].docstring = True
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or getattr(node, "docstring", False):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None and id(node) in in_function:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = (first, max(first, last))
    return spans


def unrun_lines() -> dict[Path, list[int]]:
    """The statement lines of each package file that no line event reached."""
    missed = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = _ran.get(str(path), set())
        lines = [line for line, (a, b) in sorted(statements(path).items()) if not ran.intersection(range(a, b + 1))]
        if lines:
            missed[path] = lines
    return missed


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statements no test ran")
    missed = unrun_lines()
    for path, lines in missed.items():
        terminalreporter.write_line(f"{path.relative_to(PACKAGE.parent.parent)}: {', '.join(map(str, lines))}")
    if not missed:
        terminalreporter.write_line("none")
