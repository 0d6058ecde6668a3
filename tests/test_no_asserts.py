"""Library code raises HeiszetaError subclasses, never a bare assert.

`python -O` strips assert statements, and an AssertionError escapes the
CLI's error handling, so neither may appear under src/heiszeta/.  Every
raise names a HeiszetaError subclass, but for the three exceptions that
Python's own protocols expect, listed in ALLOWED.
"""

import ast
import importlib
from pathlib import Path

import pytest

from heiszeta import errors
from heiszeta.errors import HeiszetaError

SOURCES = sorted((Path(__file__).parent.parent / "src" / "heiszeta").glob("*.py"))

# (file, function, exception) of each raise that is no HeiszetaError
ALLOWED = {
    ("exactalg.py", "_coerce_poly", "TypeError"),  # an operand of the wrong type
    ("exactalg.py", "__setattr__", "AttributeError"),  # the immutable values
    ("__init__.py", "__getattr__", "AttributeError"),  # the lazy module attributes
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == [], "%s: assert or AssertionError at lines %s" % (path.name, found)


def _raises(node, func=None):
    """(innermost enclosing function or None, raise node) for each raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child)
            continue
        if isinstance(child, ast.Raise):
            yield func, child
        yield from _raises(child, func)


def _names(expr, local):
    """The names of the exception classes that a raise's expression may build,
    following a name assigned in the same function."""
    if isinstance(expr, ast.Call):
        return _names(expr.func, local)
    if isinstance(expr, ast.IfExp):
        return _names(expr.body, local) | _names(expr.orelse, local)
    if isinstance(expr, ast.Name):
        return _names(local[expr.id], local) if expr.id in local else {expr.id}
    return {ast.unparse(expr)}


def _bad_raises(tree, namespace, filename):
    """(line, name) of every raise in tree of a class that is neither a
    HeiszetaError subclass in namespace nor in ALLOWED; a bare re-raise passes."""
    bad = []
    for func, node in _raises(tree):
        if node.exc is None:
            continue
        body = ast.walk(func) if func else ()
        local = {t.id: n.value for n in body if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)}
        for name in sorted(_names(node.exc, local)):
            cls = namespace.get(name)
            if isinstance(cls, type) and issubclass(cls, HeiszetaError):
                continue
            if (filename, func.name if func else None, name) not in ALLOWED:
                bad.append((node.lineno, name))
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_is_a_package_error(path):
    name = "heiszeta" if path.stem == "__init__" else "heiszeta." + path.stem
    module = importlib.import_module(name)
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _bad_raises(tree, vars(module), path.name) == []


def test_a_bare_value_error_is_caught():
    source = (
        "def f(n):\n"
        "    if n < 0:\n"
        "        raise ValueError('n must be >= 0')\n"
        "    kind = UsageError if n else TypeError\n"
        "    raise kind('n = %d' % n)\n"
    )
    assert _bad_raises(ast.parse(source), vars(errors), "errors.py") == [
        (3, "ValueError"), (5, "TypeError")]


def test_sources_found():
    assert len(SOURCES) >= 8
