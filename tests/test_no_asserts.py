"""Library code raises HeiszetaError subclasses, never a bare assert.

`python -O` strips assert statements, and an AssertionError escapes the
CLI's error handling, so neither may appear under src/heiszeta/.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "heiszeta").glob("*.py"))


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


def test_sources_found():
    assert len(SOURCES) >= 8
