"""Every definition in src/heiszeta is reached from the library itself.

A top-level function or class, or a non-dunder method, is live when code of
src/heiszeta outside its own body names it (an ast.Name or ast.Attribute)
and that code is module-level or inside a live definition.  Docstrings,
`__init__` and the string keys of `errors.N_RANGE` name nothing.  What only
the tests call is a second derivation and belongs in tests/reference.py.
The public API in PUBLIC is live by definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "heiszeta"
PUBLIC = {"n_aggregate", "rational_dumps", "rational_loads", "PoleReport.order_at"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _units():
    """[(label, name, names used in its body)], and the names module-level code uses."""
    units, root = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, FUNCTIONS + (ast.ClassDef,)):
                root |= _names(ast.walk(top))
                continue
            inner = set()
            if isinstance(top, ast.ClassDef):
                for m in top.body:
                    if isinstance(m, FUNCTIONS) and not m.name.startswith("__"):
                        units.append((top.name + "." + m.name, m.name, _names(ast.walk(m))))
                        inner |= {id(node) for node in ast.walk(m)}
            body = _names(node for node in ast.walk(top) if id(node) not in inner)
            units.append((top.name, top.name, body))
    return units, root


def test_every_definition_is_reached():
    units, live = _units()
    reached, todo = set(), set(PUBLIC)
    while todo:
        reached |= todo
        for label, name, body in units:
            if label in todo:
                live |= body - {name}
        todo = {label for label, name, _ in units if name in live} - reached
    dead = sorted(label for label, _, _ in units if label not in reached)
    assert dead == [], "defined in src/heiszeta but reached by no library code: " + ", ".join(dead)


def test_units_found():
    labels = {label for label, _, _ in _units()[0]}
    assert {"zeta_compact", "FactoredRational.sum", "main"} <= labels
