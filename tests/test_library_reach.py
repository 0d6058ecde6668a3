"""Every definition in src/heiszeta is reached from the library itself.

A top-level function or class is live when code of src/heiszeta outside its
own body names it (an ast.Name or ast.Attribute), and a non-dunder method
when such code reads it as an attribute (`obj.method`); that code must be
module-level or inside a live definition.  A bare local of the same name
does not reach a method.  Docstrings, `__init__` and the string keys of
`errors.LIMITS` name nothing.  What only the tests call is a second
derivation and belongs in tests/reference.py.  The public API in PUBLIC is
live by definition, and so is a module-level dunder function such as a PEP
562 `__getattr__`: the interpreter calls it, as it calls a class's dunder
methods, so its body counts as module-level code.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "heiszeta"
PUBLIC = {"n_aggregate", "rational_dumps", "rational_loads"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes) -> set[str]:
    """Names used: `x` for a bare name, `x` and `.x` for an attribute `obj.x`."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out |= {node.attr, "." + node.attr}
    return out


def _units():
    """[(label, key, names its body uses but its own)], and names module-level code uses.

    The key is what reaches the unit: its name, or `.name` for a method.
    """
    units, root = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, FUNCTIONS + (ast.ClassDef,)) or top.name.startswith("__"):
                root |= _names(ast.walk(top))
                continue
            inner = set()
            if isinstance(top, ast.ClassDef):
                for m in top.body:
                    if isinstance(m, FUNCTIONS) and not m.name.startswith("__"):
                        body = _names(ast.walk(m)) - {m.name, "." + m.name}
                        units.append((top.name + "." + m.name, "." + m.name, body))
                        inner |= {id(node) for node in ast.walk(m)}
            body = _names(node for node in ast.walk(top) if id(node) not in inner)
            units.append((top.name, top.name, body - {top.name, "." + top.name}))
    return units, root


def test_every_definition_is_reached():
    units, live = _units()
    reached, todo = set(), set(PUBLIC)
    while todo:
        reached |= todo
        for label, _, body in units:
            if label in todo:
                live |= body
        todo = {label for label, key, _ in units if key in live} - reached
    dead = sorted(label for label, _, _ in units if label not in reached)
    assert dead == [], "defined in src/heiszeta but reached by no library code: " + ", ".join(dead)


def test_units_found():
    labels = {label for label, _, _ in _units()[0]}
    assert {"zeta_compact", "FactoredRational.sum", "main"} <= labels
