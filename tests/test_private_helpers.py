"""No private helper in src/charvar is dead.

Every function, method or class defined in src/charvar whose name has one
leading underscore (a dunder is not private) must be referenced somewhere in
src/charvar: by a name, an attribute or an import alias outside its own body,
so recursion alone does not keep it.  A helper whose last caller goes away
then fails here, in the same change, instead of staying behind as code that
nothing runs.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "charvar"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dead(sources):
    """The private definitions that no name, attribute or import alias in
    sources, {file name: source text}, refers to from outside the definition
    itself, as "file:line name"."""
    defined, referenced = [], set()

    def visit(node, file, enclosing):
        if isinstance(node, _DEFINITIONS):
            if _private(node.name):
                defined.append((file, node.lineno, node.name))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            referenced.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            referenced.update({node.attr} - enclosing)
        elif isinstance(node, ast.alias):
            referenced.update({node.name, node.asname} - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, file, enclosing)

    for file, text in sources.items():
        visit(ast.parse(text, file), file, frozenset())
    return [f"{file}:{line} {name}" for file, line, name in defined if name not in referenced]


def test_every_private_helper_has_a_reference():
    sources = {path.name: path.read_text() for path in sorted(_SRC.glob("*.py"))}
    assert "polynomials.py" in sources
    assert _dead(sources) == []


def test_the_check_finds_a_helper_without_callers():
    """A helper that only a dead helper calls stays alive; the dead one, a
    method and a class nothing names, and a helper that only calls itself,
    are reported, but a recursive helper with a caller is not."""
    source = (
        "import os as _os\n"
        "def _used():\n    return _os\n"
        "def _unused():\n    return _used()\n"
        "class _Gone:\n    def _method(self):\n        pass\n"
        "    def __init__(self):\n        pass\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "def _called(n):\n    return _called(n - 1) if n else 0\n"
        "def public():\n    return _called(2)\n"
    )
    assert _dead({"m.py": source}) == [
        "m.py:4 _unused", "m.py:6 _Gone", "m.py:7 _method", "m.py:11 _recursive"
    ]
