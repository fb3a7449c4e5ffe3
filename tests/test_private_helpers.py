"""No private helper in src/charvar is dead.

Every function, method or class defined in src/charvar whose name has one
leading underscore (a dunder is not private) must be referenced somewhere in
src/charvar: by a name, an attribute or an import alias.  A helper whose last
caller goes away then fails here, in the same change, instead of staying
behind as code that nothing runs.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "charvar"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dead(sources):
    """The private definitions that no name, attribute or import alias in
    sources, {file name: source text}, refers to, as "file:line name"."""
    defined, referenced = [], set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text, file)):
            if isinstance(node, _DEFINITIONS) and _private(node.name):
                defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update({node.name, node.asname})
    return [f"{file}:{line} {name}" for file, line, name in defined if name not in referenced]


def test_every_private_helper_has_a_reference():
    sources = {path.name: path.read_text() for path in sorted(_SRC.glob("*.py"))}
    assert "polynomials.py" in sources
    assert _dead(sources) == []


def test_the_check_finds_a_helper_without_callers():
    """A helper that only a dead helper calls stays alive; the dead one, a
    method and a class nothing names are reported."""
    source = (
        "import os as _os\n"
        "def _used():\n    return _os\n"
        "def _unused():\n    return _used()\n"
        "class _Gone:\n    def _method(self):\n        pass\n"
        "    def __init__(self):\n        pass\n"
    )
    assert _dead({"m.py": source}) == ["m.py:4 _unused", "m.py:6 _Gone", "m.py:7 _method"]
