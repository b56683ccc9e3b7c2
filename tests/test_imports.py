"""Every name a library module imports is used in that module.

No linter ships with the test dependencies, so this AST check stands in
for one. The package __init__ is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import squeezedbath

MODULES = sorted(
    p for p in Path(squeezedbath.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def _dotted(node):
    """'a.b.c' for a Name/Attribute chain, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []  # (bound name, or the dotted name of a plain import; line)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            used.add(_dotted(node))
    return [
        (name, line) for name, line in imported
        if not any(u == name or u.startswith(name + ".") for u in used)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_dead_imports():
    src = (
        "import math\nimport scipy.sparse\nimport scipy.linalg\n"
        "from .fock import a, b as c\n"
        "x = scipy.linalg.eigh(a)\n"
    )
    assert unused_imports(src) == [("math", 1), ("scipy.sparse", 2), ("c", 4)]
