"""Every name a module of ``src/antinorms/`` imports is used in it.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import antinorms

MODULES = sorted(p for p in pathlib.Path(antinorms.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os\nfrom numpy import array, zeros\nx = math.pi + zeros(1)\n"
    assert _unused_imports(source) == [(2, "os"), (3, "array")]
