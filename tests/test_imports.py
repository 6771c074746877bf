"""Every name a package module imports is used in that module, so a change
that deletes code cannot leave an import behind. ``__init__.py`` imports to
re-export, and ``from __future__`` imports are directives: both are skipped.
Only the standard library's ``ast`` reads the sources."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posterior_debias"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_module_is_read():
    assert {"operators.py", "rejection.py", "simplex.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_a_left_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from numbers import Real\n"
        "import numpy as np\n"
        "x = np.zeros(os.sep.count('/'))\n"
    )
    assert unused_imports(source) == ["Real"]
