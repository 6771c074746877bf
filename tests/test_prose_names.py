"""Every private name (``_identifier``) that a docstring or comment of the
package writes exists in the package: as a def, a class, an assignment
target, an attribute, an argument or a module. So a change that renames or
deletes a private helper cannot leave prose pointing at it. Only the
standard library's ``ast`` reads the sources: comments are what follows a
``#`` once every string literal is blanked out."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posterior_debias"
MODULES = sorted(PACKAGE.glob("*.py"))
# A name that starts with underscores and a letter: not the tail of w_i or
# the subscript of |alpha|_1.
PRIVATE = re.compile(r"(?<!\w)_+[A-Za-z]\w*")


def prose(source: str) -> list[str]:
    """The docstrings of ``source``, then its comments, one per line."""
    tree = ast.parse(source)
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # ast counts columns in UTF-8 bytes, so blank the literals byte-wise.
    lines = [bytearray(line.encode()) for line in source.splitlines()]
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) or (
            isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
        ):
            for row in range(node.lineno - 1, node.end_lineno):
                lo = node.col_offset if row == node.lineno - 1 else 0
                hi = node.end_col_offset if row == node.end_lineno - 1 else len(lines[row])
                lines[row][lo:hi] = b" " * (hi - lo)
    comments = [line.partition(b"#")[2].decode() for line in lines if b"#" in line]
    return [doc for doc in docs if doc] + comments


def defined_names(sources: list[str]) -> set[str]:
    """Every def, class, assignment target, attribute and argument name."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
    return names


def stale_names(sources: dict[str, str]) -> list[str]:
    """The private names the prose of ``sources`` (module name -> source)
    writes that none of them defines and no module is called, in order."""
    known = defined_names(list(sources.values())) | set(sources)
    return [
        name
        for source in sources.values()
        for text in prose(source)
        for name in PRIVATE.findall(text)
        if name not in known
    ]


def test_every_private_name_in_prose_exists():
    assert stale_names({path.stem: path.read_text() for path in MODULES}) == []


def test_the_package_writes_private_names_in_prose():
    # The scan reads something: the modules' prose names private helpers.
    sources = [path.read_text() for path in MODULES]
    found = {name for source in sources for text in prose(source) for name in PRIVATE.findall(text)}
    assert {"_batch_rows", "_stages", "_BATCH_SCHEME", "_point_seed"} <= found


@pytest.mark.parametrize(
    "source, stale",
    [
        ('"""Calls _gone."""\n_here = 1\n', ["_gone"]),
        ("def f(_arg):\n    return _arg  # was _old, now _arg\n", ["_old"]),
        ("x = '# _in_a_string'\ny = f'{x} # _too'  # _tail\n", ["_tail"]),
        ("class C:\n    '''Holds self._kept, w_i and n_k.'''\n    def g(self):\n        self._kept = 1\n", []),
    ],
)
def test_a_stale_name_is_found(source, stale):
    assert stale_names({"m": source}) == stale
