"""Every name a package module imports is used in that module.

No linter ships with the toolchain, so the check is a small pass over
each module's syntax tree: a name bound by an import statement must be
read somewhere in the module (a bare name, the base of an attribute, or
an annotation), or be listed in __all__.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfspan"


def unused_imports(source):
    """The imported names that source never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_is_never_read():
    source = ("import os\nimport os.path as osp\nfrom x import (a, b as c,"
              " d)\nfrom y import e\n__all__ = ['e']\n\n"
              "def f(n: a) -> None:\n    return c.attr\n")
    assert unused_imports(source) == ["os", "osp", "d"]


@pytest.mark.parametrize("module",
                         sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
