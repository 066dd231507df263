"""Every name a package module imports is used there, exported or marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kappacmp"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that is neither used, in __all__ nor marked."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_only_unused_unmarked_names():
    source = ("import os\nimport os.path as osp\nfrom x import (\n    a,  # noqa: F401\n"
              "    b,\n)\nfrom y import c\n__all__ = ['c']\n\n\ndef f():\n"
              "    from z import d\n    return os.sep\n")
    assert unused_imports(source) == [(2, "osp"), (5, "b"), (12, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
