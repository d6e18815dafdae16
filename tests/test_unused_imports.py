"""No module of the package imports a name it never uses.

A name counts as used when the module reads it anywhere (annotations
included) or lists it in ``__all__``. An import marked ``# noqa: F401``
is exempt: it is kept on purpose, and the comment above it says why.
"""

import ast
from pathlib import Path

import matchcert

SRC = Path(matchcert.__file__).parent


def _imports(tree: ast.Module, lines: list[str]):
    """(bound name, line) of each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        used = _used(tree)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imports(tree, text.splitlines())
            if name not in used
        ]
    assert not unused, "\n".join(unused)


def test_the_rule_flags_an_unused_name():
    text = (
        "from __future__ import annotations\n"
        "import json\n"
        "from typing import Callable, Mapping\n"
        "from .bounds import bound_mean  # noqa: F401\n"
        "__all__ = ['Mapping']\n"
        "def f(x: Callable) -> None:\n"
        "    return None\n"
    )
    tree = ast.parse(text)
    used = _used(tree)
    names = [name for name, _ in _imports(tree, text.splitlines())]
    assert names == ["json", "Callable", "Mapping"]
    assert [name for name in names if name not in used] == ["json"]
