"""No module of the package defines a private module-level name that no
module of the package reads.

A private name starts with one underscore and is not a dunder. It is
defined at module level by a ``def``, a ``class`` or an assignment. It is
read when a module of the package loads it as a name, reads it as an
attribute (``module._name``) or imports it.
"""

import ast
from pathlib import Path

import matchcert

SRC = Path(matchcert.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """(name, line) of each private name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names if _private(name))


def _read(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(_read, trees.values()))
    return [
        f"{name}:{line}: {defined}"
        for name, tree in trees.items()
        for defined, line in _defined(tree)
        if defined not in read
    ]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    unread = _unread(sources)
    assert not unread, "\n".join(unread)


def test_the_rule_flags_an_unread_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_left, _right = 1, 2\n"
            "__all__ = ['f']\n"
            "def _leftover(pair):\n"
            "    return pair\n"
            "class _Row:\n"
            "    pass\n"
            "def f(x):\n"
            "    return _LIMIT + _right + x._field\n"
        ),
        "b.py": "from .a import _Row\n_field = 0\n",
    }
    assert _unread(sources) == ["a.py:2: _left", "a.py:4: _leftover"]
