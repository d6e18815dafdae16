"""The certificate layers are pure: ``bounds``, ``reports``, ``batch`` and
``query`` read match sets and samples, so none of them imports a module
that runs a matcher, builds a world, draws a sample or drives them
(``matchers``, ``synth``, ``sampling``, ``coverage``, ``cli``)."""

import ast
from pathlib import Path

import pytest

import matchcert

SRC = Path(matchcert.__file__).parent
CERTIFICATES = ("bounds", "reports", "batch", "query")
OUTSIDE = {"matchers", "synth", "sampling", "coverage", "cli"}


def _imported(source: str) -> set[str]:
    """The matchcert modules that ``source``, a module of the package,
    imports, by name: relative imports and absolute ``matchcert`` ones, at
    any depth of the module (a function's lazy import counts)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "matchcert":
                parts = node.module.split(".")
                found.update(parts[1:2] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "matchcert" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("module", CERTIFICATES)
def test_certificate_layer_imports_no_runner(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert not _imported(source) & OUTSIDE


def test_the_rule_sees_every_import_form():
    source = (
        "from .matchers import run_batch\n"
        "from . import synth\n"
        "import matchcert.sampling\n"
        "def f():\n"
        "    from matchcert.coverage import run_trial\n"
        "    from matchcert import cli\n"
        "from .graphs import MatchSet\n"
    )
    assert _imported(source) == OUTSIDE | {"graphs"}
