"""Every name a ``matchcert`` module lists in ``__all__`` is bound in that
module and listed once, so ``from matchcert.<module> import *`` works and
a name deleted from a module cannot stay behind in its export list."""

import importlib
from collections import Counter
from pathlib import Path

import pytest

import matchcert

SRC = Path(matchcert.__file__).parent
# __main__ runs the CLI when imported
MODULES = ["matchcert"] + [
    f"matchcert.{path.stem}"
    for path in sorted(SRC.glob("*.py"))
    if path.stem not in ("__init__", "__main__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_bound_names_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # cli and errors have none
    repeated = [item for item, count in Counter(exported).items() if count > 1]
    assert not repeated, f"{name}.__all__ repeats {repeated}"
    unbound = [item for item in exported if not hasattr(module, item)]
    assert not unbound, f"{name}.__all__ lists unbound {unbound}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()

