"""The package keeps what the benchmark in ``perfbench/`` relies on.

The benchmark traces the functions that ``perfbench/spans.py`` names in
``TRACED`` on each ``matchcert`` layer module, and ``perfbench/selftest.py``
tests its workloads' inputs and its span arithmetic against the package.
A rename or a removal in the package that breaks either fails here, in
the package's own test run. The files under ``perfbench/`` are read, never
written.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _traced() -> dict[str, tuple[str, ...]]:
    """``spans.TRACED``, read from the file's text without importing it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py assigns no TRACED")


def test_every_traced_function_resolves():
    traced = _traced()
    missing = [
        f"{layer}.{func}"
        for layer, funcs in traced.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(f"matchcert.{layer}"), func, None))
    ]
    assert not missing, missing
    assert sum(map(len, traced.values())) >= 30  # the walk reached the table


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
