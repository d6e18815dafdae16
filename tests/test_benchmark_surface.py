"""The package keeps what the benchmark in ``perfbench/`` relies on.

The benchmark traces the functions that ``perfbench/spans.py`` names in
``TRACED`` on each ``matchcert`` layer module, and ``perfbench/selftest.py``
tests its workloads' inputs and its span arithmetic against the package.
The workloads also pass the package inputs: coverage-2k an experiment
config, and pipeline-5k config files and the argv of each CLI stage. A
rename or a removal in the package that breaks any of these fails here,
in the package's own test run. The files under ``perfbench/`` are read,
never written.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from matchcert.cli import build_parser
from matchcert.coverage import ExperimentConfig
from matchcert.matchers import MatcherConfig
from matchcert.synth import GeneratorConfig

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


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, loaded from its file under a name of its
    own."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_coverage_workload_config_loads(workloads):
    cfg = ExperimentConfig.from_json_dict(workloads.coverage_config_doc(7))
    assert cfg.seed == 7 and cfg.sample_sizes.s_x_prime > 0


def test_pipeline_workload_inputs_parse(workloads, tmp_path):
    GeneratorConfig.from_json_dict(workloads.pipeline_gen_doc(7))
    MatcherConfig.from_json_dict(workloads.MATCHER_DOC)
    # an instance that writes nothing: its files would live under tmp_path
    pipeline = object.__new__(workloads.Pipeline)
    pipeline.dir, pipeline.m_size = tmp_path, 1000
    parser = build_parser()
    commands = []
    for stage in workloads.STAGES:
        args = parser.parse_args(pipeline._args(stage))
        commands.append(args.func.__name__)
    assert commands == [
        "cmd_gen", "cmd_match", "cmd_match", "cmd_validate_batch", "cmd_validate_query"
    ]
    assert not list(tmp_path.iterdir())
