"""Byte-for-byte checks of CLI outputs against committed golden files.

Each test builds a small world with ``matchcert gen``, runs the CLI with
relative paths from a temporary working directory (so the ``invocation``
block of a report is stable), and compares the written files with those
under ``tests/data/golden/``. A refactor of the certificate code must leave
these bytes unchanged.

To rewrite the golden files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from matchcert.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

GEN = {
    "n_entities": 150,
    "base_model": {"kind": "erdos-renyi", "p": 0.04},
    "edge_retain_x": 0.9,
    "edge_retain_y": 0.9,
    "node_drop_x": 0.05,
    "node_drop_y": 0.05,
    "attr_noise": 0.1,
    "rng_seed": 7,
}

MATCHER = {
    "kind": "percolation",
    "seeds": "verified-sample",
    "threshold": 2,
    "max_iters": 15,
}

# the criterion-8 experiment of tests/test_acceptance.py
COVERAGE = {
    "generator": {
        "n_entities": 80,
        "base_model": {"kind": "erdos-renyi", "p": 0.08},
        "edge_retain_x": 0.9,
        "edge_retain_y": 0.9,
        "node_drop_x": 0.05,
        "node_drop_y": 0.05,
        "rng_seed": 0,
    },
    "matcher_holdout": {
        "kind": "percolation",
        "seeds": "verified-sample",
        "threshold": 1,
        "max_iters": 8,
    },
    "sample_sizes": {"s_m": 15, "s_x": 15, "s_x_prime": 30, "train": 10},
    "methods": ["hoeffding", "hypergeometric-exact"],
    "trials": 6,
    "seed": 99,
}


def _write(name: str, text: str) -> None:
    Path(name).write_text(text, encoding="utf-8")


def _world() -> None:
    """Generate the world and its samples into the working directory.

    Samples are plain slices of the sorted files, so they depend on no
    sampling code of the package.
    """
    _write("gen.json", json.dumps(GEN))
    _write("matcher.json", json.dumps(MATCHER))
    assert main(["gen", "--config", "gen.json", "--out-dir", "world"]) == 0
    matches = Path("world/matches.tsv").read_text(encoding="utf-8").splitlines()
    nodes = [
        line.split("\t")[1]
        for line in Path("world/x.tsv").read_text(encoding="utf-8").splitlines()
        if line.startswith("#node\t")
    ]
    _write("train.tsv", "".join(f"{m}\n" for m in matches[::6]))
    _write("complete.tsv", "".join(f"{m}\n" for m in matches[::3]))
    _write("s_m.tsv", "".join(f"{m}\n" for m in matches[1::4]))
    _write("s_x.txt", "".join(f"{n}\n" for n in nodes[::5]))
    _write("s_x_prime.txt", "".join(f"{n}\n" for n in nodes[2::4]))
    for seeds, out in (("train.tsv", "mhat_h.tsv"), ("complete.tsv", "mhat_c.tsv")):
        rc = main([
            "match", "--x", "world/x.tsv", "--y", "world/y.tsv",
            "--config", "matcher.json", "--seeds", seeds, "--out", out,
        ])
        assert rc == 0


def _validate_batch(size_flag: str) -> tuple[int, str]:
    n_matches = len(Path("world/matches.tsv").read_text(encoding="utf-8").splitlines())
    size = n_matches if size_flag == "--m-size" else n_matches + 20
    out = f"batch{size_flag[1:]}.json"
    rc = main([
        "validate", "batch", "--x", "world/x.tsv", "--y", "world/y.tsv",
        "--m-hat-holdout", "mhat_h.tsv", "--m-hat-complete", "mhat_c.tsv",
        "--s-m", "s_m.tsv", "--s-x", "s_x.txt", "--actual", "world/matches.tsv",
        size_flag, str(size), "--out", out,
    ])
    return rc, out


def _validate_query() -> tuple[int, str]:
    rc = main([
        "validate", "query", "--x", "world/x.tsv", "--y", "world/y.tsv",
        "--matcher", "matcher.json", "--seeds", "train.tsv",
        "--seeds-complete", "complete.tsv", "--s-x", "s_x.txt",
        "--s-x-prime", "s_x_prime.txt", "--actual", "world/matches.tsv",
        "--emit-node-stats", "--out", "query.json",
    ])
    return rc, "query.json"


def _coverage() -> tuple[int, tuple[str, str]]:
    _write("exp.json", json.dumps(COVERAGE))
    rc = main(["coverage", "--config", "exp.json", "--out-prefix", "coverage"])
    return rc, ("coverage.csv", "coverage.json")


def _check(name: str, expected_rc: int, rc: int) -> None:
    assert rc == expected_rc
    got = Path(name).read_bytes()
    assert got == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


@pytest.fixture
def world(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _world()


@pytest.mark.parametrize("size_flag", ["--m-size", "--m-size-upper"])
def test_validate_batch_report_is_golden(world, size_flag):
    rc, out = _validate_batch(size_flag)
    _check(out, 0, rc)


def test_validate_query_report_is_golden(world):
    rc, out = _validate_query()
    _check(out, 0, rc)


def test_coverage_outputs_are_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, outs = _coverage()
    for name in outs:
        _check(name, 0, rc)


def _regenerate() -> None:
    import os
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _world()
        names = [
            _validate_batch("--m-size")[1],
            _validate_batch("--m-size-upper")[1],
            _validate_query()[1],
            *_coverage()[1],
        ]
        for name in names:
            (GOLDEN / name).write_bytes(Path(name).read_bytes())
            print(f"wrote {GOLDEN / name}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
