"""The README's library tour and CLI walkthrough run as written and
print what they say.

The tour's ``python`` blocks run in order in one namespace. The
walkthrough's shell block is run step by step in a temporary directory:
each ``cat > FILE <<'TAG'`` heredoc writes its file, each ``python3 -
<<'TAG'`` heredoc runs as Python, and each ``matchcert`` command
(backslash continuations joined) runs through ``cli.main``. Every
``--flag`` the README names outside "Benchmark" is a CLI option.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from matchcert.batch import true_batch_metrics
from matchcert.cli import build_parser, main
from matchcert.graphs import NetworkPair, load_matches, load_network

README = Path(__file__).resolve().parents[1] / "README.md"
HEREDOC = re.compile(r"(.*)<<'(\w+)'$")


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_tour_runs_and_its_numbers_hold():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library tour"), re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert f"{namespace['res'].lower:.3f}" == "0.804"
    assert namespace["report"].delta_parts == (0.025, 0.025)
    joint = namespace["combine_reports"](namespace["reports"]).joint_confidence
    assert joint == pytest.approx(0.90)


def _walkthrough() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1]
    return block.split("```", 1)[0].replace("\\\n", " ").splitlines()


def _run(lines: list[str]) -> None:
    lines = iter(lines)
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        heredoc = HEREDOC.match(line)
        if heredoc:
            command, tag = heredoc.groups()
            body = "".join(f"{row}\n" for row in iter(lines.__next__, tag))
            if command.startswith("python3 -"):
                exec(compile(body, "README.md", "exec"), {})
            else:
                target = re.fullmatch(r"cat > (\S+) ", command).group(1)
                Path(target).write_text(body, encoding="utf-8")
            continue
        program, *argv = shlex.split(line)
        assert program == "matchcert", line
        assert main(argv) == 0, line


def test_walkthrough_runs_and_its_numbers_hold(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(_walkthrough())
    assert "joint confidence" in capsys.readouterr().out
    report = json.loads(Path("report.json").read_text(encoding="utf-8"))
    bounds = {r["bound_id"]: r["lower_bound"] for r in report["reports"]}
    pair = NetworkPair(load_network("world/x.tsv"), load_network("world/y.tsv"))
    m_hat = load_matches("mhat.tsv", pair)
    truth = load_matches("world/matches.tsv", pair)
    precision, recall = true_batch_metrics(pair, m_hat, truth)
    quoted = re.search(
        r"certifies recall >= ([\d.]+) and precision >= ([\d.]+) at\s+95% "
        r"confidence each, against true values ([\d.]+) and ([\d.]+)\.",
        README.read_text(encoding="utf-8"),
    ).groups()
    got = (
        bounds["holdout-batch-recall"], bounds["holdout-batch-precision"],
        recall, precision,
    )
    assert quoted == tuple(f"{v:.2f}" for v in got)


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """Every option string of ``parser`` and of the parsers under it."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                found |= _options(child)
    return found


def test_readme_flags_are_cli_options():
    # the Benchmark section documents perfbench's flags, not the CLI's
    text = README.read_text(encoding="utf-8").replace(_section("Benchmark"), "")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert len(flags) >= 30  # the pattern finds the walkthrough's flags
    assert sorted(flags - _options(build_parser())) == []


def test_readme_names_the_latest_benchmark_record():
    records = [
        int(m.group(1))
        for path in README.parent.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    named = re.findall(r"The latest is `BENCH_(\d+)\.json`", _section("Benchmark"))
    assert records and named == [str(max(records))]
