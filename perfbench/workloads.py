"""The benchmark's three workloads: inputs from a seed, timed loops, checks.

Every workload is a closed loop in one process with no worker pool: the
next operation starts when the previous one has finished.

* coverage-2k: ``coverage.run_trial`` on the criterion-4 configuration,
  consecutive trial indices; one operation is one trial.
* pipeline-5k: the CLI path ``gen -> match (holdout) -> match (complete)
  -> validate batch -> validate query``, each stage a fresh
  ``python -m matchcert`` process; one operation is the whole pipeline.
* bounds-sweep: ``bounds.bound_mean`` over a seeded grid of population
  sizes, sample sizes, means, ranges, methods and sides; one operation is
  one call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DELTA = 0.05


# The 2-core machine this benchmark was built on changes speed by up to 2x
# for minutes at a time (a shared host), so a raw time says more about when
# a run happened than about the program. Every run therefore also times a
# fixed probe that never touches matchcert, in batches between operations,
# and reports each operation's time scaled by the probe batches around it
# to the speed at which the probe takes its reference time (about its cost
# there at full speed). The probe has a pure-Python part (sets and dicts
# over string tuples) and a numpy part (small vector arithmetic); each
# workload uses the parts that resemble its own work. Over fifteen
# 10-second windows of coverage trials the raw trial time ranged from
# 0.13 s to 0.25 s, while its ratio to the Python part had a quartile
# spread of 4.5%; bounds-sweep grid passes over both parts spread 2%.
PROBE_EVERY_S = 0.1
PROBE_WORDS = tuple(f"n{i}" for i in range(4000))
PROBE_LOGS = np.array([math.lgamma(i + 1.0) for i in range(4000)])


def _probe_python() -> None:
    pairs = {(PROBE_WORDS[i], PROBE_WORDS[i * 7 % 4000]) for i in range(4000)}
    by_first: dict[str, list[str]] = {}
    for x, y in pairs:
        by_first.setdefault(x, []).append(y)
    sum(1 for x, _ in pairs if x == "n5")


def _probe_numpy() -> None:
    for j in range(40):
        idx = np.arange(100 + j, 1100 + j)
        logs = PROBE_LOGS[idx] - PROBE_LOGS[idx - 50] + PROBE_LOGS[3999 - idx]
        float(np.exp(logs - logs.max()).sum())


# part -> (task, its seconds at full speed on the machine described above)
PROBE_PARTS = {"python": (_probe_python, 0.00125), "numpy": (_probe_numpy, 0.00075)}


class SpeedProbe:
    """Samples the machine's current speed with a fixed task, in batches."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.tasks = [PROBE_PARTS[p][0] for p in parts]
        self.reference = sum(PROBE_PARTS[p][1] for p in parts)
        self.batches: list[float] = []  # median task time of each batch
        self._last = -math.inf

    def sample(self, times: int = 3) -> None:
        # The collector stays off so the heap the program under test leaves
        # behind cannot change what the probe costs.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            batch = []
            for _ in range(times):
                t0 = time.perf_counter()
                for task in self.tasks:
                    task()
                batch.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self.batches.append(statistics.median(batch))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def mark(self) -> int:
        """Index of the latest batch."""
        return len(self.batches) - 1

    def scaled(self, seconds: float, first: int, last: int) -> float:
        """``seconds`` of work done between batches ``first`` and ``last``,
        at reference speed: judged by the mean of those batches."""
        return seconds * self.reference / statistics.fmean(self.batches[first:last + 1])

    def speed(self) -> float:
        """Median probe time over reference time (1 = full speed)."""
        return statistics.median(self.batches) / self.reference


@dataclass
class Outcome:
    """What one loop did: per-operation wall times, failures, and checks.

    Times are kept with the probe batches around them; op_times() and
    failed_time() give them scaled to reference speed unless raw=True.
    """

    probe: SpeedProbe
    completed: list[tuple[float, int, int]] = field(default_factory=list)
    failed_ops: list[tuple[float, int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def failure(self, what: str) -> None:
        self.failed += 1
        self.info.setdefault("first_failure", what)

    def op_times(self, raw: bool = False) -> list[float]:
        return [op[0] if raw else self.probe.scaled(*op) for op in self.completed]

    def failed_time(self, raw: bool = False) -> float:
        return sum(op[0] if raw else self.probe.scaled(*op) for op in self.failed_ops)


def new_outcome(workload) -> Outcome:
    return Outcome(SpeedProbe(workload.probe_parts))


def closed_loop(op, outcome: Outcome, seconds: float | None, count: int | None):
    """Call op() until ``seconds`` have passed (at least once) or until
    ``count`` calls have run. op returns its own
    duration and whether it completed; it is judged by the probe batches
    from the one before it to the first one after it."""
    start = time.perf_counter()
    i = 0
    while True:
        outcome.probe.maybe_sample()
        mark = outcome.probe.mark()
        elapsed, ok = op()
        after = outcome.probe.mark() + 1
        (outcome.completed if ok else outcome.failed_ops).append((elapsed, mark, after))
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    outcome.probe.sample()


def child_env() -> dict:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def setup_times(name: str, seed: int, probe: SpeedProbe, repeats: int) -> list[float]:
    """Scaled wall times of fresh processes that do the workload's set-up
    only, with the probe sampled around each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    runs = []
    for _ in range(repeats):
        probe.sample()
        first = probe.mark()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True, capture_output=True)
        runs.append((time.perf_counter() - t0, first, first + 1))
    probe.sample()
    return [probe.scaled(*run) for run in runs]


def cold_exact_child(n: int) -> float:
    """Seconds a fresh process takes for its first exact inversion at
    population size n, which builds the log-factorial table up to n."""
    s = min(200, n)
    code = (
        "import time\n"
        "from matchcert.bounds import Confidence, hypergeom_invert_lower\n"
        "t0 = time.perf_counter()\n"
        f"hypergeom_invert_lower({n}, {s}, {s // 2}, Confidence({DELTA}))\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          check=True, capture_output=True, text=True)
    return float(proc.stdout)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# coverage-2k
# --------------------------------------------------------------------------

COVERAGE_BOUND_IDS = frozenset(
    {
        "holdout-batch-recall",
        "holdout-batch-precision",
        "complete-batch-recall",
        "complete-batch-precision",
        "holdout-query-precision",
        "holdout-query-recall",
        "complete-query-recall",
        "complete-query-precision",
        "holdout-query-error-rate",
        "complete-query-error-rate",
    }
)


def coverage_config_doc(seed: int) -> dict:
    """The criterion-4 experiment, with the workload seed as its seed."""
    return {
        "generator": {
            "n_entities": 2000,
            "base_model": {"kind": "erdos-renyi", "p": 6 / 2000},
            "edge_retain_x": 0.8,
            "edge_retain_y": 0.8,
            "node_drop_x": 0.1,
            "node_drop_y": 0.1,
            "attr_noise": 0.0,
            "rng_seed": 0,
        },
        "matcher_holdout": {
            "kind": "percolation",
            "seeds": "verified-sample",
            "threshold": 2,
            "max_iters": 15,
        },
        "sample_sizes": {"s_m": 200, "s_x": 200, "s_x_prime": 400, "train": 120},
        "methods": ["hypergeometric-exact"],
        "trials": 1,
        "seed": seed,
        "delta_total": DELTA,
    }


class Coverage:
    name = "coverage-2k"
    probe_parts = ("python",)
    cold_n = 2000
    # A traced run alternates untraced and traced steps over the same work.
    trace_steps = 20
    step_ops = 1

    def __init__(self, seed: int) -> None:
        from matchcert import coverage

        self.coverage = coverage
        self.cfg = coverage.ExperimentConfig.from_json_dict(coverage_config_doc(seed))
        coverage.run_trial(self.cfg, 0)  # warm-up; timed trials start at 1
        self.next_index = 1
        self.records: list[list] = []

    def rewind(self, step: int) -> None:
        self.next_index = 1 + step

    def loop(self, outcome: Outcome, seconds=None, count=None) -> None:
        def op():
            idx = self.next_index
            self.next_index += 1
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                records = self.coverage.run_trial(self.cfg, idx)
            except Exception as e:  # a degenerate trial is counted, not fatal
                outcome.failure(f"trial {idx}: {type(e).__name__}: {e}")
                return time.perf_counter() - t0, False
            elapsed = time.perf_counter() - t0
            self.records.append(records)
            return elapsed, True

        closed_loop(op, outcome, seconds, count)

    def check(self, outcome: Outcome) -> None:
        failures: dict[str, int] = {}
        bound_sums: dict[str, float] = {}
        for records in self.records:
            ids = [r.bound_id for r in records]
            if len(ids) != len(COVERAGE_BOUND_IDS) or set(ids) != COVERAGE_BOUND_IDS:
                outcome.problems.append(f"trial bound ids {sorted(ids)}")
            for r in records:
                if not (math.isfinite(r.bound) and 0.0 <= r.bound <= 1.0):
                    outcome.problems.append(f"{r.bound_id} bound {r.bound!r}")
                failures[r.bound_id] = failures.get(r.bound_id, 0) + int(r.failed)
                bound_sums[r.bound_id] = bound_sums.get(r.bound_id, 0.0) + r.bound
        trials = len(self.records)
        if trials == 0:
            outcome.problems.append("no trial completed")
            return
        tolerance = DELTA + 3 * math.sqrt(DELTA * (1 - DELTA) / trials)
        for bound_id, count in sorted(failures.items()):
            if count / trials > tolerance:
                outcome.problems.append(
                    f"{bound_id} failed {count}/{trials} > {tolerance:.4f}"
                )
        outcome.info["mean_bound"] = {
            b: round(s / trials, 6) for b, s in sorted(bound_sums.items())
        }
        outcome.info["failure_rate"] = {
            b: round(c / trials, 6) for b, c in sorted(failures.items())
        }

    def named_metrics(self, outcome: Outcome, summary: dict) -> dict:
        return {
            "trials_per_s": (summary["ops_per_s"], "1/s"),
            "trial_p50_s": (summary["op_p50_s"], "s"),
            "trial_p90_s": (summary["op_p90_s"], "s"),
        }


# --------------------------------------------------------------------------
# pipeline-5k
# --------------------------------------------------------------------------

# 5,000 entities at ER mean degree 8. Larger worlds did not hold still on
# the 2-core machine this was built on: at 100k a pipeline took 85 s, and
# at 50k its stages (seconds long, in fresh processes, over big working
# sets) varied by about 20% between runs whatever the probe said. At 5k a
# 30-second run holds about ten pipelines and still crosses every CLI
# stage, process start-up and the file formats.
# Bootstrap percolation with threshold 2 needs about n / (2 d^2) seeds to
# take off, with d the degree surviving both edge samplings (8 * 0.8 * 0.8):
# about 95 here. Training uses about four times that. At 50k, 2,000 seeds
# (twice the threshold) left the holdout matcher between 24k and 33k pairs
# over five seeds, still growing when max_iters stopped it, so the work
# depended on the seed; 4,000 seeds gave 36.3k to 36.5k on the same seeds.
PIPELINE_ENTITIES = 5_000
PIPELINE_TRAIN = 400
PIPELINE_S_M = 200
PIPELINE_S_X = 200
PIPELINE_S_X_PRIME = 400

MATCHER_DOC = {"kind": "percolation", "seeds": "verified-sample", "threshold": 2,
               "max_iters": 15}

BATCH_BOUND_IDS = frozenset(
    {"holdout-batch-recall", "holdout-batch-precision",
     "complete-batch-recall", "complete-batch-precision"}
)
QUERY_BOUND_IDS = frozenset(
    {"holdout-query-precision", "holdout-query-recall", "holdout-query-error-rate",
     "complete-query-recall", "complete-query-precision", "complete-query-error-rate"}
)

STAGES = ("gen", "match_holdout", "match_complete", "validate_batch", "validate_query")


def pipeline_gen_doc(seed: int) -> dict:
    return {
        "n_entities": PIPELINE_ENTITIES,
        "base_model": {"kind": "erdos-renyi", "p": 8 / PIPELINE_ENTITIES},
        "edge_retain_x": 0.8,
        "edge_retain_y": 0.8,
        "node_drop_x": 0.1,
        "node_drop_y": 0.1,
        "attr_noise": 0.0,
        "rng_seed": seed,
    }


def _tsv_rows(path: Path) -> list[list[str]]:
    return [
        line.split("\t")
        for line in path.read_text(encoding="utf-8").split("\n")
        if line and not line.startswith("#")
    ]


def draw_samples(world: Path, out: Path, seed: int) -> int:
    """Write train/s_m/s_x/s_x' and the complete seeds drawn from a world.

    Complete seeds are train + s_m + the actual matches of s_x, the rule
    coverage trials use. Returns |M|.
    """
    matches = sorted(tuple(r) for r in _tsv_rows(world / "matches.tsv"))
    x_nodes = sorted(
        line.split("\t")[1]
        for line in (world / "x.tsv").read_text(encoding="utf-8").split("\n")
        if line.startswith("#node\t")
    )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5A4D])))

    def pick(universe, k):
        return [universe[i] for i in rng.choice(len(universe), size=k, replace=False)]

    train = pick(matches, PIPELINE_TRAIN)
    s_m = pick(matches, PIPELINE_S_M)
    s_x = pick(x_nodes, PIPELINE_S_X)
    s_x_prime = pick(x_nodes, PIPELINE_S_X_PRIME)
    actual: dict[str, list[str]] = {}
    for x, y in matches:
        actual.setdefault(x, []).append(y)
    complete = train + s_m + [(x, y) for x in s_x for y in actual.get(x, ())]

    def write_pairs(name, rows):
        (out / name).write_text("".join(f"{x}\t{y}\n" for x, y in rows), encoding="utf-8")

    def write_items(name, items):
        (out / name).write_text("".join(f"{i}\n" for i in items), encoding="utf-8")

    write_pairs("train.tsv", train)
    write_pairs("s_m.tsv", s_m)
    write_pairs("complete.tsv", complete)
    write_items("s_x.txt", s_x)
    write_items("s_x_prime.txt", s_x_prime)
    return len(matches)


class Pipeline:
    name = "pipeline-5k"
    probe_parts = ("python",)
    cold_n = PIPELINE_ENTITIES
    trace_steps = 3
    step_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dir = WORK / f"{self.name}-s{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "gen.json").write_text(json.dumps(pipeline_gen_doc(seed)), encoding="utf-8")
        (self.dir / "matcher.json").write_text(json.dumps(MATCHER_DOC), encoding="utf-8")
        self.m_size: int | None = None
        self.setup_times: list[float] = []
        self.stage_times: dict[str, list[tuple[float, int, int]]] = {s: [] for s in STAGES}
        self.digests: dict[str, set[str]] = {"m_hat_holdout.tsv": set(), "m_hat_complete.tsv": set()}
        self.reports: dict[str, dict] = {}
        self.tracer = None

    def setup_samples(self) -> None:
        """Benchmark-side set-up after gen: draw the samples from the world."""
        self.m_size = draw_samples(self.dir / "world", self.dir, self.seed)

    def _args(self, stage: str) -> list[str]:
        d = self.dir
        net = ["--x", str(d / "world/x.tsv"), "--y", str(d / "world/y.tsv")]
        if stage == "gen":
            return ["gen", "--config", str(d / "gen.json"), "--out-dir", str(d / "world")]
        if stage in ("match_holdout", "match_complete"):
            seeds, out = (("train.tsv", "m_hat_holdout.tsv") if stage == "match_holdout"
                          else ("complete.tsv", "m_hat_complete.tsv"))
            return ["match", *net, "--config", str(d / "matcher.json"),
                    "--seeds", str(d / seeds), "--out", str(d / out)]
        if stage == "validate_batch":
            return ["validate", "batch", *net,
                    "--m-hat-holdout", str(d / "m_hat_holdout.tsv"),
                    "--m-hat-complete", str(d / "m_hat_complete.tsv"),
                    "--s-m", str(d / "s_m.tsv"), "--s-x", str(d / "s_x.txt"),
                    "--actual", str(d / "world/matches.tsv"),
                    "--m-size", str(self.m_size),
                    "--method", "hypergeometric-exact",
                    "--out", str(d / "report_batch.json")]
        return ["validate", "query", *net, "--matcher", str(d / "matcher.json"),
                "--seeds", str(d / "train.tsv"),
                "--seeds-complete", str(d / "complete.tsv"),
                "--s-x", str(d / "s_x.txt"), "--s-x-prime", str(d / "s_x_prime.txt"),
                "--actual", str(d / "world/matches.tsv"),
                "--method", "hypergeometric-exact",
                "--out", str(d / "report_query.json")]

    def _stage(self, stage: str, outcome: Outcome) -> tuple[bool, float]:
        """Run one CLI stage as a fresh process; exit 2 (vacuous) is success."""
        args = self._args(stage)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "matchcert", *args]
        else:
            spans_out = self.dir / f"spans-{stage}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_out), *args]
        outcome.attempted += 1
        t0 = time.perf_counter()
        if self.tracer is None:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        else:
            proc = self.tracer.call(
                f"stage.{stage}", subprocess.run, cmd, cwd=ROOT, env=child_env(),
                capture_output=True, text=True,
            )
        elapsed = time.perf_counter() - t0
        if proc.returncode not in (0, 2):
            outcome.failure(f"{stage} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return False, elapsed
        if self.tracer is not None:
            from spans import load

            stage_span_id = self.tracer.spans[-1][0]
            spans, counters, missing = load(spans_out)
            self.tracer.adopt(spans, stage_span_id)
            for k, v in counters.items():
                self.tracer.counters[k] = self.tracer.counters.get(k, 0) + v
            self.tracer.missing = sorted(set(self.tracer.missing) | set(missing))
        return True, elapsed

    def loop(self, outcome: Outcome, seconds=None, count=None, setup_repeats=0) -> None:
        def op():
            total = 0.0
            for stage in STAGES:
                outcome.probe.sample()
                mark = outcome.probe.mark()
                ok, elapsed = self._stage(stage, outcome)
                total += elapsed
                if not ok:
                    return total, False
                self.stage_times[stage].append((elapsed, mark, mark + 1))
                if stage == "gen" and self.m_size is None:
                    # Samples depend on the generated world, so set-up runs
                    # here, outside the pipeline's time.
                    self.setup_times = setup_times(self.name, self.seed, outcome.probe,
                                                   setup_repeats)
                    self.setup_samples()
            for name in self.digests:
                self.digests[name].add(sha256_file(self.dir / name))
            for kind in ("batch", "query"):
                path = self.dir / f"report_{kind}.json"
                self.reports[kind] = json.loads(path.read_text(encoding="utf-8"))
            return total, True

        closed_loop(op, outcome, seconds, count)

    def rewind(self, step: int) -> None:
        """Every pipeline is the same work; nothing to rewind."""

    def repeat_match(self, outcome: Outcome) -> None:
        """Run the holdout match again so its digest can be compared."""
        ok, _ = self._stage("match_holdout", outcome)
        if ok:
            self.digests["m_hat_holdout.tsv"].add(sha256_file(self.dir / "m_hat_holdout.tsv"))

    def check(self, outcome: Outcome) -> None:
        for name, digests in self.digests.items():
            if len(digests) > 1:
                outcome.problems.append(f"{name} differs across repeats")
        expected = {"batch": BATCH_BOUND_IDS, "query": QUERY_BOUND_IDS}
        for kind, ids in expected.items():
            doc = self.reports.get(kind)
            if doc is None:
                outcome.problems.append(f"no {kind} report")
                continue
            got = {r["bound_id"] for r in doc["reports"]}
            if got != ids or len(doc["reports"]) != len(ids):
                outcome.problems.append(f"{kind} report bound ids {sorted(got)}")
            for r in doc["reports"]:
                value = r["lower_bound"] if r["lower_bound"] is not None else r["upper_bound"]
                if not (isinstance(value, (int, float)) and math.isfinite(value)
                        and 0.0 <= value <= 1.0):
                    outcome.problems.append(f"{r['bound_id']} bound {value!r}")
            outcome.info[f"{kind}_bounds"] = {
                r["bound_id"]: r["lower_bound"] if r["lower_bound"] is not None
                else r["upper_bound"]
                for r in doc["reports"]
            }
            outcome.info[f"{kind}_digests"] = sorted(r["inputs_digest"] for r in doc["reports"])
        outcome.info["match_digests"] = {k: sorted(v) for k, v in self.digests.items()}

    def named_metrics(self, outcome: Outcome, summary: dict) -> dict:
        def median(*stages):
            runs = zip(*(self.stage_times[s] for s in stages))
            times = [sum(outcome.probe.scaled(*stage) for stage in run) for run in runs]
            return statistics.median(times) if times else float("nan")

        return {
            "gen_s": (median("gen"), "s"),
            "match_s": (median("match_holdout", "match_complete"), "s"),
            "validate_batch_s": (median("validate_batch"), "s"),
            "validate_query_s": (median("validate_query"), "s"),
            "pipeline_s": (summary["op_p50_s"], "s"),
        }


# --------------------------------------------------------------------------
# bounds-sweep
# --------------------------------------------------------------------------

SWEEP_NS = (2_000, 100_000, 1_000_000)
SWEEP_SS = (50, 200, 2_000)
SWEEP_MEANS = (0.05, 0.5, 0.95)
SWEEP_SIDES = ("lower", "upper", "both")
# Non-binary shapes: per-node match counts in [0, k] (the density term) and
# the complete-matcher d_p values in [-1, 2].
SWEEP_K = 3
SWEEP_RANGES = ((0.0, float(SWEEP_K)), (-1.0, 2.0))
EXACT_CHECKS = 12  # exact inversions re-checked against scipy per run


def sweep_grid(seed: int) -> list[tuple]:
    """(n, lo, hi, values, method, side) rows; values drawn from the seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xB0D5])))
    grid = []
    methods = ("hoeffding", "empirical-bernstein-serfling", "hypergeometric-exact")
    for n in SWEEP_NS:
        for s in SWEEP_SS:
            for mean in SWEEP_MEANS:
                values = tuple((rng.random(s) < mean).astype(float).tolist())
                for method in methods:
                    for side in SWEEP_SIDES:
                        grid.append((n, 0.0, 1.0, values, method, side))
            for lo, hi in SWEEP_RANGES:
                values = tuple(rng.integers(int(lo), int(hi) + 1, s).astype(float).tolist())
                for method in methods[:2]:
                    for side in SWEEP_SIDES:
                        grid.append((n, lo, hi, values, method, side))
    return grid


class BoundsSweep:
    name = "bounds-sweep"
    probe_parts = ("python", "numpy")
    cold_n = max(SWEEP_NS)
    trace_steps = 10  # one pass over the grid per step

    def __init__(self, seed: int) -> None:
        from matchcert import bounds

        self.bounds = bounds
        self.seed = seed
        self.calls = [
            (
                bounds.PopulationSpec(n, lo, hi),
                bounds.SampleSummary(values),
                bounds.BoundMethod.parse(method),
                bounds.Confidence(DELTA),
                side,
            )
            for n, lo, hi, values, method, side in sweep_grid(seed)
        ]
        # The first exact call at the largest n builds the cold log-factorial
        # table; it belongs to set-up.
        bounds.bound_mean(*next(
            c for c in self.calls
            if c[0].n == max(SWEEP_NS) and c[2] is bounds.BoundMethod.HYPERGEOMETRIC
        ))
        self.results = [bounds.bound_mean(*c) for c in self.calls]  # warm-up pass
        self.next_call = 0

    @property
    def step_ops(self) -> int:
        return len(self.calls)

    def rewind(self, step: int) -> None:
        self.next_call = 0

    def loop(self, outcome: Outcome, seconds=None, count=None) -> None:
        bound_mean = self.bounds.bound_mean

        def op():
            i = self.next_call % len(self.calls)
            self.next_call += 1
            args = self.calls[i]
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                res = bound_mean(*args)
            except Exception as e:
                outcome.failure(f"call {i}: {type(e).__name__}: {e}")
                return time.perf_counter() - t0, False
            elapsed = time.perf_counter() - t0
            pop = args[0]
            if not pop.lo <= res.lower <= res.estimate <= res.upper <= pop.hi:
                outcome.problems.append(
                    f"call {i}: {res.lower} <= {res.estimate} <= {res.upper} "
                    f"outside [{pop.lo}, {pop.hi}]"
                )
            elif (res.lower, res.upper) != (self.results[i].lower, self.results[i].upper):
                outcome.problems.append(f"call {i}: result changed between passes")
            return elapsed, True

        closed_loop(op, outcome, seconds, count)

    def check(self, outcome: Outcome) -> None:
        """Re-check a seeded subset of exact inversions with scipy, by the
        tail inequalities that define them at m and at its neighbour."""
        from scipy.stats import hypergeom

        exact = [
            i for i, c in enumerate(self.calls)
            if c[2] is self.bounds.BoundMethod.HYPERGEOMETRIC
        ]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, 0xC4EC])))
        tol = 1e-6 * DELTA
        checked = 0
        for i in sorted(rng.choice(exact, size=min(EXACT_CHECKS, len(exact)), replace=False)):
            pop, sample, _, _, side = self.calls[i]
            n, s = pop.n, sample.s
            k = int(round(sum(sample.values)))
            res = self.results[i]
            if side in ("lower", "both") and k > 0:
                m = round(res.lower * n)
                # P{X >= k | m} >= delta, and < delta at m - 1
                if hypergeom.sf(k - 1, n, m, s) < DELTA - tol or (
                    m - 1 >= k and hypergeom.sf(k - 1, n, m - 1, s) >= DELTA + tol
                ):
                    outcome.problems.append(f"call {i}: exact lower {m}/{n} (k={k}, s={s})")
                checked += 1
            if side in ("upper", "both") and k < s:
                m = round(res.upper * n)
                # P{X <= k | m} >= delta, and < delta at m + 1
                if hypergeom.cdf(k, n, m, s) < DELTA - tol or (
                    m + 1 <= n and hypergeom.cdf(k, n, m + 1, s) >= DELTA + tol
                ):
                    outcome.problems.append(f"call {i}: exact upper {m}/{n} (k={k}, s={s})")
                checked += 1
        outcome.info["exact_inversions_checked"] = checked
        outcome.info["grid_calls"] = len(self.calls)

    def named_metrics(self, outcome: Outcome, summary: dict) -> dict:
        return {"bounds_per_s": (summary["ops_per_s"], "1/s")}


WORKLOADS = {w.name: w for w in (Coverage, Pipeline, BoundsSweep)}

