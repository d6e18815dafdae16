"""Monte Carlo coverage experiments.

Each trial generates a correlated network pair with known ground truth,
trains a holdout matcher on an independent verified sample, derives a
complete matcher by additionally seeding it with the validation samples,
computes every certificate, and compares each certified bound against the
exact metric. A certificate fails a trial when its bound lands on the
wrong side of the truth; over many trials the failure rate must stay
within the advertised delta (plus binomial noise), which is what the
acceptance suite checks.

Everything is deterministic given the experiment seed: per-trial
generators are spawned from (seed, trial index), trials can run in a
process pool, and rows are aggregated in trial order with exact summation,
so repeated runs emit byte-identical tables.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .batch import (
    BatchValidationInput,
    complete_batch_precision,
    complete_batch_recall,
    holdout_batch_precision,
    holdout_batch_recall,
    true_batch_metrics,
)
from .bounds import BoundMethod, DeltaBudget
from .errors import MatchcertError
from .graphs import by_x
from .matchers import MatcherConfig, build_matcher, run_batch, with_extra_seeds
from .query import (
    QueryValidationInput,
    complete_query_precision,
    complete_query_recall,
    error_rate_bounds,
    holdout_query_bounds,
    true_error_rate,
    true_query_metrics,
)
from .reports import ValidationReport
from .sampling import sample_without_replacement, spawn_rng
from .synth import GeneratorConfig, generate_pair

__all__ = [
    "SampleSizes",
    "ExperimentConfig",
    "TrialRecord",
    "CoverageRow",
    "CoverageTable",
    "run_trial",
    "run_coverage",
]

CSV_COLUMNS = (
    "bound",
    "method",
    "deltas",
    "trials",
    "mean_bound",
    "mean_truth",
    "failure_rate",
)


@dataclass(frozen=True)
class SampleSizes:
    s_m: int
    s_x: int
    s_x_prime: int
    train: int

    def to_json_dict(self) -> dict:
        return {
            "s_m": self.s_m,
            "s_x": self.s_x,
            "s_x_prime": self.s_x_prime,
            "train": self.train,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SampleSizes":
        return cls(
            s_m=int(doc["s_m"]),
            s_x=int(doc["s_x"]),
            s_x_prime=int(doc["s_x_prime"]),
            train=int(doc["train"]),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Coverage experiment parameters.

    The complete matcher is the holdout one (or ``matcher_complete`` when
    given) additionally seeded with the validation samples, which is what
    makes its output depend on them.
    """

    generator: GeneratorConfig
    matcher_holdout: MatcherConfig
    sample_sizes: SampleSizes
    methods: tuple[BoundMethod, ...]
    trials: int
    seed: int
    matcher_complete: MatcherConfig | None = None
    delta_total: float = 0.05

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise MatchcertError(f"invalid-trials: {self.trials}")
        if not 0.0 < self.delta_total < 1.0:
            raise MatchcertError(f"invalid-confidence: {self.delta_total}")

    def to_json_dict(self) -> dict:
        return {
            "generator": self.generator.to_json_dict(),
            "matcher_holdout": self.matcher_holdout.to_json_dict(),
            "matcher_complete": (
                self.matcher_complete.to_json_dict()
                if self.matcher_complete
                else None
            ),
            "sample_sizes": self.sample_sizes.to_json_dict(),
            "methods": [m.value for m in self.methods],
            "trials": self.trials,
            "seed": self.seed,
            "delta_total": self.delta_total,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "ExperimentConfig":
        return cls(
            generator=GeneratorConfig.from_json_dict(doc["generator"]),
            matcher_holdout=MatcherConfig.from_json_dict(doc["matcher_holdout"]),
            matcher_complete=(
                MatcherConfig.from_json_dict(doc["matcher_complete"])
                if doc.get("matcher_complete")
                else None
            ),
            sample_sizes=SampleSizes.from_json_dict(doc["sample_sizes"]),
            methods=tuple(BoundMethod.parse(m) for m in doc["methods"]),
            trials=int(doc["trials"]),
            seed=int(doc["seed"]),
            delta_total=float(doc.get("delta_total", 0.05)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class TrialRecord:
    bound_id: str
    method: str
    deltas: str
    bound: float
    truth: float
    failed: bool
    vacuous: bool


def _deltas_str(budget: DeltaBudget) -> str:
    return ";".join(repr(p.delta) for p in budget.parts)


def _trial_seed(seed: int, idx: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(idx, 0xC0FFEE))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(cfg: ExperimentConfig, idx: int) -> list[TrialRecord]:
    """One generate -> sample -> match -> certify -> compare cycle."""
    try:
        return _run_trial(cfg, idx)
    except MatchcertError as e:
        raise MatchcertError(f"trial-failed: trial {idx}: {e}") from e


def _record(method: BoundMethod, report: ValidationReport, truth: float) -> TrialRecord:
    lower = report.lower_bound is not None
    bound = report.lower_bound if lower else report.upper_bound
    return TrialRecord(
        bound_id=report.bound_id,
        method=method.value,
        deltas=_deltas_str(report.budget),
        bound=bound,
        truth=truth,
        failed=bound > truth if lower else bound < truth,
        vacuous=report.vacuous,
    )


def _run_trial(cfg: ExperimentConfig, idx: int) -> list[TrialRecord]:
    sizes = cfg.sample_sizes
    gen_cfg = replace(cfg.generator, rng_seed=_trial_seed(cfg.seed, idx))
    pair, truth = generate_pair(gen_cfg)
    truth_ordered = sorted(truth.pairs)
    x_nodes = sorted(pair.x_net.nodes)

    train = sample_without_replacement(
        truth_ordered, min(sizes.train, len(truth_ordered)), spawn_rng(cfg.seed, idx, 1)
    )
    s_m = tuple(
        sample_without_replacement(
            truth_ordered, min(sizes.s_m, len(truth_ordered)), spawn_rng(cfg.seed, idx, 2)
        )
    )
    s_x = tuple(
        sample_without_replacement(x_nodes, sizes.s_x, spawn_rng(cfg.seed, idx, 3))
    )
    s_x_prime = tuple(
        sample_without_replacement(
            x_nodes, sizes.s_x_prime, spawn_rng(cfg.seed, idx, 4)
        )
    )
    per_x = by_x(truth)
    actual_for = {x: per_x.get(x, frozenset()) for x in pair.x_net.nodes}

    holdout = build_matcher(
        cfg.matcher_holdout, training_matches=train, trained_on=("training-sample",)
    )
    complete_base = (
        build_matcher(
            cfg.matcher_complete,
            training_matches=train,
            trained_on=("training-sample",),
        )
        if cfg.matcher_complete is not None
        else holdout
    )
    validation_seeds = list(s_m) + [
        (x, y) for x in s_x for y in sorted(actual_for[x])
    ]
    complete = with_extra_seeds(complete_base, validation_seeds, ("s_m", "s_x"))

    m_hat_h = run_batch(holdout, pair)
    m_hat_c = run_batch(complete, pair)
    if not m_hat_h.pairs or not m_hat_c.pairs:
        raise MatchcertError("trial-degenerate: a matcher identified nothing")

    p_h_batch, r_h_batch = true_batch_metrics(pair, m_hat_h, truth)
    p_c_batch, r_c_batch = true_batch_metrics(pair, m_hat_c, truth)
    p_h_query, r_h_query = true_query_metrics(pair, m_hat_h, truth)
    p_c_query, r_c_query = true_query_metrics(pair, m_hat_c, truth)
    err_h = true_error_rate(pair, m_hat_h, truth)
    err_c = true_error_rate(pair, m_hat_c, truth)

    d = cfg.delta_total
    records: list[TrialRecord] = []
    for method in cfg.methods:
        def batch_inp(budget, complete_set=None):
            return BatchValidationInput(
                pair=pair,
                m_hat_holdout=m_hat_h,
                s_m=s_m,
                s_x=s_x,
                actual_for=actual_for,
                method=method,
                budget=budget,
                k_y=1,
                m_hat_complete=complete_set,
                m_size=len(truth.pairs),
            )

        def query_inp(budget, with_complete=False):
            return QueryValidationInput(
                pair=pair,
                holdout=holdout,
                s_x=s_x,
                actual_for=actual_for,
                method=method,
                budget=budget,
                complete=complete if with_complete else None,
                s_x_prime=s_x_prime,
                k_cap=1,
            )

        one, two = DeltaBudget.of(d), DeltaBudget.equal_split(d, 2)
        checks = [
            (holdout_batch_recall(batch_inp(one)), r_h_batch),
            (holdout_batch_precision(batch_inp(two)), p_h_batch),
            (complete_batch_recall(batch_inp(two, m_hat_c)), r_c_batch),
            (complete_batch_precision(batch_inp(two, m_hat_c)), p_c_batch),
        ]
        q_prec, q_rec = holdout_query_bounds(query_inp(one))
        checks += [
            (q_prec, p_h_query),
            (q_rec, r_h_query),
            (
                complete_query_recall(query_inp(DeltaBudget.equal_split(d, 3), True)),
                r_c_query,
            ),
            (
                complete_query_precision(
                    query_inp(DeltaBudget.equal_split(d, 4), True)
                ),
                p_c_query,
            ),
            (error_rate_bounds(query_inp(one)), err_h),
            (error_rate_bounds(query_inp(two, True)), err_c),
        ]
        records += [_record(method, report, truth) for report, truth in checks]
    return records


@dataclass
class CoverageRow:
    bound_id: str
    method: str
    deltas: str
    trials: int = 0
    bounds: list = None
    truths: list = None
    failures: int = 0
    vacuous: int = 0

    def __post_init__(self):
        self.bounds = [] if self.bounds is None else self.bounds
        self.truths = [] if self.truths is None else self.truths

    @property
    def mean_bound(self) -> float:
        return math.fsum(self.bounds) / self.trials

    @property
    def mean_truth(self) -> float:
        return math.fsum(self.truths) / self.trials

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials


@dataclass
class CoverageTable:
    rows: dict[tuple[str, str, str], CoverageRow]
    config: ExperimentConfig

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for key in sorted(self.rows):
            r = self.rows[key]
            lines.append(
                ",".join(
                    [
                        r.bound_id,
                        r.method,
                        r.deltas,
                        str(r.trials),
                        repr(r.mean_bound),
                        repr(r.mean_truth),
                        repr(r.failure_rate),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "rows": [
                {
                    "bound": r.bound_id,
                    "method": r.method,
                    "deltas": r.deltas,
                    "trials": r.trials,
                    "mean_bound": r.mean_bound,
                    "mean_truth": r.mean_truth,
                    "failure_rate": r.failure_rate,
                    "vacuous_trials": r.vacuous,
                }
                for _, r in sorted(self.rows.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _worker(args) -> list[TrialRecord]:
    cfg, idx = args
    return run_trial(cfg, idx)


def run_coverage(cfg: ExperimentConfig, jobs: int = 1) -> CoverageTable:
    """Run all trials and aggregate failure rates per certificate/method.

    ``jobs`` worker processes share the trials; the table does not depend
    on it.
    """
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_records = list(
                pool.map(
                    _worker,
                    ((cfg, i) for i in range(cfg.trials)),
                    chunksize=max(1, cfg.trials // (jobs * 8)),
                )
            )
    else:
        all_records = [run_trial(cfg, i) for i in range(cfg.trials)]

    rows: dict[tuple[str, str, str], CoverageRow] = {}
    for trial_records in all_records:
        for rec in trial_records:
            key = (rec.bound_id, rec.method, rec.deltas)
            row = rows.get(key)
            if row is None:
                row = rows[key] = CoverageRow(rec.bound_id, rec.method, rec.deltas)
            row.trials += 1
            row.bounds.append(rec.bound)
            row.truths.append(rec.truth)
            row.failures += int(rec.failed)
            row.vacuous += int(rec.vacuous)
    return CoverageTable(rows, cfg)
