"""Monte Carlo coverage experiments.

Each trial generates a correlated network pair with known ground truth,
trains a holdout matcher on an independent verified sample, derives a
complete matcher by additionally seeding it with the validation samples,
computes every certificate, and compares each certified bound against the
exact metric. A certificate fails a trial when its bound lands on the
wrong side of the truth; over many trials the failure rate must stay
within the advertised delta (plus binomial noise), which is what the
acceptance suite checks.

A trial that fails (``trial-failed``: a matcher identified nothing, no
sampled node is usable, a term needs a method the sample does not allow)
does not stop the run. It is counted in the table's ``failed_trials`` and
contributes to no row, so each row's ``trials`` is its completed trials.
Only when every trial fails does the run raise, with the first error.

Everything is deterministic given the experiment seed: per-trial
generators are spawned from (seed, trial index), trials can run in a
process pool, and rows are aggregated in trial order with exact summation,
so repeated runs emit byte-identical tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .batch import BatchValidationInput, batch_reports, true_batch_metrics
from .bounds import BoundMethod, DeltaBudget
from .errors import MatchcertError
from .graphs import matches_of
from .matchers import MatcherConfig, build_matcher, run_batch, with_extra_seeds
from .query import (
    QueryValidationInput,
    query_reports,
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
        if not self.methods:
            raise MatchcertError("invalid-methods: no bound method given")
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
    x_nodes = pair.x_net.index.ids  # sorted
    # the actual matches are sampled as keys, in key (= sorted pair) order,
    # and only the drawn keys become string pairs
    m = truth.keys.size
    train = truth.decode(
        sample_without_replacement(
            truth.keys, min(sizes.train, m), spawn_rng(cfg.seed, idx, 1)
        )
    )
    s_m = tuple(
        truth.decode(
            sample_without_replacement(
                truth.keys, min(sizes.s_m, m), spawn_rng(cfg.seed, idx, 2)
            )
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
    # every reader of actual_for (the validation seeds below and each
    # certificate) reads the nodes of s_x only
    found = matches_of(truth, pair, s_x)
    actual_for = {x: found.get(x, frozenset()) for x in s_x}

    holdout = build_matcher(cfg.matcher_holdout, training_matches=train)
    complete_base = (
        build_matcher(cfg.matcher_complete, training_matches=train)
        if cfg.matcher_complete is not None
        else holdout
    )
    validation_seeds = list(s_m) + [
        (x, y) for x in s_x for y in sorted(actual_for[x])
    ]
    complete = with_extra_seeds(complete_base, validation_seeds)

    m_hat_h = run_batch(holdout, pair)
    m_hat_c = run_batch(complete, pair)
    if not m_hat_h.keys.size or not m_hat_c.keys.size:
        raise MatchcertError("trial-degenerate: a matcher identified nothing")

    truths = {}  # exact value of each certified quantity, by bound id
    for variant, m_hat in (("holdout", m_hat_h), ("complete", m_hat_c)):
        for mode, exact in (("batch", true_batch_metrics), ("query", true_query_metrics)):
            p, r = exact(pair, m_hat, truth)
            truths[f"{variant}-{mode}-precision"] = p
            truths[f"{variant}-{mode}-recall"] = r
        truths[f"{variant}-query-error-rate"] = true_error_rate(pair, m_hat, truth)

    budget = DeltaBudget.of(cfg.delta_total)
    records: list[TrialRecord] = []
    for method in cfg.methods:
        reports = batch_reports(
            BatchValidationInput(
                pair=pair,
                m_hat_holdout=m_hat_h,
                s_m=s_m,
                s_x=s_x,
                actual_for=actual_for,
                method=method,
                budget=budget,
                m_hat_complete=m_hat_c,
                m_size=m,
            )
        ) + query_reports(
            QueryValidationInput(
                pair=pair,
                holdout=holdout,
                s_x=s_x,
                actual_for=actual_for,
                method=method,
                budget=budget,
                complete=complete,
                s_x_prime=s_x_prime,
            )
        )
        records += [_record(method, r, truths[r.bound_id]) for r in reports]
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
    failed_trials: int = 0

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
        doc = {
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
        if self.failed_trials:
            doc["failed_trials"] = self.failed_trials
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _worker(args) -> list[TrialRecord] | str:
    """One trial's records, or its ``trial-failed`` message."""
    cfg, idx = args
    try:
        return run_trial(cfg, idx)
    except MatchcertError as e:
        return str(e)


def run_coverage(cfg: ExperimentConfig, jobs: int = 1) -> CoverageTable:
    """Run all trials and aggregate failure rates per certificate/method.

    ``jobs`` worker processes share the trials; the table does not depend
    on it.
    """
    if jobs > 1:
        # imported only here: loading multiprocessing slows every CLI start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_records = list(
                pool.map(
                    _worker,
                    ((cfg, i) for i in range(cfg.trials)),
                    chunksize=max(1, cfg.trials // (jobs * 8)),
                )
            )
    else:
        all_records = [_worker((cfg, i)) for i in range(cfg.trials)]

    failed = [r for r in all_records if isinstance(r, str)]
    if len(failed) == cfg.trials:
        raise MatchcertError(failed[0])
    rows: dict[tuple[str, str, str], CoverageRow] = {}
    for trial_records in all_records:
        if isinstance(trial_records, str):
            continue
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
    return CoverageTable(rows, cfg, len(failed))
