"""Monte Carlo coverage experiments.

Each trial generates a correlated network pair with known ground truth,
trains a holdout matcher on an independent verified sample, derives a
complete matcher by additionally seeding it with the validation samples,
computes every certificate, and compares each certified bound against the
exact metric. A certificate fails a trial when its bound lands on the
wrong side of the truth; over many trials the failure rate must stay
within the advertised delta (plus binomial noise), which is what the
acceptance suite checks.

A trial draws train and s_m as positions in the truth's keys and seeds
the matchers with those keys, as MatchSets: train, then train, s_m and
the verified pairs of s_x. Only the samples the certificates read (s_m,
s_x, s_x') become node ids.

A trial that fails (``trial-failed``: a matcher identified nothing, no
sampled node is usable, a term needs a method the sample does not allow)
does not stop the run. It is counted in the table's ``failed_trials`` and
contributes to no row, so each row's ``trials`` is its completed trials.
Only when every trial fails does the run raise, with the first error.

Everything is deterministic given the experiment seed: per-trial
generators are spawned from (seed, trial index), trials can run in a
process pool, and rows are aggregated in trial order with exact summation,
so repeated runs emit byte-identical tables. Each row is built once, from
its certificate's records, as a frozen ``CoverageRow``; the CSV and the
JSON are both written from that one row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import chain
from typing import Mapping

import numpy as np

from .batch import BatchValidationInput, batch_reports
from .bounds import BoundMethod, Confidence
from .errors import MatchcertError, read_fields
from .graphs import MatchSet, distinct_sorted, matches_of
from .matchers import MatcherConfig, build_matcher, run_batch
from .query import QueryValidationInput, exact_metrics, query_reports
from .reports import ValidationReport
from .sampling import sample_indices, sample_without_replacement, spawn_rng
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
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise MatchcertError(f"invalid-methods: want distinct methods, got {self.methods}")
        if self.seed < 0:
            raise MatchcertError(f"invalid-seed: seed {self.seed}")
        Confidence(self.delta_total)

    def to_json_dict(self) -> dict:
        complete = self.matcher_complete
        return {
            **asdict(self),
            "generator": self.generator.to_json_dict(),
            "matcher_holdout": self.matcher_holdout.to_json_dict(),
            "matcher_complete": complete and complete.to_json_dict(),
            "methods": [m.value for m in self.methods],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "ExperimentConfig":
        return read_fields(
            cls,
            doc,
            generator=GeneratorConfig.from_json_dict,
            matcher_holdout=MatcherConfig.from_json_dict,
            matcher_complete=MatcherConfig.from_json_dict,
            sample_sizes=partial(read_fields, SampleSizes),
            methods=_read_methods,
        )


def _read_methods(doc) -> tuple[BoundMethod, ...]:
    if not isinstance(doc, list):
        raise MatchcertError(f"invalid-config: methods takes a list, not {doc!r}")
    return tuple(map(BoundMethod.parse, doc))


@dataclass(frozen=True)
class TrialRecord:
    bound_id: str
    method: str
    deltas: str
    bound: float
    truth: float
    failed: bool
    vacuous: bool


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
        deltas=";".join(map(repr, report.delta_parts)),
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

    def rng(purpose: int) -> np.random.Generator:
        return spawn_rng(cfg.seed, idx, purpose)

    # samples are drawn as positions, in the truth's keys (key order is
    # sorted pair order) and in X. The seeds are truth keys: one-to-one, so
    # the order percolation takes them in does not matter
    m = truth.keys.size
    train = truth.keys[np.sort(sample_indices(m, min(sizes.train, m), rng(1)))]
    drawn = truth.keys[sample_indices(m, min(sizes.s_m, m), rng(2))]
    s_m = tuple(truth.decode(drawn))
    x_at = sample_indices(len(x_nodes), sizes.s_x, rng(3))
    s_x = tuple(map(x_nodes.__getitem__, x_at.tolist()))
    s_x_prime = tuple(sample_without_replacement(x_nodes, sizes.s_x_prime, rng(4)))
    # every reader of actual_for (each certificate) reads s_x's nodes only
    actual_for = matches_of(truth, pair, s_x)
    sampled = np.bincount(x_at, minlength=len(x_nodes)) > 0
    verified = truth.keys[sampled[truth.keys // len(truth.y_ids)]]
    extra = distinct_sorted(np.concatenate([train, drawn, verified]))

    seeds = partial(MatchSet, truth.x_ids, truth.y_ids)
    holdout = build_matcher(cfg.matcher_holdout, seeds(train))
    complete = build_matcher(cfg.matcher_complete or cfg.matcher_holdout, seeds(extra))

    m_hat_h = run_batch(holdout, pair)
    m_hat_c = run_batch(complete, pair)
    if not m_hat_h.keys.size or not m_hat_c.keys.size:
        raise MatchcertError("trial-degenerate: a matcher identified nothing")

    truths = {  # exact value of each certified quantity, by bound id
        f"{variant}-{name.replace('_', '-')}": value
        for variant, m_hat in (("holdout", m_hat_h), ("complete", m_hat_c))
        for name, value in exact_metrics(pair, m_hat, truth)._asdict().items()
    }

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
                delta=cfg.delta_total,
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
                delta=cfg.delta_total,
                complete=complete,
                s_x_prime=s_x_prime,
            )
        )
        records += [_record(method, r, truths[r.bound_id]) for r in reports]
    return records


@dataclass(frozen=True)
class CoverageRow:
    bound: str
    method: str
    deltas: str
    trials: int
    mean_bound: float
    mean_truth: float
    failure_rate: float
    vacuous_trials: int


def _row(records: list[TrialRecord]) -> CoverageRow:
    """The row of one certificate's records, given in trial order."""
    first, trials = records[0], len(records)
    return CoverageRow(
        bound=first.bound_id,
        method=first.method,
        deltas=first.deltas,
        trials=trials,
        mean_bound=math.fsum(r.bound for r in records) / trials,
        mean_truth=math.fsum(r.truth for r in records) / trials,
        failure_rate=sum(r.failed for r in records) / trials,
        vacuous_trials=sum(r.vacuous for r in records),
    )


@dataclass
class CoverageTable:
    rows: dict[tuple[str, str, str], CoverageRow]  # in key order
    config: ExperimentConfig
    failed_trials: int = 0

    def to_csv(self) -> str:
        # str of a float is its repr
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join(str(row[c]) for c in CSV_COLUMNS)
            for row in map(asdict, self.rows.values())
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        doc = {
            "config": self.config.to_json_dict(),
            "rows": [asdict(r) for r in self.rows.values()],
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
    groups: dict[tuple[str, str, str], list[TrialRecord]] = {}
    for rec in chain.from_iterable(r for r in all_records if not isinstance(r, str)):
        groups.setdefault((rec.bound_id, rec.method, rec.deltas), []).append(rec)
    rows = {key: _row(groups[key]) for key in sorted(groups)}
    return CoverageTable(rows, cfg, len(failed))
