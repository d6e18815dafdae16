"""PAC bounds on the mean of a bounded function over a finite population.

All estimates are built from a sample drawn uniformly at random WITHOUT
replacement. Three bound families are provided:

* Hoeffding: range-based, needs only the sample size.
* Empirical Bernstein-Serfling: variance-adaptive, needs the population
  size for its sampling-fraction factor; tighter than Hoeffding when the
  sample standard deviation is small relative to the range.
* Exact hypergeometric tail inversion: binary {0, 1} values only; the
  tightest of the three (up to floating-point error in the tails).

Every bound is one-sided: the lower bound and the upper bound each fail
with probability at most ``delta``. Callers needing several bounds to hold
simultaneously combine their deltas with :func:`union_confidence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import MatchcertError

__all__ = [
    "KAPPA",
    "PopulationSpec",
    "SampleSummary",
    "Confidence",
    "BoundMethod",
    "BoundResult",
    "DeltaBudget",
    "sample_mean",
    "sample_sigma_hat",
    "rho_s",
    "hoeffding_bounds",
    "ebs_bounds",
    "hypergeom_pmf",
    "hypergeom_tail_upper",
    "hypergeom_tail_lower",
    "hypergeom_invert_lower",
    "hypergeom_invert_upper",
    "bound_mean",
    "bound_term",
    "union_confidence",
    "is_binary_sample",
]

# Constant in the empirical Bernstein-Serfling range term: 7/3 + 3/sqrt(2).
KAPPA = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PopulationSpec:
    """A finite population of ``n`` items carrying values in ``[lo, hi]``."""

    n: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise MatchcertError(f"invalid-population: n must be >= 1, got {self.n}")
        if not self.lo <= self.hi:
            raise MatchcertError(
                f"invalid-population: range lo={self.lo} exceeds hi={self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class SampleSummary:
    """Observed values over a without-replacement sample."""

    values: tuple[float, ...]

    @classmethod
    def of(cls, values: Iterable[float]) -> "SampleSummary":
        return cls(tuple(float(v) for v in values))

    @property
    def s(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Confidence:
    """A bound failure probability in the open interval (0, 1)."""

    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise MatchcertError(
                f"invalid-confidence: delta must be in (0,1), got {self.delta}"
            )


class BoundMethod(Enum):
    HOEFFDING = "hoeffding"
    EBS = "empirical-bernstein-serfling"
    HYPERGEOMETRIC = "hypergeometric-exact"

    @classmethod
    def parse(cls, name: str) -> "BoundMethod":
        for m in cls:
            if m.value == name:
                return m
        raise MatchcertError(f"unknown-method: {name!r}")


@dataclass(frozen=True)
class BoundResult:
    """A one- or two-sided PAC bound on a population mean.

    ``lower`` and ``upper`` each hold individually with probability at
    least ``1 - delta_used.delta``; both are clamped to the population
    range. ``diagnostics`` carries named intermediate quantities
    (sigma_hat, rho_s, slack terms, ...).
    """

    estimate: float
    lower: float
    upper: float
    delta_used: Confidence
    method: BoundMethod
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DeltaBudget:
    """An ordered allocation of bound failure probabilities.

    The union bound gives joint confidence ``1 - sum(parts)``, so the
    parts must sum to less than 1.
    """

    parts: tuple[Confidence, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise MatchcertError("budget-exhausted: empty delta budget")
        if sum(p.delta for p in self.parts) >= 1.0:
            raise MatchcertError(
                "budget-exhausted: delta parts sum to "
                f"{sum(p.delta for p in self.parts)} >= 1"
            )

    @classmethod
    def of(cls, *deltas: float) -> "DeltaBudget":
        return cls(tuple(Confidence(d) for d in deltas))

    @classmethod
    def equal_split(cls, total: float, k: int) -> "DeltaBudget":
        if k < 1:
            raise MatchcertError(f"budget-exhausted: cannot split into {k} parts")
        return cls(tuple(Confidence(total / k) for _ in range(k)))

    @property
    def total(self) -> float:
        return sum(p.delta for p in self.parts)

    def parts_for(self, k: int) -> tuple[Confidence, ...]:
        """The parts of a budget spent on exactly ``k`` bound terms."""
        if len(self.parts) != k:
            raise MatchcertError(
                f"budget-arity: certificate needs {k} delta parts, "
                f"got {len(self.parts)}"
            )
        return self.parts

    def __len__(self) -> int:
        return len(self.parts)


def sample_mean(sample: SampleSummary) -> float:
    """Mean of the sample values; unbiased for the population mean."""
    if sample.s == 0:
        raise MatchcertError("empty-sample: cannot take the mean of no values")
    return math.fsum(sample.values) / sample.s


def sample_sigma_hat(sample: SampleSummary) -> float:
    """Sample standard deviation, pairwise form divided out.

    Algebraically equal to the all-pairs average sum_{i,j} (x_i - x_j)^2 /
    (2 s^2); computed as sqrt(mean of squares - squared mean).
    """
    mu = sample_mean(sample)
    mean_sq = math.fsum(v * v for v in sample.values) / sample.s
    return math.sqrt(max(0.0, mean_sq - mu * mu))


def rho_s(n: int, s: int) -> float:
    """Sampling-fraction factor of the empirical Bernstein-Serfling bound.

    Equals 1 - (s-1)/n while the sample covers at most half the
    population, and (1 - s/n)(1 + 1/n) beyond; 0 at a full census.
    """
    if s < 1 or s > n:
        raise MatchcertError(f"invalid-sample-size: s={s} not in [1, n={n}]")
    if 2 * s <= n:
        return 1.0 - (s - 1) / n
    return (1.0 - s / n) * (1.0 + 1.0 / n)


def _check_sample(pop: PopulationSpec, sample: SampleSummary) -> None:
    if sample.s == 0:
        raise MatchcertError("empty-sample: bound requires at least one value")
    if sample.s > pop.n:
        raise MatchcertError(
            f"invalid-sample-size: s={sample.s} exceeds population n={pop.n}"
        )
    for v in sample.values:
        if not pop.lo <= v <= pop.hi:
            raise MatchcertError(
                f"value-out-of-range: {v} outside [{pop.lo}, {pop.hi}]"
            )


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


def hoeffding_bounds(
    pop: PopulationSpec, sample: SampleSummary, delta: Confidence
) -> BoundResult:
    """Range-based bound: slack = (hi - lo) * sqrt(ln(1/delta) / (2 s)).

    Valid for sampling without replacement; the population size does not
    enter the slack.
    """
    _check_sample(pop, sample)
    mu = sample_mean(sample)
    slack = pop.width * math.sqrt(math.log(1.0 / delta.delta) / (2.0 * sample.s))
    return BoundResult(
        estimate=mu,
        lower=_clamp(mu - slack, pop.lo, pop.hi),
        upper=_clamp(mu + slack, pop.lo, pop.hi),
        delta_used=delta,
        method=BoundMethod.HOEFFDING,
        diagnostics={"slack": slack},
    )


def ebs_bounds(
    pop: PopulationSpec, sample: SampleSummary, delta: Confidence
) -> BoundResult:
    """Empirical Bernstein-Serfling bound for sampling without replacement.

    slack = sigma_hat * sqrt(2 rho_s log(5/delta) / s)
          + KAPPA * (hi - lo) * log(5/delta) / s

    The variance term vanishes for constant samples and at a full census
    (rho_s = 0), leaving only the O(1/s) range term.
    """
    _check_sample(pop, sample)
    mu = sample_mean(sample)
    sigma = sample_sigma_hat(sample)
    rho = rho_s(pop.n, sample.s)
    log_term = math.log(5.0 / delta.delta)
    variance_term = sigma * math.sqrt(2.0 * rho * log_term / sample.s)
    range_term = KAPPA * pop.width * log_term / sample.s
    slack = variance_term + range_term
    return BoundResult(
        estimate=mu,
        lower=_clamp(mu - slack, pop.lo, pop.hi),
        upper=_clamp(mu + slack, pop.lo, pop.hi),
        delta_used=delta,
        method=BoundMethod.EBS,
        diagnostics={
            "sigma_hat": sigma,
            "rho_s": rho,
            "variance_term": variance_term,
            "range_term": range_term,
            "slack": slack,
        },
    )


# Tie slop for the inversion searches: tail probabilities that equal delta
# as exact rationals can land a few ulps below it in floating point. The slop
# only ever widens the returned interval, so validity is preserved.
_TIE_EPS = 1e-11

# Log-factorial table, grown on demand. Entry i holds lgamma(i + 1); each
# entry is computed directly (no cumulative summation) so the error stays at
# lgamma's own accuracy.
_LOGFACT = np.zeros(1)


def _logfact(n: int) -> np.ndarray:
    global _LOGFACT
    if n >= len(_LOGFACT):
        size = max(n + 1, 2 * len(_LOGFACT))
        _LOGFACT = np.array([math.lgamma(i + 1.0) for i in range(size)])
    return _LOGFACT


def _check_hypergeom(m: int, n: int, s: int, k: int) -> None:
    if not (0 <= m <= n and 0 <= s <= n and 0 <= k <= s):
        raise MatchcertError(
            f"invalid-hypergeom-params: m={m}, n={n}, s={s}, k={k}"
        )


def hypergeom_pmf(m: int, n: int, s: int, k: int) -> float:
    """P{sample success count = k} for s draws without replacement from a
    population of n items of which m are successes.

    Computed in log-gamma space: C(m,k) C(n-m,s-k) / C(n,s). Returns 0 for
    combinatorially impossible k.
    """
    _check_hypergeom(m, n, s, k)
    if k > m or s - k > n - m:
        return 0.0
    lf = _logfact(n)
    log_p = (
        (lf[m] - lf[k] - lf[m - k])
        + (lf[n - m] - lf[s - k] - lf[n - m - s + k])
        - (lf[n] - lf[s] - lf[n - s])
    )
    return float(min(1.0, math.exp(log_p)))


def _tail(m: int, n: int, s: int, j_lo: int, j_hi: int) -> float:
    # Sum of pmf over the feasible j in [j_lo, j_hi], via log-sum-exp.
    j_lo = max(j_lo, 0, s - (n - m))
    j_hi = min(j_hi, s, m)
    if j_lo > j_hi:
        return 0.0
    lf = _logfact(n)
    j = np.arange(j_lo, j_hi + 1)
    logs = (
        (lf[m] - lf[j] - lf[m - j])
        + (lf[n - m] - lf[s - j] - lf[n - m - s + j])
        - (lf[n] - lf[s] - lf[n - s])
    )
    peak = float(logs.max())
    return min(1.0, math.exp(peak) * float(np.exp(logs - peak).sum()))


def hypergeom_tail_upper(m: int, n: int, s: int, k: int) -> float:
    """P{sample success count >= k}."""
    _check_hypergeom(m, n, s, k)
    return _tail(m, n, s, k, s)


def hypergeom_tail_lower(m: int, n: int, s: int, k: int) -> float:
    """P{sample success count <= k}."""
    _check_hypergeom(m, n, s, k)
    return _tail(m, n, s, 0, k)


def hypergeom_invert_lower(n: int, s: int, k: int, delta: Confidence) -> float:
    """Exact lower confidence bound on the population success fraction.

    Returns (min{m : P{count >= k | m} >= delta}) / n: the smallest
    population success count under which observing k or more successes is
    still plausible at level delta. The upper tail is nondecreasing in m,
    so binary search applies.
    """
    if not 0 <= k <= s <= n:
        raise MatchcertError(f"invalid-hypergeom-params: n={n}, s={s}, k={k}")
    if k == 0:
        return 0.0
    lo, hi = k, n  # tail is 0 below m = k and 1 at m = n
    while lo < hi:
        mid = (lo + hi) // 2
        if hypergeom_tail_upper(mid, n, s, k) >= delta.delta - _TIE_EPS:
            hi = mid
        else:
            lo = mid + 1
    return lo / n


def hypergeom_invert_upper(n: int, s: int, k: int, delta: Confidence) -> float:
    """Exact upper confidence bound on the population success fraction.

    Returns (max{m : P{count <= k | m} >= delta}) / n. The lower tail is
    nonincreasing in m.
    """
    if not 0 <= k <= s <= n:
        raise MatchcertError(f"invalid-hypergeom-params: n={n}, s={s}, k={k}")
    if k == s:
        return 1.0
    lo, hi = 0, n  # tail is 1 at m = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if hypergeom_tail_lower(mid, n, s, k) >= delta.delta - _TIE_EPS:
            lo = mid
        else:
            hi = mid - 1
    return lo / n


def is_binary_sample(sample: SampleSummary) -> bool:
    return all(v == 0.0 or v == 1.0 for v in sample.values)


def bound_mean(
    pop: PopulationSpec,
    sample: SampleSummary,
    method: BoundMethod,
    delta: Confidence,
    side: str = "both",
) -> BoundResult:
    """Dispatch to the requested bound family.

    ``side`` is one of ``lower``, ``upper``, ``both``; a one-sided request
    fills the unrequested side with the trivial range endpoint. The
    hypergeometric method requires binary {0,1} values and range (0, 1).
    """
    if side not in ("lower", "upper", "both"):
        raise MatchcertError(f"invalid-side: {side!r}")
    if method is BoundMethod.HOEFFDING:
        res = hoeffding_bounds(pop, sample, delta)
    elif method is BoundMethod.EBS:
        res = ebs_bounds(pop, sample, delta)
    elif method is BoundMethod.HYPERGEOMETRIC:
        if (pop.lo, pop.hi) != (0.0, 1.0) or not is_binary_sample(sample):
            raise MatchcertError(
                "method-requires-binary: hypergeometric-exact needs 0/1 "
                "values with range (0, 1)"
            )
        _check_sample(pop, sample)
        k = int(round(math.fsum(sample.values)))
        lower = (
            hypergeom_invert_lower(pop.n, sample.s, k, delta)
            if side in ("lower", "both")
            else pop.lo
        )
        upper = (
            hypergeom_invert_upper(pop.n, sample.s, k, delta)
            if side in ("upper", "both")
            else pop.hi
        )
        res = BoundResult(
            estimate=k / sample.s,
            lower=lower,
            upper=upper,
            delta_used=delta,
            method=method,
            diagnostics={"k": float(k)},
        )
    else:  # pragma: no cover - enum is closed
        raise MatchcertError(f"unknown-method: {method}")
    if side == "lower":
        return BoundResult(
            res.estimate, res.lower, pop.hi, delta, method, dict(res.diagnostics)
        )
    if side == "upper":
        return BoundResult(
            res.estimate, pop.lo, res.upper, delta, method, dict(res.diagnostics)
        )
    return res


def bound_term(
    n: int,
    values: Iterable[float],
    method: BoundMethod,
    delta: Confidence,
    side: str,
    lo: float = 0.0,
    hi: float = 1.0,
    exact: bool = True,
) -> tuple[float, str]:
    """One side of one certificate term: (bound, name of the method used).

    This is where a certificate's requested method is downgraded. The
    exact method needs 0/1 values and the true population size; a term
    that cannot promise both passes ``exact=False`` and gets Hoeffding,
    whose slack ignores ``n``. EBS is kept: its rho factor only grows when
    ``n`` overstates the population. ``tests/test_bounds.py`` checks both
    families exhaustively under such stand-in sizes on small populations.
    """
    if method is BoundMethod.HYPERGEOMETRIC and not exact:
        method = BoundMethod.HOEFFDING
    res = bound_mean(
        PopulationSpec(n, lo, hi), SampleSummary.of(values), method, delta, side
    )
    return (res.lower if side == "lower" else res.upper), method.value


def union_confidence(budget: DeltaBudget) -> float:
    """Joint confidence for all bounds in the budget, by the union bound."""
    total = budget.total
    if total >= 1.0:
        raise MatchcertError(f"budget-exhausted: delta sum {total} >= 1")
    return 1.0 - total
