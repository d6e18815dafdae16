"""PAC bounds on the mean of a bounded function over a finite population.

All estimates are built from a sample drawn uniformly at random WITHOUT
replacement. Three bound families are provided:

* Hoeffding: range-based, needs only the sample size.
* Empirical Bernstein-Serfling: variance-adaptive, needs the population
  size for its sampling-fraction factor; tighter than Hoeffding when the
  sample standard deviation is small relative to the range.
* Exact hypergeometric tail inversion: binary {0, 1} values only; the
  tightest of the three (up to floating-point error in the tails). One
  search gives both sides: the upper bound on the success count is n less
  the lower bound on the failure count.

Every bound is one-sided: the lower bound and the upper bound each fail
with probability at most ``delta``. By the union bound, several bounds
hold jointly with probability at least 1 minus the sum of their deltas.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import MatchcertError, is_count

__all__ = [
    "KAPPA",
    "PopulationSpec",
    "SampleSummary",
    "Confidence",
    "BoundMethod",
    "BoundResult",
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
    "Term",
    "bound_term",
]

_NUMBERS = (int, float, np.integer, np.floating)  # a delta or a range end

# Constant in the empirical Bernstein-Serfling range term: 7/3 + 3/sqrt(2).
KAPPA = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class PopulationSpec:
    """A finite population of ``n`` items carrying values in a finite ``[lo, hi]``."""

    n: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if not is_count(self.n):
            raise MatchcertError(f"invalid-population: n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise MatchcertError(f"invalid-population: n must be >= 1, got {self.n}")
        ends = isinstance(self.lo, _NUMBERS) and isinstance(self.hi, _NUMBERS)
        if not (ends and 0.0 <= self.width < math.inf):  # NaN fails too
            raise MatchcertError(
                f"invalid-population: want finite lo <= hi, got [{self.lo!r}, {self.hi!r}]"
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
        try:
            return cls(tuple(map(float, values)))
        except (TypeError, ValueError, OverflowError):
            raise MatchcertError(f"invalid-value: {values!r} holds a non-number") from None

    @property
    def s(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Confidence:
    """A bound failure probability in the open interval (0, 1)."""

    delta: float

    def __post_init__(self) -> None:
        if not (isinstance(self.delta, _NUMBERS) and 0.0 < self.delta < 1.0):
            raise MatchcertError(
                f"invalid-confidence: delta must be in (0,1), got {self.delta!r}"
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


def _fsum(values) -> float:
    """The exactly rounded sum of ``values``: the same float in any order."""
    try:
        return math.fsum(values)
    except (TypeError, ValueError, OverflowError):
        raise MatchcertError(
            "invalid-value: the sample holds a non-number, or its sum overflows a float"
        ) from None


def sample_mean(sample: SampleSummary) -> float:
    """Mean of the sample values; unbiased for the population mean."""
    if sample.s == 0:
        raise MatchcertError("empty-sample: cannot take the mean of no values")
    return _fsum(sample.values) / sample.s


def _sigma_hat(values, mu: float) -> float:
    mean_sq = _fsum(map(operator.mul, values, values)) / len(values)
    if max(mean_sq, mu * mu) == math.inf and math.isfinite(mu):
        # squares past the float range: the same formula on the values
        # scaled down by 2**600, which is exact, then scaled back up
        small = [math.ldexp(v, -600) for v in values]
        return math.ldexp(_sigma_hat(small, math.ldexp(mu, -600)), 600)
    return math.sqrt(max(0.0, mean_sq - mu * mu))


def sample_sigma_hat(sample: SampleSummary) -> float:
    """Sample standard deviation, pairwise form divided out.

    Algebraically equal to the all-pairs average sum_{i,j} (x_i - x_j)^2 /
    (2 s^2); computed as sqrt(mean of squares - squared mean).
    """
    return _sigma_hat(sample.values, sample_mean(sample))


def rho_s(n: int, s: int) -> float:
    """Sampling-fraction factor of the empirical Bernstein-Serfling bound.

    Equals 1 - (s-1)/n while the sample covers at most half the
    population, and (1 - s/n)(1 + 1/n) beyond; 0 at a full census.
    """
    if not (is_count(n) and is_count(s) and 1 <= s <= n):
        raise MatchcertError(f"invalid-sample-size: s={s!r} not in [1, n={n!r}]")
    if 2 * s <= n:
        return 1.0 - (s - 1) / n
    return (1.0 - s / n) * (1.0 + 1.0 / n)


def _read_sample(pop: PopulationSpec, sample: SampleSummary) -> tuple[list, float]:
    """The sample's values sorted, and their exactly rounded sum, once the
    sample is checked against the population: the one pass a bound makes
    over its sample."""
    values = sample.values
    if not values:
        raise MatchcertError("empty-sample: bound requires at least one value")
    if len(values) > pop.n:
        raise MatchcertError(
            f"invalid-sample-size: s={len(values)} exceeds population n={pop.n}"
        )
    # Accept on the ends of one C-level sort and on the sum. A NaN can land
    # anywhere in a sort, but it turns the sum to NaN, so such a sample (and
    # any other the ends or the sum cannot clear) takes the walk, which
    # names the first bad value.
    try:
        ordered = sorted(values)
        if pop.lo <= ordered[0] and ordered[-1] <= pop.hi:
            total = math.fsum(ordered)
            if total == total:
                return ordered, total
    except (TypeError, ValueError, OverflowError):
        pass
    for v in values:
        try:
            inside = pop.lo <= v <= pop.hi
        except TypeError:
            raise MatchcertError(f"invalid-value: {v!r} is not a number") from None
        if not inside:
            raise MatchcertError(
                f"value-out-of-range: {v} outside [{pop.lo}, {pop.hi}]"
            )
    # every value is in range: the sort or the sum failed
    raise MatchcertError(
        "invalid-value: the sample holds a non-number, or its sum overflows a float"
    )


def _around_mean(
    pop: PopulationSpec,
    mu: float,
    delta: Confidence,
    method: BoundMethod,
    diagnostics: dict,
) -> BoundResult:
    """The sample mean ``mu`` ± ``diagnostics["slack"]``, clamped to the range."""
    slack = diagnostics["slack"]
    lower, upper = (min(pop.hi, max(pop.lo, b)) for b in (mu - slack, mu + slack))
    return BoundResult(mu, lower, upper, delta, method, diagnostics)


def hoeffding_bounds(
    pop: PopulationSpec, sample: SampleSummary, delta: Confidence
) -> BoundResult:
    """Range-based bound: slack = (hi - lo) * sqrt(ln(1/delta) / (2 s)).

    Valid for sampling without replacement; the population size does not
    enter the slack.
    """
    ordered, total = _read_sample(pop, sample)
    s = len(ordered)
    slack = pop.width * math.sqrt(math.log(1.0 / delta.delta) / (2.0 * s))
    return _around_mean(pop, total / s, delta, BoundMethod.HOEFFDING, {"slack": slack})


def ebs_bounds(
    pop: PopulationSpec, sample: SampleSummary, delta: Confidence
) -> BoundResult:
    """Empirical Bernstein-Serfling bound for sampling without replacement.

    slack = sigma_hat * sqrt(2 rho_s log(5/delta) / s)
          + KAPPA * (hi - lo) * log(5/delta) / s

    The variance term vanishes for constant samples and at a full census
    (rho_s = 0), leaving only the O(1/s) range term.
    """
    ordered, total = _read_sample(pop, sample)
    s = len(ordered)
    mu = total / s
    sigma = _sigma_hat(ordered, mu)
    rho = rho_s(pop.n, s)
    log_term = math.log(5.0 / delta.delta)
    variance_term = sigma * math.sqrt(2.0 * rho * log_term / s)
    range_term = KAPPA * pop.width * log_term / s
    return _around_mean(
        pop,
        mu,
        delta,
        BoundMethod.EBS,
        {
            "sigma_hat": sigma,
            "rho_s": rho,
            "variance_term": variance_term,
            "range_term": range_term,
            "slack": variance_term + range_term,
        },
    )


# Tie slop for the inversion search: tail probabilities that equal delta
# as exact rationals can land a few ulps below it in floating point. The slop
# only ever widens the returned interval, so validity is preserved.
_TIE_EPS = 1e-11

# Log-factorial table, grown on demand. Entry i holds lgamma(i + 1); each
# entry is computed directly (no cumulative summation) so the error stays at
# lgamma's own accuracy. The exact method tabulates up to its population
# size, so that size is capped: 10**7 entries take 80 MB.
_LOGFACT = np.zeros(1)
_MAX_EXACT_N = 10**7


def _logfact(n: int) -> np.ndarray:
    global _LOGFACT
    have = len(_LOGFACT)
    if n >= have:
        if n > _MAX_EXACT_N:
            raise MatchcertError(
                f"population-too-large: the exact method takes n <= {_MAX_EXACT_N}, got n={n}"
            )
        size = min(max(n + 1, 2 * have), _MAX_EXACT_N + 1)
        # lgamma of an int equals lgamma of the float: ints below 2**53
        # convert exactly
        grown = np.fromiter(
            map(math.lgamma, range(have + 1, size + 1)), float, size - have
        )
        _LOGFACT = np.concatenate((_LOGFACT, grown))
    return _LOGFACT


def _check_hypergeom(m: int, n: int, s: int, k: int) -> None:
    if not (all(map(is_count, (m, n, s, k))) and 0 <= m <= n and 0 <= s <= n and 0 <= k <= s):
        raise MatchcertError(
            f"invalid-hypergeom-params: m={m!r}, n={n!r}, s={s!r}, k={k!r}"
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


def _tail(m: int, n: int, s: int, k: int) -> float:
    # P{count >= k}: the pmf summed over the feasible j >= k, via log-sum-exp
    j_lo, j_hi = max(k, s - (n - m)), min(s, m)
    if j_lo > j_hi:
        return 0.0
    lf = _logfact(n)
    # lf at j, m - j, s - j and n - m - s + j for j = j_lo..j_hi, as slices
    d = n - m - s
    logs = (
        (lf[m] - lf[j_lo : j_hi + 1] - lf[m - j_hi : m - j_lo + 1][::-1])
        + (
            lf[n - m]
            - lf[s - j_hi : s - j_lo + 1][::-1]
            - lf[d + j_lo : d + j_hi + 1]
        )
        - (lf[n] - lf[s] - lf[n - s])
    )
    peak = float(logs.max())
    return min(1.0, math.exp(peak) * float(np.exp(logs - peak).sum()))


def hypergeom_tail_upper(m: int, n: int, s: int, k: int) -> float:
    """P{sample success count >= k}."""
    _check_hypergeom(m, n, s, k)
    return _tail(m, n, s, k)


def hypergeom_tail_lower(m: int, n: int, s: int, k: int) -> float:
    """P{sample success count <= k}: the chance of s - k or more failures
    among the n - m failures of the population."""
    _check_hypergeom(m, n, s, k)
    return _tail(n - m, n, s, s - k)


def _normal_quantile(delta: float) -> float:
    """z with P{Z > z} = delta for a standard normal Z, to within 4.5e-4.

    Abramowitz & Stegun 26.2.23; only steers the inversion search, whose
    answer does not depend on it.
    """
    p = min(delta, 1.0 - delta)
    t = math.sqrt(-2.0 * math.log(p))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return z if delta <= 0.5 else -z


def _tail_step(m: int, n: int, s: int, k: int) -> float:
    """P{count >= k | m + 1} - P{count >= k | m}, for 1 <= k <= s and m < n.

    One more success in the population lifts the count to k exactly when
    it is drawn along with k - 1 others: (s/n) P{Y = k - 1}, Y the count
    of s - 1 draws from the n - 1 other items, m of them successes. That
    is C(m, k - 1) C(n - 1 - m, s - k) / C(n, s), nine reads of the table.
    """
    if k - 1 > m or s - k > n - 1 - m:
        return 0.0
    lf = _logfact(n)
    log_p = (
        (lf[m] - lf[k - 1] - lf[m - k + 1])
        + (lf[n - 1 - m] - lf[s - k] - lf[n - 1 - m - s + k])
        - (lf[n] - lf[s] - lf[n - s])
    )
    return math.exp(log_p)


def _wilson_guess(n: int, s: int, k: int, delta: float) -> int:
    """First guess at m for the exact inversion: the one-sided lower
    Wilson score bound with continuity correction, its variance scaled by
    the finite-population factor (n - s)/(n - 1), times n."""
    fpc = (n - s) / (n - 1) if n > 1 else 0.0
    z = _normal_quantile(delta) * math.sqrt(fpc)
    p = min(max(k - 0.5, 0.0), s) / s
    spread = math.sqrt(p * (1.0 - p) / s + z * z / (4.0 * s * s))
    bound = (p + z * z / (2.0 * s) - z * spread) / (1.0 + z * z / s)
    return round(bound * n)


def _least_passing(tail_at, step_at, a: int, b: int, guess: int, level: float) -> int:
    """The least x in (a, b] with ``tail_at(x) >= level``.

    ``tail_at`` must be nondecreasing in x, and ``step_at(x)`` must give
    ``tail_at(x + 1) - tail_at(x)``. The predicate is taken as false at
    ``a`` and true at ``b`` without evaluating either; ``a`` must be at
    least 0. From the guess, the search takes Newton steps on log(tail)
    as a function of log(x), the slope at x being x times the forward
    difference log(tail(x + 1)) - log(tail(x)), which the step gives
    without a second tail. On a log-log scale the exact method's tails are
    close to straight (a tail near c·x, as at k = 1, is straight), so a
    step from a far guess lands near the answer. Each evaluation moves
    one end of a bracket; a zero tail or step, or a step longer than half
    the step two before once both ends are evaluated, is replaced by a
    bisection step. It returns only when b = a + 1, each end either
    evaluated or an end of the range: exactly how bisection's answer is
    defined, so the two agree whenever the floating-point tail is
    monotone.
    """
    target = math.log(level)
    x = min(max(guess, a + 1), b - 1)
    passed = failed = False
    moves = [b - a, b - a]
    while b - a > 1:
        tail = tail_at(x)
        if tail >= level:
            b, passed = x, True
        else:
            a, failed = x, True
        if b - a == 1:
            break
        step = step_at(x) if tail > 0.0 else 0.0
        if step == 0.0:
            nxt = (a + b) // 2
        else:
            # the log-x distance to the target over the slope in log x; its
            # cap keeps exp finite, and any x past b is clamped below
            log_move = (target - math.log(tail)) / (x * math.log1p(step / tail))
            nxt = math.ceil(x * math.exp(min(log_move, 50.0)))
        nxt = min(max(nxt, a + 1), b - 1)
        if passed and failed and 2 * abs(nxt - x) > moves[-2]:
            nxt = (a + b) // 2
        moves.append(abs(nxt - x))
        x = nxt
    return b


def _check_counts(n: int, s: int, k: int) -> None:
    if not (all(map(is_count, (n, s, k))) and 0 <= k <= s <= n and n >= 1):
        raise MatchcertError(f"invalid-hypergeom-params: n={n!r}, s={s!r}, k={k!r}")


def _least_m(n: int, s: int, k: int, delta: Confidence) -> int:
    """min{m : P{count >= k | m} >= delta}: the one exact inversion.

    The upper tail is nondecreasing in m, 0 at m = k - 1 and 1 at m = n, so
    :func:`_least_passing` finds the boundary from a Wilson-score guess by
    Newton steps whose slope :func:`_tail_step` gives in closed form: in
    about 3 tail evaluations on average over the bounds-sweep grid, and 4
    at most, where bisection over [k, n] takes log2(n). A level at or
    below 0 passes every m, and the answer is k.
    ``tests/test_bounds.py::TestInversionSearch`` checks that both
    inversions return exactly what bisection (``tests/oracles.py``)
    returns, in at most 3.5 evaluations on average.
    """
    level = delta.delta - _TIE_EPS
    if k == 0 or level <= 0.0:
        return k
    return _least_passing(
        lambda m: _tail(m, n, s, k),
        lambda m: _tail_step(m, n, s, k),
        k - 1,
        n,
        _wilson_guess(n, s, k, delta.delta),
        level,
    )


def hypergeom_invert_lower(n: int, s: int, k: int, delta: Confidence) -> float:
    """Exact lower confidence bound on the population success fraction:
    the least success count m under which k or more successes in the
    sample are still plausible at level delta, over n."""
    _check_counts(n, s, k)
    return _least_m(n, s, k, delta) / n


def hypergeom_invert_upper(n: int, s: int, k: int, delta: Confidence) -> float:
    """Exact upper confidence bound on the population success fraction:
    (max{m : P{count <= k | m} >= delta}) / n, or 1 when k = s or the level
    is at or below 0. P{count <= k | m} is the chance of s - k or more
    failures among the n - m failures, so that m is n less the least
    failure count for s - k."""
    _check_counts(n, s, k)
    if k == s or delta.delta - _TIE_EPS <= 0.0:
        return 1.0
    return (n - _least_m(n, s, s - k, delta)) / n


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
    A ``method`` that is no BoundMethod fails with ``unknown-method``.
    """
    if side not in ("lower", "upper", "both"):
        raise MatchcertError(f"invalid-side: {side!r}")
    if not isinstance(method, BoundMethod):
        raise MatchcertError(f"unknown-method: {method!r}")
    if method is not BoundMethod.HYPERGEOMETRIC:
        res = (hoeffding_bounds if method is BoundMethod.HOEFFDING else ebs_bounds)(
            pop, sample, delta
        )
        if side == "both":
            return res
        lower = res.lower if side == "lower" else pop.lo
        upper = res.upper if side == "upper" else pop.hi
        return BoundResult(res.estimate, lower, upper, delta, method, res.diagnostics)
    binary = (pop.lo, pop.hi) == (0.0, 1.0)
    if binary:
        ordered, total = _read_sample(pop, sample)
        # all values lie in [0, 1]: they are 0/1 when those below 1 are 0
        binary = bisect.bisect_right(ordered, 0.0) == bisect.bisect_left(ordered, 1.0)
    if not binary:
        raise MatchcertError(
            "method-requires-binary: hypergeometric-exact needs 0/1 "
            "values with range (0, 1)"
        )
    k = int(round(total))
    n, s = pop.n, len(ordered)
    lower = pop.lo if side == "upper" else hypergeom_invert_lower(n, s, k, delta)
    upper = pop.hi if side == "lower" else hypergeom_invert_upper(n, s, k, delta)
    return BoundResult(k / s, lower, upper, delta, method, {"k": float(k)})


class Term(NamedTuple):
    """One side of one certificate term: its bound and the name of the
    method that bound really used. A report lists both per term."""

    value: float
    method: str


def bound_term(
    n: int,
    values: Iterable[float],
    method: BoundMethod,
    delta: Confidence,
    side: str,
    hi: float = 1.0,
    exact: bool = True,
) -> Term:
    """One side of one certificate term over [0, ``hi``], with its method.

    This is where a certificate's requested method is downgraded. The
    exact method needs 0/1 values and the true population size. A term
    whose range is not [0, 1], or that passes ``exact=False`` because it
    only has a stand-in size or its population's values need not be 0/1,
    gets Hoeffding, whose slack ignores ``n``. Every stand-in size is
    derived from the input and is at least the true one: the query recall
    terms use |X|, and batch recall without ``m_size`` uses k_y·|X|.
    EBS is kept: its rho factor only grows when ``n`` overstates the
    population. ``tests/test_bounds.py`` checks both families exhaustively
    under such stand-in sizes on small populations.
    """
    if method is BoundMethod.HYPERGEOMETRIC and (not exact or hi != 1.0):
        method = BoundMethod.HOEFFDING
    res = bound_mean(
        PopulationSpec(n, 0.0, hi), SampleSummary.of(values), method, delta, side
    )
    return Term(res.lower if side == "lower" else res.upper, method.value)

