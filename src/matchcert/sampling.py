"""Seeded without-replacement samplers and train/validation subsampling.

All randomness flows through numpy's PCG64 streams derived from explicit
integer seeds, so every draw is reproducible and independent streams can
be spawned per (seed, purpose, trial) without coordination.

``split_train_validation`` carves a labeled sample into a training part
and a validation part whose joint law equals two INDEPENDENT uniform
without-replacement draws from the full population. The two parts may
overlap; that possibility is what makes the distributional claim true. A
plain disjoint partition lacks this independent-draws law, so it must not
feed validation bounds that assume independent draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

import numpy as np

from .bounds import hypergeom_pmf
from .errors import MatchcertError, is_count

__all__ = [
    "spawn_rng",
    "sample_indices",
    "sample_without_replacement",
    "stream_without_replacement",
    "hypergeometric_draw",
    "SplitSpec",
    "split_train_validation",
]

T = TypeVar("T")


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """A PCG64 generator on an independent stream for non-negative integer
    (seed, *key); Python and numpy integers give the same stream."""
    if not all(map(is_count, (seed, *key))):
        raise MatchcertError(f"invalid-seed: seed {seed!r} and key {key!r} must be integers")
    if min((seed, *key)) < 0:
        raise MatchcertError(f"invalid-seed: seed {seed} and key {key} must be >= 0")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return spawn_rng(seed_or_rng)


def sample_indices(n: int, s: int, seed_or_rng) -> np.ndarray:
    """A uniformly random size-s subset of ``range(n)``, in draw order, as
    an int array. Size 0 draws nothing from the generator."""
    if not (is_count(n) and is_count(s) and 0 <= s <= n):
        raise MatchcertError(f"invalid-sample-size: s={s!r} not in [0, {n!r}]")
    if s == 0:
        return np.empty(0, dtype=np.int64)
    return _as_rng(seed_or_rng).choice(n, size=s, replace=False, shuffle=False)


def sample_without_replacement(universe: Sequence[T], s: int, seed_or_rng) -> list[T]:
    """A uniformly random size-s subset of ``universe``, in draw order."""
    return [universe[i] for i in sample_indices(len(universe), s, seed_or_rng).tolist()]


def stream_without_replacement(universe: Sequence[T], seed_or_rng) -> Iterator[T]:
    """Yield the universe one item at a time in without-replacement order.

    Consuming the first s items gives the same law as
    :func:`sample_without_replacement` with size s; useful for extending a
    sample until enough usable items have appeared.
    """
    rng = _as_rng(seed_or_rng)
    for i in rng.permutation(len(universe)):
        yield universe[i]


def hypergeometric_draw(n: int, t: int, s: int, seed_or_rng) -> int:
    """Draw the overlap count of a size-s draw with t marked items among n.

    Inverse-CDF over the exact pmf, so the sampler shares its distribution
    with the tested tail computations.
    """
    if not (all(map(is_count, (n, t, s))) and 0 <= t <= n and 0 <= s <= n):
        raise MatchcertError(f"invalid-hypergeom-params: n={n!r}, t={t!r}, s={s!r}")
    rng = _as_rng(seed_or_rng)
    u = rng.random()
    lo = max(0, s - (n - t))
    hi = min(s, t)
    acc = 0.0
    for i in range(lo, hi + 1):
        acc += hypergeom_pmf(t, n, s, i)
        if u <= acc:
            return i
    return hi  # float undershoot on the final cumulative step


@dataclass(frozen=True)
class SplitSpec:
    """Inputs for the train/validation subsampling procedure.

    ``labeled`` is a sample already drawn uniformly without replacement
    from a population of ``population_n`` items; ``t`` and ``s`` are the
    training and validation sizes and must satisfy t + s = len(labeled).
    """

    population_n: int
    labeled: tuple
    t: int
    s: int
    rng_seed: int

    def __post_init__(self) -> None:
        counts = all(map(is_count, (self.population_n, self.t, self.s)))
        if not counts or self.t < 0 or self.s < 0:
            raise MatchcertError(
                f"invalid-split: t={self.t!r} and s={self.s!r} and population_n must be counts"
            )
        if self.t + self.s != len(self.labeled):
            raise MatchcertError(
                f"invalid-split: t + s = {self.t + self.s} != "
                f"len(labeled) = {len(self.labeled)}"
            )
        if len(self.labeled) > self.population_n:
            raise MatchcertError(
                f"invalid-split: labeled sample larger than population "
                f"{self.population_n}"
            )
        try:
            repeats = len(set(self.labeled)) != len(self.labeled)
        except TypeError:  # an unhashable item
            repeats = True
        if repeats:
            raise MatchcertError("invalid-split: labeled items must be distinct and hashable")
        if not (is_count(self.rng_seed) and self.rng_seed >= 0):
            raise MatchcertError(f"invalid-seed: rng_seed {self.rng_seed!r}")


def split_train_validation(spec: SplitSpec) -> tuple[list, list]:
    """Split a labeled sample so the parts look independently drawn.

    Procedure: (1) draw the training part T of size t from the labeled
    pool; (2) draw an overlap count i hypergeometrically with population
    ``population_n``, marked count t, and s draws; (3) draw i items from
    T; (4) draw s - i items from the rest of the pool; (5) the validation
    part is the union of steps 3 and 4. T and the validation part may
    intersect by design.
    """
    rng = spawn_rng(spec.rng_seed)
    pool = list(spec.labeled)
    train = sample_without_replacement(pool, spec.t, rng)
    train_set = set(train)
    rest = [item for item in pool if item not in train_set]
    i = hypergeometric_draw(spec.population_n, spec.t, spec.s, rng)
    from_train = sample_without_replacement(train, i, rng)
    from_rest = sample_without_replacement(rest, spec.s - i, rng)
    return train, from_train + from_rest

