"""Baseline reconciliation algorithms: attribute-exact and percolation.

Both run in batch mode (the full identified-match set is materialized) or
query mode (per-node matches on demand, with a query counter for cost
reporting). The validation machinery never looks inside a matcher, so
these exist to exercise it; the bounds hold for any matcher.

Determinism contract: given the same config, seeds, and networks, a
matcher produces byte-identical output. Percolation resolves conflicting
candidate pairs by highest matched-neighbor count, then lexicographic
(x, y) node id order.

Percolation runs on each network's int index (``Network.index``: ids in
sorted order plus CSR adjacency) and keeps a mark table across rounds:
the live candidate pairs, as sorted int64 keys ``x * n_y + y``, with the
number of marks each has received. As in Yartseva & Grossglauser's
percolation graph matching, each matched pair spreads its marks once, in
the round after it is matched (the seeds in round one): its x's unmatched
neighbours times its y's, gathered from the CSR and merged into the table
by one sort. The candidates with at least ``threshold`` marks are ranked
with ``np.lexsort`` on (-count, key); because index order is id order,
the key sorts as (x, y) by id, so the tie-break is the one above. Pairs
are then accepted greedily in that order, skipping any whose x or y was
taken earlier in the round, and the table drops every candidate with a
matched end. Each eligible candidate is accepted or loses an end in its
round, so the table carries only counts below the threshold, and a
candidate's count is the number of matched pairs that support it, as if
all were gathered anew each round. Matches leave the function as the
sorted keys of a MatchSet, the same ``x * n_y + y``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import MatchcertError
from .graphs import (
    MatchRole,
    MatchSet,
    NetworkPair,
    NodeIndex,
    distinct_sorted,
    matches_of,
    pair_positions,
)

__all__ = [
    "TopDegree",
    "VERIFIED_SAMPLE",
    "MatcherConfig",
    "MatcherHandle",
    "build_matcher",
    "with_extra_seeds",
    "run_batch",
    "run_query",
]

VERIFIED_SAMPLE = "verified-sample"


@dataclass(frozen=True)
class TopDegree:
    """Seed rule: pair the k highest-degree nodes of each side by rank."""

    k: int


@dataclass(frozen=True)
class MatcherConfig:
    kind: str  # "attribute-exact" | "percolation"
    attr_key: str | None = None
    seeds: tuple[tuple[str, str], ...] | TopDegree | str | None = None
    threshold: int = 1
    max_iters: int = 25

    def __post_init__(self) -> None:
        if self.kind not in ("attribute-exact", "percolation"):
            raise MatchcertError(f"unknown-matcher-kind: {self.kind!r}")
        if self.threshold < 1:
            raise MatchcertError(f"invalid-threshold: {self.threshold}")
        if self.max_iters < 1:
            raise MatchcertError(f"invalid-max-iters: {self.max_iters}")
        if isinstance(self.seeds, str) and self.seeds != VERIFIED_SAMPLE:
            raise MatchcertError(f"unknown-seed-rule: {self.seeds!r}")

    def to_json_dict(self) -> dict:
        if isinstance(self.seeds, TopDegree):
            seeds = {"top-degree-k": self.seeds.k}
        elif isinstance(self.seeds, tuple):
            seeds = [list(p) for p in self.seeds]
        else:
            seeds = self.seeds
        return {
            "kind": self.kind,
            "attr_key": self.attr_key,
            "seeds": seeds,
            "threshold": self.threshold,
            "max_iters": self.max_iters,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MatcherConfig":
        seeds = doc.get("seeds")
        if isinstance(seeds, Mapping):
            if set(seeds) != {"top-degree-k"}:
                raise MatchcertError(f"unknown-seed-rule: {dict(seeds)!r}")
            seeds = TopDegree(int(seeds["top-degree-k"]))
        elif isinstance(seeds, list):
            seeds = tuple((str(x), str(y)) for x, y in seeds)
        return cls(
            kind=doc["kind"],
            attr_key=doc.get("attr_key"),
            seeds=seeds,
            threshold=int(doc.get("threshold", 1)),
            max_iters=int(doc.get("max_iters", 25)),
        )


@dataclass
class MatcherHandle:
    """A matcher config plus the training pairs it is seeded with.

    A complete handle is a holdout handle whose seeds were augmented with
    validation data (see :func:`with_extra_seeds`).
    """

    config: MatcherConfig
    training_matches: tuple[tuple[str, str], ...] = ()
    _queries: int = field(default=0, repr=False)
    _cache_pair: NetworkPair | None = field(default=None, repr=False)
    _cache_result: MatchSet | None = field(default=None, repr=False)

    @property
    def queries(self) -> int:
        return self._queries

    def same_function(self, other: "MatcherHandle") -> bool:
        """True when both handles compute the same matching function: the
        same config, and the same training pairs counted with repeats."""
        mine, theirs = self.training_matches, other.training_matches
        return (
            self.config == other.config
            and len(mine) == len(theirs)
            and (mine == theirs or Counter(mine) == Counter(theirs))
        )


def build_matcher(
    config: MatcherConfig, training_matches: Iterable[tuple[str, str]] = ()
) -> MatcherHandle:
    return MatcherHandle(config=config, training_matches=tuple(training_matches))


def with_extra_seeds(
    handle: MatcherHandle, extra_pairs: Iterable[tuple[str, str]]
) -> MatcherHandle:
    """Derive a complete matcher by feeding validation data in as seeds.

    The result is no longer a holdout matcher: its output depends on the
    validation samples in ``extra_pairs``.
    """
    return MatcherHandle(
        config=handle.config,
        training_matches=tuple(handle.training_matches) + tuple(extra_pairs),
    )


def _resolve_seeds(handle: MatcherHandle, pair: NetworkPair) -> list[tuple[str, str]]:
    seeds = handle.config.seeds
    if seeds is None:
        return list(handle.training_matches)
    if seeds == VERIFIED_SAMPLE:
        return list(handle.training_matches)
    if isinstance(seeds, TopDegree):
        top_x, top_y = (_by_degree(net.index) for net in (pair.x_net, pair.y_net))
        k = min(seeds.k, len(top_x), len(top_y))
        ranked = list(zip(top_x[:k], top_y[:k]))
        if pair.self_match_mode:
            ranked = [(x, y) for x, y in ranked if x != y]
        return ranked + list(handle.training_matches)
    return list(seeds) + list(handle.training_matches)


def _by_degree(index: NodeIndex) -> list[str]:
    """Node ids by descending degree, ties in id order."""
    order = np.argsort(-np.diff(index.indptr), kind="stable")
    return [index.ids[i] for i in order.tolist()]


def _attribute_exact(handle: MatcherHandle, pair: NetworkPair) -> np.ndarray:
    """The sorted keys of every (x, y) with equal ``attr_key`` values."""
    key = handle.config.attr_key
    if not key:
        raise MatchcertError("missing-attr-key: attribute-exact needs attr_key")
    by_value_x: dict[str, list[int]] = {}
    for i, node in enumerate(pair.x_net.index.ids):
        value = pair.x_net.attrs.get(node, {}).get(key)
        if value is not None:
            by_value_x.setdefault(value, []).append(i)
    ny = len(pair.y_net.index.ids)
    out: list[int] = []
    for j, node in enumerate(pair.y_net.index.ids):
        value = pair.y_net.attrs.get(node, {}).get(key)
        if value is None:
            continue
        for i in by_value_x.get(value, ()):
            # in self-match mode one universe: equal positions, equal ids
            if pair.self_match_mode and i == j:
                continue
            out.append(i * ny + j)
    return np.sort(np.array(out, dtype=np.int64))


def _offsets(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., lens[i] - 1 for each group i, concatenated."""
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)


def _neighbours(
    index: NodeIndex, rows: np.ndarray, matched: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unmatched neighbours of each node in ``rows``, flattened.

    Returns (owner, node): ``node`` is a neighbour position and ``owner``
    the position in ``rows`` it belongs to, grouped by owner.
    """
    starts = index.indptr[rows]
    lens = index.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), lens)
    node = index.nbr[starts[owner] + _offsets(lens)]
    keep = ~matched[node]
    return owner[keep], node[keep]


def _seed_keys(pair: NetworkPair, start: list[tuple[str, str]]) -> np.ndarray:
    """The distinct keys of the seed pairs, mapped in one bulk pass.

    Raises for the first seed with a node outside its network
    (``unknown-node``) or, in self-match mode, with x == y
    (``identity-pair-forbidden``).
    """
    ix, iy = pair.x_net.index, pair.y_net.index
    px, py = pair_positions(pair, start)
    bad = (px < 0) | (py < 0)
    if pair.self_match_mode:
        bad |= px == py  # one shared universe: equal positions, equal ids
    if bad.any():
        x, y = start[int(np.argmax(bad))]
        if x not in ix.pos or y not in iy.pos:
            raise MatchcertError(f"unknown-node: seed pair ({x!r}, {y!r})")
        raise MatchcertError(f"identity-pair-forbidden: ({x!r}, {y!r})")
    return distinct_sorted(px * len(iy.ids) + py)


def _add_marks(
    table: np.ndarray, marks: np.ndarray, new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The mark table (sorted, distinct keys and their mark counts) with one
    more mark for each entry of ``new``; the keys stay sorted and distinct."""
    # with the new keys sorted on their own, a stable sort of the two sorted
    # runs is a merge
    keys = np.concatenate([table, np.sort(new)])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    weights = np.concatenate([marks, np.ones(new.size, dtype=np.int64)])[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    at = np.flatnonzero(first)
    return keys[at], np.add.reduceat(weights, at)


def _percolate(
    pair: NetworkPair,
    start: Iterable[tuple[str, str]],
    threshold: int,
    max_steps: int,
) -> np.ndarray:
    """The sorted keys of the pairs percolation ends with."""
    ix, iy = pair.x_net.index, pair.y_net.index
    ny = len(iy.ids)
    new = _seed_keys(pair, list(start))
    new_x, new_y = np.divmod(new, ny)
    matched_x = np.zeros(len(ix.ids), dtype=bool)
    matched_y = np.zeros(ny, dtype=bool)
    matched_x[new_x] = True
    matched_y[new_y] = True
    accepted = [new]
    # the live candidates (both ends unmatched) and their marks so far
    table = np.zeros(0, dtype=np.int64)
    marks = np.zeros(0, dtype=np.int64)

    for _ in range(max_steps):
        # each pair (x, y) matched last round, or each seed in round one,
        # marks every (unmatched neighbour of x, unmatched neighbour of y)
        own_x, nb_x = _neighbours(ix, new_x, matched_x)
        own_y, nb_y = _neighbours(iy, new_y, matched_y)
        per_y = np.bincount(own_y, minlength=new_y.size)
        first_y = np.cumsum(per_y) - per_y
        reps = per_y[own_x]
        cand_x = np.repeat(nb_x, reps)
        cand_y = nb_y[np.repeat(first_y[own_x], reps) + _offsets(reps)]
        if pair.self_match_mode:
            keep = cand_x != cand_y
            cand_x, cand_y = cand_x[keep], cand_y[keep]
        table, marks = _add_marks(table, marks, cand_x * ny + cand_y)
        eligible = marks >= threshold
        cand, counts = table[eligible], marks[eligible]
        # highest count first, ties by (x, y) id order: the key x * ny + y
        # sorts as (x, y), and index order is id order
        ranked = cand[np.lexsort((cand, -counts))]
        taken_x: set[int] = set()
        taken_y: set[int] = set()
        added = []
        for key in ranked.tolist():
            ux, vy = divmod(key, ny)
            if ux in taken_x or vy in taken_y:
                continue
            taken_x.add(ux)
            taken_y.add(vy)
            added.append(key)
        if not added:
            break
        new = np.array(added, dtype=np.int64)
        new_x, new_y = np.divmod(new, ny)
        matched_x[new_x] = True
        matched_y[new_y] = True
        accepted.append(new)
        # drop the candidates with a matched end; every eligible one is
        # among them (accepted, or it lost an end to a pair ranked above
        # it), so the table keeps only counts below the threshold
        tx, ty = np.divmod(table, ny)
        live = ~(matched_x[tx] | matched_y[ty])
        table, marks = table[live], marks[live]
    # distinct: the seed keys are, and every later pair has a new x and y
    return np.sort(np.concatenate(accepted))


def run_batch(handle: MatcherHandle, pair: NetworkPair) -> MatchSet:
    """Compute the full identified-match set for a pair."""
    if handle._cache_pair is pair and handle._cache_result is not None:
        return handle._cache_result
    cfg = handle.config
    if cfg.kind == "attribute-exact":
        keys = _attribute_exact(handle, pair)
    else:
        seeds = _resolve_seeds(handle, pair)
        keys = _percolate(pair, seeds, cfg.threshold, cfg.max_iters)
    # both matchers pair nodes of the two networks and never an identity
    # pair in self-match mode (_percolate checks the seeds), so the set
    # needs none of make_match_set's checks
    x_ids, y_ids = pair.x_net.index.ids, pair.y_net.index.ids
    result = MatchSet(x_ids, y_ids, keys, MatchRole.IDENTIFIED)
    handle._cache_pair = pair
    handle._cache_result = result
    return result


def run_query(handle: MatcherHandle, pair: NetworkPair, x: str) -> frozenset[str]:
    """Identified matches for one node; increments the handle's query count."""
    if x not in pair.x_net.index.pos:
        raise MatchcertError(f"unknown-node: {x!r}")
    handle._queries += 1
    return matches_of(run_batch(handle, pair), pair, (x,)).get(x, frozenset())

