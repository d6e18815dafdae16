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
sorted order plus CSR adjacency). Each round is array work: gather the
unmatched neighbours of both sides of every current pair from the CSR,
form their per-pair products as int64 keys ``x * n_y + y``, count the
keys with ``np.unique``, keep those at or above the threshold, and rank
them with ``np.lexsort`` on (-count, key). Because index order is id
order, the key sorts as (x, y) by id, so the tie-break is the one above.
Pairs are then accepted greedily in that order, skipping any whose x or
y was taken earlier in the round. Matches leave the function as string
ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import MatchcertError
from .graphs import MatchRole, MatchSet, NetworkPair, NodeIndex, by_x

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

    @classmethod
    def from_json(cls, text: str) -> "MatcherConfig":
        return cls.from_json_dict(json.loads(text))


@dataclass
class MatcherHandle:
    """A matcher plus the provenance of what it saw during construction.

    A handle marked holdout lists no validation samples in ``trained_on``;
    a complete handle is a holdout handle whose seeds were augmented with
    validation data (see :func:`with_extra_seeds`).
    """

    config: MatcherConfig
    training_matches: tuple[tuple[str, str], ...] = ()
    trained_on: tuple[str, ...] = ()
    holdout: bool = True
    _queries: int = field(default=0, repr=False)
    _cache_pair: NetworkPair | None = field(default=None, repr=False)
    _cache_result: MatchSet | None = field(default=None, repr=False)

    @property
    def queries(self) -> int:
        return self._queries

    def same_function(self, other: "MatcherHandle") -> bool:
        """True when both handles compute the same matching function."""
        return (
            self.config == other.config
            and sorted(self.training_matches) == sorted(other.training_matches)
        )


def build_matcher(
    config: MatcherConfig,
    training_matches: Iterable[tuple[str, str]] = (),
    trained_on: Iterable[str] = (),
    holdout: bool = True,
) -> MatcherHandle:
    return MatcherHandle(
        config=config,
        training_matches=tuple(training_matches),
        trained_on=tuple(trained_on),
        holdout=holdout,
    )


def with_extra_seeds(
    handle: MatcherHandle,
    extra_pairs: Iterable[tuple[str, str]],
    labels: Iterable[str],
) -> MatcherHandle:
    """Derive a complete matcher by feeding validation data in as seeds.

    The result is no longer a holdout matcher: its output depends on the
    samples listed in ``labels``.
    """
    return MatcherHandle(
        config=handle.config,
        training_matches=tuple(handle.training_matches) + tuple(extra_pairs),
        trained_on=tuple(handle.trained_on) + tuple(labels),
        holdout=False,
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


def _attribute_exact(handle: MatcherHandle, pair: NetworkPair) -> set[tuple[str, str]]:
    key = handle.config.attr_key
    if not key:
        raise MatchcertError("missing-attr-key: attribute-exact needs attr_key")
    by_value_x: dict[str, list[str]] = {}
    for node in pair.x_net.index.ids:
        value = pair.x_net.attrs.get(node, {}).get(key)
        if value is not None:
            by_value_x.setdefault(value, []).append(node)
    out: set[tuple[str, str]] = set()
    for node in pair.y_net.index.ids:
        value = pair.y_net.attrs.get(node, {}).get(key)
        if value is None:
            continue
        for x in by_value_x.get(value, ()):
            if pair.self_match_mode and x == node:
                continue
            out.add((x, node))
    return out


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


def _percolate(
    pair: NetworkPair,
    start: Iterable[tuple[str, str]],
    threshold: int,
    max_steps: int,
) -> set[tuple[str, str]]:
    ix, iy = pair.x_net.index, pair.y_net.index
    ny = len(iy.ids)
    keys = []
    for x, y in start:
        if x not in ix.pos or y not in iy.pos:
            raise MatchcertError(f"unknown-node: seed pair ({x!r}, {y!r})")
        if pair.self_match_mode and x == y:
            raise MatchcertError(f"identity-pair-forbidden: ({x!r}, {y!r})")
        keys.append(ix.pos[x] * ny + iy.pos[y])
    current = np.array(sorted(set(keys)), dtype=np.int64)
    cur_x, cur_y = np.divmod(current, ny)
    matched_x = np.zeros(len(ix.ids), dtype=bool)
    matched_y = np.zeros(ny, dtype=bool)
    matched_x[cur_x] = True
    matched_y[cur_y] = True

    for _ in range(max_steps):
        # every (unmatched neighbour of x, unmatched neighbour of y) over
        # the current pairs (x, y), once per pair that supports it
        own_x, nb_x = _neighbours(ix, cur_x, matched_x)
        own_y, nb_y = _neighbours(iy, cur_y, matched_y)
        per_y = np.bincount(own_y, minlength=cur_y.size)
        first_y = np.cumsum(per_y) - per_y
        reps = per_y[own_x]
        cand_x = np.repeat(nb_x, reps)
        cand_y = nb_y[np.repeat(first_y[own_x], reps) + _offsets(reps)]
        if pair.self_match_mode:
            keep = cand_x != cand_y
            cand_x, cand_y = cand_x[keep], cand_y[keep]
        cand, counts = np.unique(cand_x * ny + cand_y, return_counts=True)
        eligible = counts >= threshold
        cand, counts = cand[eligible], counts[eligible]
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
        cur_x = np.concatenate([cur_x, new_x])
        cur_y = np.concatenate([cur_y, new_y])
    return {(ix.ids[x], iy.ids[y]) for x, y in zip(cur_x.tolist(), cur_y.tolist())}


def run_batch(handle: MatcherHandle, pair: NetworkPair) -> MatchSet:
    """Compute the full identified-match set for a pair."""
    if handle._cache_pair is pair and handle._cache_result is not None:
        return handle._cache_result
    cfg = handle.config
    if cfg.kind == "attribute-exact":
        pairs = _attribute_exact(handle, pair)
    else:
        seeds = _resolve_seeds(handle, pair)
        pairs = _percolate(pair, seeds, cfg.threshold, cfg.max_iters)
    role = MatchRole.IDENTIFIED_HOLDOUT if handle.holdout else MatchRole.IDENTIFIED
    # both matchers pair nodes of the two networks and never an identity
    # pair in self-match mode (_percolate checks the seeds), so the set
    # needs none of make_match_set's checks
    result = MatchSet(frozenset(pairs), role)
    handle._cache_pair = pair
    handle._cache_result = result
    return result


def run_query(handle: MatcherHandle, pair: NetworkPair, x: str) -> frozenset[str]:
    """Identified matches for one node; increments the handle's query count."""
    if x not in pair.x_net.index.pos:
        raise MatchcertError(f"unknown-node: {x!r}")
    handle._queries += 1
    return by_x(run_batch(handle, pair)).get(x, frozenset())

