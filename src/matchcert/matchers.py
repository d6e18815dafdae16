"""Baseline reconciliation algorithms: attribute-exact and percolation.

Both run in batch mode (the full identified-match set is materialized) or
query mode (per-node matches on demand, with a query counter for cost
reporting). The validation machinery never looks inside a matcher, so
these exist to exercise it; the bounds hold for any matcher.

Determinism contract: given the same config, seeds, and networks, a
matcher produces byte-identical output. Percolation resolves conflicting
candidate pairs by highest matched-neighbor count, then lexicographic
(x, y) node id order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import MatchcertError
from .graphs import MatchRole, MatchSet, NetworkPair, make_match_set

__all__ = [
    "TopDegree",
    "VERIFIED_SAMPLE",
    "MatcherConfig",
    "MatcherHandle",
    "build_matcher",
    "with_extra_seeds",
    "run_batch",
    "run_query",
    "percolate_step",
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


def _adjacency(net) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {n: [] for n in net.nodes}
    for u, v in net.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _resolve_seeds(handle: MatcherHandle, pair: NetworkPair) -> list[tuple[str, str]]:
    seeds = handle.config.seeds
    if seeds is None:
        return list(handle.training_matches)
    if seeds == VERIFIED_SAMPLE:
        return list(handle.training_matches)
    if isinstance(seeds, TopDegree):
        adj_x = _adjacency(pair.x_net)
        adj_y = _adjacency(pair.y_net)
        top_x = sorted(pair.x_net.nodes, key=lambda n: (-len(adj_x[n]), n))
        top_y = sorted(pair.y_net.nodes, key=lambda n: (-len(adj_y[n]), n))
        k = min(seeds.k, len(top_x), len(top_y))
        ranked = list(zip(top_x[:k], top_y[:k]))
        if pair.self_match_mode:
            ranked = [(x, y) for x, y in ranked if x != y]
        return ranked + list(handle.training_matches)
    return list(seeds) + list(handle.training_matches)


def _attribute_exact(handle: MatcherHandle, pair: NetworkPair) -> set[tuple[str, str]]:
    key = handle.config.attr_key
    if not key:
        raise MatchcertError("missing-attr-key: attribute-exact needs attr_key")
    by_value_x: dict[str, list[str]] = {}
    for node in pair.x_net.nodes:
        value = pair.x_net.attrs.get(node, {}).get(key)
        if value is not None:
            by_value_x.setdefault(value, []).append(node)
    out: set[tuple[str, str]] = set()
    for node in pair.y_net.nodes:
        value = pair.y_net.attrs.get(node, {}).get(key)
        if value is None:
            continue
        for x in by_value_x.get(value, ()):
            if pair.self_match_mode and x == node:
                continue
            out.add((x, node))
    return out


def _percolate(
    pair: NetworkPair,
    start: Iterable[tuple[str, str]],
    threshold: int,
    max_steps: int,
) -> set[tuple[str, str]]:
    xs = sorted(pair.x_net.nodes)
    ys = sorted(pair.y_net.nodes)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    ny = len(ys)
    adj_raw_x = _adjacency(pair.x_net)
    adj_raw_y = _adjacency(pair.y_net)
    adj_x = [[xi[v] for v in adj_raw_x[x]] for x in xs]
    adj_y = [[yi[v] for v in adj_raw_y[y]] for y in ys]
    self_mode = pair.self_match_mode

    current: set[tuple[int, int]] = set()
    matched_x: set[int] = set()
    matched_y: set[int] = set()
    for x, y in start:
        if x not in xi or y not in yi:
            raise MatchcertError(f"unknown-node: seed pair ({x!r}, {y!r})")
        key = (xi[x], yi[y])
        current.add(key)
        matched_x.add(key[0])
        matched_y.add(key[1])

    for _ in range(max_steps):
        counts: dict[int, int] = {}
        for ix, iy in current:
            for ux in adj_x[ix]:
                if ux in matched_x:
                    continue
                base = ux * ny
                for vy in adj_y[iy]:
                    if vy in matched_y:
                        continue
                    if self_mode and ux == vy:
                        continue
                    k = base + vy
                    counts[k] = counts.get(k, 0) + 1
        # highest count first, ties by (x, y) id order; index order over the
        # sorted node lists coincides with lexicographic id order
        eligible = sorted(
            (-c, key) for key, c in counts.items() if c >= threshold
        )
        added = False
        for _, key in eligible:
            ux, vy = divmod(key, ny)
            if ux in matched_x or vy in matched_y:
                continue
            current.add((ux, vy))
            matched_x.add(ux)
            matched_y.add(vy)
            added = True
        if not added:
            break
    return {(xs[ix], ys[iy]) for ix, iy in current}


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
    result = make_match_set(pairs, pair, role)
    handle._cache_pair = pair
    handle._cache_result = result
    return result


def run_query(handle: MatcherHandle, pair: NetworkPair, x: str) -> frozenset[str]:
    """Identified matches for one node; increments the handle's query count."""
    if x not in pair.x_net.nodes:
        raise MatchcertError(f"unknown-node: {x!r}")
    handle._queries += 1
    full = run_batch(handle, pair)
    return frozenset(y for (u, y) in full.pairs if u == x)


def percolate_step(
    current: MatchSet, pair: NetworkPair, threshold: int
) -> MatchSet:
    """One percolation round: add every eligible pair, never remove any.

    A pair (x, y) with both sides unmatched is eligible when the number of
    current pairs joining a neighbor of x to a neighbor of y reaches the
    threshold. Conflicts resolve by highest count, then lexicographic
    (x, y).
    """
    grown = _percolate(pair, sorted(current.pairs), threshold, max_steps=1)
    return make_match_set(grown, pair, current.role, current.k_y)
