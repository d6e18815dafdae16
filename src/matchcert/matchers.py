"""Baseline reconciliation algorithms: attribute-exact and percolation.

Both run in batch mode (the full identified-match set is materialized) or
query mode (per-node matches on demand, with a query counter for cost
reporting). The validation machinery never looks inside a matcher, so
these exist to exercise it; the bounds hold for any matcher.

Determinism contract: given the same config, seeds, and networks, a
matcher produces byte-identical output. Percolation resolves conflicting
candidate pairs by highest matched-neighbor count, then lexicographic
(x, y) node id order.

Percolation runs on the networks' int indexes (``Network.index``: ids in
sorted order plus CSR adjacency), joined for the call into one CSR: X's
rows, then Y's, whose positions are offset by n_x. As in Yartseva &
Grossglauser's percolation graph matching, each matched pair spreads its
marks once, in the round after it is matched (the seeds in round one): its
x's unmatched neighbours times its y's. One gather over the joint CSR
reads the neighbours of the round's x ends and y ends together. The marks
are int64 keys ``x * n_y + y`` in a mark table that lasts across rounds:
a sorted multiset with one entry per mark, merged with the round's marks
by one sort. A key has at least ``threshold`` marks when the entry
``threshold - 1`` places after its first equals it. The entries that pass
this test list such a key once per mark past ``threshold - 1``, so the
length of its listing is its count less ``threshold - 1``. The eligible
candidates are ranked with ``np.lexsort`` on (-count, key); because index
order is id order, the key sorts as (x, y) by id, so the tie-break is the
one above. Pairs are then accepted greedily in that order, skipping any
whose x or y was taken earlier in the round, and the next merge drops
every entry with a matched end. Each eligible candidate is accepted or
loses an end in its round, so the table carries only counts below the
threshold, and a candidate's count is the number of matched pairs that
support it, as if all were gathered anew each round. Matches leave the
function as the sorted keys of a MatchSet, the same ``x * n_y + y``.
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


def _runs(src: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``src[starts[i] : starts[i] + lens[i]]`` for each i, concatenated."""
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return src[shift + np.arange(shift.size)]


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


def _percolate(
    pair: NetworkPair,
    start: Iterable[tuple[str, str]],
    threshold: int,
    max_steps: int,
) -> np.ndarray:
    """The sorted keys of the pairs percolation ends with."""
    ix, iy = pair.x_net.index, pair.y_net.index
    nx, ny = len(ix.ids), len(iy.ids)
    # one CSR over both networks: X's rows, then Y's with positions + nx
    indptr = np.concatenate([ix.indptr, iy.indptr[1:] + ix.indptr[-1]])
    degree = np.diff(indptr)
    nbr = np.concatenate([ix.nbr, iy.nbr + nx])
    unmatched = np.ones(nx + ny, dtype=bool)
    unmatched_x, unmatched_y = unmatched[:nx], unmatched[nx:]
    new = _seed_keys(pair, list(start))
    accepted = [new]
    # one entry per mark a live candidate (both ends unmatched) has had
    table = np.zeros(0, dtype=np.int64)

    for _ in range(max_steps):
        # each pair (x, y) matched last round, or each seed in round one,
        # marks every (unmatched neighbour of x, unmatched neighbour of y);
        # rows holds the pairs' x ends, then their y ends
        k = new.size
        new_x, new_y = np.divmod(new, ny)
        rows = np.concatenate([new_x, new_y + nx])
        unmatched[rows] = False
        lens = degree[rows]
        owner = np.repeat(np.arange(2 * k), lens)
        node = _runs(nbr, indptr[rows], lens)
        live = unmatched[node]
        owner, node = owner[live], node[live]
        # owner ascends, so the x ends' neighbours come first; each is
        # paired with every neighbour of the same pair's y end
        per_row = np.bincount(owner, minlength=2 * k)
        first = np.cumsum(per_row) - per_row
        split = int(per_row[:k].sum())
        y_row = owner[:split] + k
        reps = per_row[y_row]
        cand_x = np.repeat(node[:split], reps)
        cand_y = _runs(node, first[y_row], reps) - nx
        if pair.self_match_mode:
            keep = cand_x != cand_y
            cand_x, cand_y = cand_x[keep], cand_y[keep]
        tx, ty = np.divmod(table, ny)
        table = np.concatenate([
            table[unmatched_x[tx] & unmatched_y[ty]], cand_x * ny + cand_y
        ])
        table.sort()
        # a key with c >= threshold marks starts a run of that length, so
        # it is listed c - threshold + 1 times: its first listing is its
        # candidate, and the length of its listing ranks as c does
        head = table[: max(table.size - threshold + 1, 0)]
        listed = head[head == table[threshold - 1 :]]
        # where each key's listing starts, then the end of the last one
        bounds = np.ones(listed.size + 1, dtype=bool)
        bounds[1:-1] = listed[1:] != listed[:-1]
        at = np.flatnonzero(bounds)
        cand = listed[at[:-1]]
        listings = at[1:] - at[:-1]
        # highest count first, ties by (x, y) id order: the key x * ny + y
        # sorts as (x, y), and index order is id order
        ranked = cand[np.lexsort((cand, -listings))]
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
        accepted.append(new)
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

