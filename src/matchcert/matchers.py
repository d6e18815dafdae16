"""Baseline reconciliation algorithms: attribute-exact and percolation.

Both run in batch mode (the full identified-match set is materialized) or
query mode (one node's matches, read from the batch result). The
validation machinery never looks inside a matcher, so these exist to
exercise it; the bounds hold for any matcher.

Determinism contract: given the same config, seeds, and networks, a
matcher produces byte-identical output. Percolation resolves conflicting
candidate pairs by highest matched-neighbor count, then lexicographic
(x, y) node id order. Its seed set is one-to-one too: it takes the seeds
in order, the training pairs first (they are verified; a MatchSet of them
in key order), then the rule's or the config's, and drops a seed whose x
or y an earlier one took. So percolation gives each x and each y at most
one match, a largest count of 1, hence binary p(x) and the d_p range
[0, 2] of the query certificates. Seeds are keys ``x * n_y + y`` like the
marks below: string pairs are checked and encoded once, by
``graphs.pair_keys``, when the matcher runs, a MatchSet (as a coverage
trial seeds with truth keys) gives its keys, and ``TopDegree`` ranks
positions.

Percolation runs on the networks' int indexes (``Network.index``: ids in
sorted order plus CSR adjacency), joined for the call into one CSR: X's
rows, then Y's, whose positions are offset by n_x. As in Yartseva &
Grossglauser's percolation graph matching, each matched pair spreads its
marks once, in the round after it is matched (the seeds in round one): its
x's unmatched neighbours times its y's. One gather over the joint CSR
reads the neighbours of the round's x ends and y ends together. The marks
are int64 keys ``x * n_y + y`` in a mark table that lasts across rounds:
a sorted multiset with one entry per mark. Each round drops the entries
with a matched end, sorts the round's marks on their own and merges the two
sorted runs with a stable sort, which numpy runs as timsort over the runs.
Keys split into (x, y) by floor division (``graphs.split_keys``). A key
has at least ``threshold`` marks when the entry ``threshold - 1`` places
after its first equals it. The entries that pass this test list such a
key once per mark past ``threshold - 1``, so the length of its listing is
its count less ``threshold - 1``. The eligible candidates are ranked with
``np.lexsort`` on (-count, key); because index order is id order, the key
sorts as (x, y) by id, so the tie-break is the one above. Pairs are then accepted greedily in that order, skipping any
whose x or y was taken earlier in the round, and the next merge drops
every entry with a matched end. Each eligible candidate is accepted or
loses an end in its round, so the table carries only counts below the
threshold, and a candidate's count is the number of matched pairs that
support it, as if all were gathered anew each round. Matches leave the
function as the sorted keys of a MatchSet, the same ``x * n_y + y``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import MatchcertError, read_fields
from .graphs import (
    MatchSet,
    NetworkPair,
    distinct_sorted,
    gather_runs,
    matches_of,
    pair_keys,
    split_keys,
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

    def __post_init__(self) -> None:
        if self.k < 0:
            raise MatchcertError(f"invalid-top-degree: {self.k}")


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
        seeds = self.seeds
        ok = isinstance(seeds, tuple) and all(
            isinstance(p, tuple) and len(p) == 2 and all(isinstance(v, str) for v in p)
            for p in seeds
        )
        if not (ok or seeds in (None, VERIFIED_SAMPLE) or isinstance(seeds, TopDegree)):
            raise MatchcertError(f"unknown-seed-rule: {seeds!r}")

    def to_json_dict(self) -> dict:
        seeds = self.seeds
        if isinstance(seeds, TopDegree):
            seeds = {"top-degree-k": seeds.k}
        elif isinstance(seeds, tuple):
            seeds = [list(p) for p in seeds]
        return {**asdict(self), "seeds": seeds}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MatcherConfig":
        return read_fields(cls, doc, seeds=_read_seeds)


def _read_seeds(seeds) -> tuple[tuple[str, str], ...] | TopDegree | str:
    """The seed rule of a matcher config's JSON ``seeds``; ``__post_init__``
    rejects a value that is no rule."""
    if isinstance(seeds, Mapping):
        if set(seeds) != {"top-degree-k"}:
            raise MatchcertError(f"unknown-seed-rule: {dict(seeds)!r}")
        return read_fields(TopDegree, {"k": seeds["top-degree-k"]})
    if isinstance(seeds, list):
        if not all(isinstance(p, list) for p in seeds):  # "ab" would unpack
            raise MatchcertError(f"unknown-seed-rule: {seeds!r}")
        for p in seeds:
            if len(p) != 2:
                raise MatchcertError(f"invalid-config: a seed pair has two ids, not {p!r}")
        return tuple(map(tuple, seeds))
    return seeds


@dataclass(eq=False)
class MatcherHandle:
    """A matcher config plus the training pairs it is seeded with: string
    pairs, or a MatchSet over the pair it runs on (``universe-mismatch``
    otherwise).

    A complete handle is a holdout handle whose seeds were augmented with
    validation data (see :func:`with_extra_seeds`). An attribute-exact
    matcher never reads its training pairs.
    """

    config: MatcherConfig
    training_matches: tuple[tuple[str, str], ...] | MatchSet = ()
    _cache_pair: NetworkPair | None = field(default=None, repr=False)
    _cache_result: MatchSet | None = field(default=None, repr=False)


def build_matcher(
    config: MatcherConfig, training_matches: Iterable[tuple[str, str]] | MatchSet = ()
) -> MatcherHandle:
    if not isinstance(training_matches, MatchSet):
        training_matches = tuple(training_matches)
    return MatcherHandle(config=config, training_matches=training_matches)


def with_extra_seeds(
    handle: MatcherHandle, extra_pairs: Iterable[tuple[str, str]]
) -> MatcherHandle:
    """Derive a complete matcher by feeding validation data in as seeds,
    after the training pairs (a MatchSet's in key order).

    Unless the matcher is attribute-exact, which reads no seeds, the result
    is no longer a holdout matcher: its output depends on ``extra_pairs``.
    """
    training = handle.training_matches
    if isinstance(training, MatchSet):
        training = training.sorted_pairs
    return build_matcher(handle.config, (*training, *extra_pairs))


def _seed_keys(handle: MatcherHandle, pair: NetworkPair) -> np.ndarray:
    """The seed keys in the order percolation takes them: the training
    pairs first, as they are verified, then the rule's or the config's."""
    training, rule = handle.training_matches, handle.config.seeds
    keys = [np.zeros(0, dtype=np.int64)]
    if isinstance(training, MatchSet):
        training.check_universe(pair.x_net.index.ids, pair.y_net.index.ids)
        keys, training = [training.keys], ()
    strings = (*training, *rule) if isinstance(rule, tuple) else training
    if strings:  # one call checks and encodes every string pair
        keys.append(pair_keys(pair, "seed", strings))
    if isinstance(rule, TopDegree):
        # the i-th highest-degree x with the i-th highest-degree y, ties in
        # id order, but no identity pair (equal positions) in self-match mode
        top_x, top_y = (
            np.argsort(-np.diff(net.index.indptr), kind="stable")
            for net in (pair.x_net, pair.y_net)
        )
        x, y = (top[: min(rule.k, top_x.size, top_y.size)] for top in (top_x, top_y))
        keys.append((x * top_y.size + y)[(x != y) | (not pair.self_match_mode)])
    return np.concatenate(keys)


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


def _first_come(keys: list[int], ny: int) -> list[int]:
    """Each of ``keys`` (``x * ny + y``) whose x and y no earlier kept key
    has, in order."""
    taken_x: set[int] = set()
    taken_y: set[int] = set()
    kept = []
    for key in keys:
        x, y = divmod(key, ny)
        if x in taken_x or y in taken_y:
            continue
        taken_x.add(x)
        taken_y.add(y)
        kept.append(key)
    return kept


def _one_to_one(keys: np.ndarray, ny: int) -> np.ndarray:
    """The sorted keys of the seeds ``keys`` that percolation keeps: each
    seed whose x and y no earlier kept seed has. A seed list without such
    a conflict is kept whole without a loop over its seeds."""
    distinct = distinct_sorted(keys)
    xs, ys = split_keys(distinct, ny)
    if (xs[1:] != xs[:-1]).all() and distinct_sorted(ys).size == ys.size:
        return distinct
    return np.sort(np.array(_first_come(keys.tolist(), ny), dtype=np.int64))


def _percolate(
    pair: NetworkPair, seed_keys: np.ndarray, threshold: int, max_steps: int
) -> np.ndarray:
    """The sorted keys of the pairs percolation ends with, from the seed
    keys in the order it takes them."""
    ix, iy = pair.x_net.index, pair.y_net.index
    nx, ny = len(ix.ids), len(iy.ids)
    # one CSR over both networks: X's rows, then Y's with positions + nx
    indptr = np.concatenate([ix.indptr, iy.indptr[1:] + ix.indptr[-1]])
    degree = np.diff(indptr)
    nbr = np.concatenate([ix.nbr, iy.nbr + nx])
    unmatched = np.ones(nx + ny, dtype=bool)
    unmatched_x, unmatched_y = unmatched[:nx], unmatched[nx:]
    new = _one_to_one(seed_keys, ny)
    accepted = [new]
    # one entry per mark a live candidate (both ends unmatched) has had
    table = np.zeros(0, dtype=np.int64)

    for _ in range(max_steps):
        # each pair (x, y) matched last round, or each seed in round one,
        # marks every (unmatched neighbour of x, unmatched neighbour of y);
        # rows holds the pairs' x ends, then their y ends
        k = new.size
        new_x, new_y = split_keys(new, ny)
        rows = np.concatenate([new_x, new_y + nx])
        unmatched[rows] = False
        lens = degree[rows]
        owner = np.repeat(np.arange(2 * k), lens)
        node = gather_runs(nbr, indptr[rows], lens)
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
        cand_y = gather_runs(node, first[y_row], reps) - nx
        if pair.self_match_mode:
            keep = cand_x != cand_y
            cand_x, cand_y = cand_x[keep], cand_y[keep]
        marks = cand_x * ny + cand_y
        marks.sort()
        # the purged table and the sorted marks are two sorted runs, which
        # a stable sort (timsort for int64) merges in one pass
        tx, ty = split_keys(table, ny)
        table = np.concatenate([table[unmatched_x[tx] & unmatched_y[ty]], marks])
        table.sort(kind="stable")
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
        added = _first_come(ranked.tolist(), ny)
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
        keys = _percolate(pair, _seed_keys(handle, pair), cfg.threshold, cfg.max_iters)
    # both matchers pair nodes of the two networks and never an identity
    # pair in self-match mode (pair_keys checks string seeds, and a
    # MatchSet's pairs were checked when it was built), so the keys need
    # no further check
    x_ids, y_ids = pair.x_net.index.ids, pair.y_net.index.ids
    result = MatchSet(x_ids, y_ids, keys)
    handle._cache_pair = pair
    handle._cache_result = result
    return result


def run_query(handle: MatcherHandle, pair: NetworkPair, x: str) -> frozenset[str]:
    """Identified matches for one node, read from the batch result."""
    if pair.x_net.index.positions((x,))[0] < 0:
        raise MatchcertError(f"unknown-node: {x!r}")
    return matches_of(run_batch(handle, pair), pair, (x,))[x]

