"""Correlated network pairs with known ground-truth matches.

One base graph is built over entity indices; the X and Y copies each keep
a random subset of nodes and edges, so the two networks overlap without
being identical. The returned match set is the identity correspondence
over entities surviving in both copies, which makes true precision and
recall computable and lets coverage experiments compare certified bounds
against the truth.

The generator stays in ints until the end: each copy maps its surviving
entities to their positions in sorted node-id order and builds its
network's index (``graphs.NodeIndex.build``) from the int edge arrays.
No string edge is built, and the truth set is built from the positions of
the entities kept by both copies.

A copy's node ids depend only on its prefix and the entity count, so
they are formatted and string-sorted once per universe (``_universe``),
with the universe's id table: each id's rank in string order. Each copy
picks its survivors out of that list and resolves ids through the shared
table plus its own rank -> position array, so no copy builds a dict. The
last two universes stay in memory (one per side of a pair, about 0.26 MB
each at 2,000 entities by ``tracemalloc``, 0.11 MB of it the table), so
repeated trials of one configuration, as in a coverage run, never format
or sort an id.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import compress
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import MatchcertError, read_fields
from .graphs import MatchSet, Network, NetworkPair, NodeIndex
from .sampling import spawn_rng

__all__ = ["ErdosRenyi", "PreferentialAttachment", "GeneratorConfig", "generate_pair"]

ATTR_KEY = "uid"
NOISE_MARK = "~"


@dataclass(frozen=True)
class ErdosRenyi:
    p: float
    kind: ClassVar[str] = "erdos-renyi"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise MatchcertError(f"invalid-generator: edge probability {self.p}")


@dataclass(frozen=True)
class PreferentialAttachment:
    m_edges: int
    kind: ClassVar[str] = "preferential-attachment"

    def __post_init__(self) -> None:
        if self.m_edges < 1:
            raise MatchcertError(f"invalid-generator: m_edges {self.m_edges}")


def _read_model(doc: Mapping) -> ErdosRenyi | PreferentialAttachment:
    """The base model of a JSON object: ``kind`` names the model, and the
    other keys are its fields."""
    if not isinstance(doc, Mapping):
        raise MatchcertError(f"invalid-config: base_model takes an object, not {doc!r}")
    for model in (ErdosRenyi, PreferentialAttachment):
        if doc.get("kind") == model.kind:
            return read_fields(model, {k: v for k, v in doc.items() if k != "kind"})
    raise MatchcertError(f"invalid-generator: model kind {doc.get('kind')!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    n_entities: int
    base_model: ErdosRenyi | PreferentialAttachment
    edge_retain_x: float = 1.0
    edge_retain_y: float = 1.0
    node_drop_x: float = 0.0
    node_drop_y: float = 0.0
    attr_noise: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_entities < 2:
            raise MatchcertError(f"invalid-generator: n_entities {self.n_entities}")
        for name in ("edge_retain_x", "edge_retain_y", "node_drop_x",
                     "node_drop_y", "attr_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MatchcertError(f"invalid-generator: {name}={v}")
        if self.rng_seed < 0:
            raise MatchcertError(f"invalid-seed: rng_seed {self.rng_seed}")

    def to_json_dict(self) -> dict:
        doc = asdict(self)  # base_model as {"p": ...} or {"m_edges": ...}
        doc["base_model"]["kind"] = self.base_model.kind
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GeneratorConfig":
        return read_fields(cls, doc, base_model=_read_model)


def _base_edges(cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Edge list of the base graph as an (E, 2) int array with u < v."""
    n = cfg.n_entities
    if isinstance(cfg.base_model, ErdosRenyi):
        total = n * (n - 1) // 2
        count = int(rng.binomial(total, cfg.base_model.p))
        if count == 0:
            return np.empty((0, 2), dtype=np.int64)
        picks = rng.choice(total, size=count, replace=False, shuffle=False)
        picks.sort()
        # linear index over pairs (u < v), ordered by u then v
        offsets = np.zeros(n, dtype=np.int64)
        row_len = np.arange(n - 1, 0, -1, dtype=np.int64)
        offsets[1:] = np.cumsum(row_len)
        u = np.searchsorted(offsets, picks, side="right") - 1
        v = picks - offsets[u] + u + 1
        return np.column_stack([u, v])
    m = min(cfg.base_model.m_edges, n - 1)
    # growth with preferential attachment: repeated-endpoint list sampling,
    # seeded with a small clique so early degrees are nonzero
    targets: list[int] = []
    edges: list[tuple[int, int]] = []
    for u in range(1, m + 1):
        for v in range(u):
            edges.append((v, u))
            targets.extend((u, v))
    for node in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            pick = targets[int(rng.integers(len(targets)))]
            chosen.add(pick)
        for v in sorted(chosen):
            edges.append((v, node))
            targets.extend((node, v))
    return np.array(edges, dtype=np.int64)


class _Universe(NamedTuple):
    """The node ids of entities 0..n-1 of a ``prefix`` copy."""

    names: tuple[str, ...]  # the id of each entity
    ids: tuple[str, ...]  # the ids in string order
    rank: dict[str, int]  # id -> its index in ids: every copy's id table
    order: np.ndarray  # the entities in id order, read-only


@lru_cache(maxsize=2)
def _universe(prefix: str, n: int) -> _Universe:
    """The ids of a ``prefix`` copy of n entities and their id table.

    Node ids sort as strings, not as entity numbers ("x10" < "x9"). The
    cache holds one universe per side of a pair; its values are not
    changed, so every copy can share them.
    """
    names = tuple(f"{prefix}{i}" for i in range(n))
    order = sorted(range(n), key=names.__getitem__)
    ids = tuple(map(names.__getitem__, order))
    entities = np.array(order, dtype=np.int64)
    entities.flags.writeable = False
    return _Universe(names, ids, dict(zip(ids, range(n))), entities)


def _uid_attrs(
    names: tuple[str, ...], survivors: np.ndarray, noisy: np.ndarray
) -> dict[str, dict[str, str]]:
    """A copy's attributes, ``{node: {ATTR_KEY: uid}}``, in entity order."""
    return {
        names[i]: {ATTR_KEY: f"{i}{NOISE_MARK}" if mark else str(i)}
        for i, mark in zip(survivors.tolist(), noisy[survivors].tolist())
    }


def _copy(
    prefix: str,
    base: np.ndarray,
    n: int,
    drop: float,
    retain: float,
    noisy: np.ndarray,
    rng_nodes: np.random.Generator,
    rng_edges: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, Network]:
    """One copy of the base graph: the entities it keeps (a mask), each
    entity's position in the network's sorted node ids (-1 when dropped),
    and the network, whose index shares the universe's id table.

    Entity i becomes node ``f"{prefix}{i}"`` with attribute ``uid`` set to
    ``str(i)``, plus NOISE_MARK where ``noisy[i]``.
    """
    keep = rng_nodes.random(n) >= drop
    survivors = np.flatnonzero(keep)
    if survivors.size == 0:
        raise MatchcertError(
            f"degenerate-config: every node dropped from the {prefix} copy"
        )
    # the edge columns are masked on their own: selecting rows of the
    # (E, 2) array costs twice as much
    u, v = base.T
    live = keep[u] & keep[v] & (rng_edges.random(u.size) < retain)
    names, sorted_ids, rank, order = _universe(prefix, n)
    kept = keep[order]  # the keep mask in id order
    ids = list(compress(sorted_ids, kept.tolist()))
    by_rank = np.full(n + 1, -1, dtype=np.int64)  # rank -> position, or -1
    by_rank[np.flatnonzero(kept)] = np.arange(len(ids))
    at = np.empty(n, dtype=np.int64)  # entity -> position in ids, or -1
    at[order] = by_rank[:n]
    index = NodeIndex.build(ids, at[u[live]], at[v[live]], rank, by_rank)
    return keep, at, Network(index, partial(_uid_attrs, names, survivors, noisy))


def generate_pair(cfg: GeneratorConfig) -> tuple[NetworkPair, MatchSet]:
    """Build one correlated pair plus its ground-truth match set.

    Deterministic per rng_seed. Entities dropped from exactly one copy
    leave nodes in the other copy with no actual match, so the ground
    truth exercises unmatched-node handling.
    """
    rng_base, rng_xn, rng_xe, rng_yn, rng_ye, rng_noise = (
        spawn_rng(cfg.rng_seed, key) for key in range(6)
    )

    base = _base_edges(cfg, rng_base)
    n = cfg.n_entities
    noisy = rng_noise.random(n) < cfg.attr_noise

    keep_x, at_x, x_net = _copy("x", base, n, cfg.node_drop_x, cfg.edge_retain_x,
                                   np.zeros(n, dtype=bool), rng_xn, rng_xe)
    keep_y, at_y, y_net = _copy("y", base, n, cfg.node_drop_y, cfg.edge_retain_y,
                                   noisy, rng_yn, rng_ye)

    # Each pair joins the x and y nodes of one entity kept by both copies,
    # so every x has exactly one actual match. Both endpoints are nodes of
    # their networks, so pair_keys' checks hold by construction, and the
    # keys (distinct, as the x positions are) are built directly.
    both = np.flatnonzero(keep_x & keep_y)
    x_ids, y_ids = x_net.index.ids, y_net.index.ids
    keys = np.sort(at_x[both] * len(y_ids) + at_y[both])
    truth = MatchSet(x_ids, y_ids, keys)
    return NetworkPair(x_net, y_net), truth
