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
Node ids are formatted once per node, for that sort and the attributes;
no string edge is built, and the truth set is built from the positions of
the entities kept by both copies.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MatchcertError
from .graphs import MatchRole, MatchSet, Network, NetworkPair, NodeIndex
from .sampling import spawn_rng

__all__ = ["ErdosRenyi", "PreferentialAttachment", "GeneratorConfig", "generate_pair"]

ATTR_KEY = "uid"
NOISE_MARK = "~"


@dataclass(frozen=True)
class ErdosRenyi:
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise MatchcertError(f"invalid-generator: edge probability {self.p}")


@dataclass(frozen=True)
class PreferentialAttachment:
    m_edges: int

    def __post_init__(self) -> None:
        if self.m_edges < 1:
            raise MatchcertError(f"invalid-generator: m_edges {self.m_edges}")


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

    def to_json_dict(self) -> dict:
        if isinstance(self.base_model, ErdosRenyi):
            model = {"kind": "erdos-renyi", "p": self.base_model.p}
        else:
            model = {"kind": "preferential-attachment",
                     "m_edges": self.base_model.m_edges}
        return {
            "n_entities": self.n_entities,
            "base_model": model,
            "edge_retain_x": self.edge_retain_x,
            "edge_retain_y": self.edge_retain_y,
            "node_drop_x": self.node_drop_x,
            "node_drop_y": self.node_drop_y,
            "attr_noise": self.attr_noise,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GeneratorConfig":
        model = doc["base_model"]
        if model["kind"] == "erdos-renyi":
            base: ErdosRenyi | PreferentialAttachment = ErdosRenyi(float(model["p"]))
        elif model["kind"] == "preferential-attachment":
            base = PreferentialAttachment(int(model["m_edges"]))
        else:
            raise MatchcertError(f"invalid-generator: model kind {model['kind']!r}")
        return cls(
            n_entities=int(doc["n_entities"]),
            base_model=base,
            edge_retain_x=float(doc.get("edge_retain_x", 1.0)),
            edge_retain_y=float(doc.get("edge_retain_y", 1.0)),
            node_drop_x=float(doc.get("node_drop_x", 0.0)),
            node_drop_y=float(doc.get("node_drop_y", 0.0)),
            attr_noise=float(doc.get("attr_noise", 0.0)),
            rng_seed=int(doc.get("rng_seed", 0)),
        )


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


class _Attrs(Mapping):
    """A copy's attributes, ``{node: {ATTR_KEY: uid}}``, built on first
    read: a coverage trial never reads them."""

    def __init__(self, names: list[str], entities: list[int], noisy: list[bool]):
        self._columns = (names, entities, noisy)

    @cached_property
    def _dict(self) -> dict[str, dict[str, str]]:
        return {
            name: {ATTR_KEY: f"{i}{NOISE_MARK}" if mark else str(i)}
            for name, i, mark in zip(*self._columns)
        }

    def __getitem__(self, node: str) -> dict[str, str]:
        return self._dict[node]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __repr__(self) -> str:
        return repr(self._dict)


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
    kept entity's position in the network's sorted node ids, and the
    network.

    Entity i becomes node ``f"{prefix}{i}"`` with attribute ``uid`` set to
    ``str(i)``, plus NOISE_MARK where ``noisy[i]``.
    """
    keep = rng_nodes.random(n) >= drop
    survivors = np.flatnonzero(keep)
    if survivors.size == 0:
        raise MatchcertError(
            f"degenerate-config: every node dropped from the {prefix} copy"
        )
    if base.shape[0]:
        alive = keep[base[:, 0]] & keep[base[:, 1]]
        kept_edges = base[alive & (rng_edges.random(base.shape[0]) < retain)]
    else:
        kept_edges = base
    entities = survivors.tolist()
    names = [f"{prefix}{i}" for i in entities]
    # node ids sort as strings, not as entity numbers ("x10" < "x9")
    order = sorted(range(len(names)), key=names.__getitem__)
    ids = [names[k] for k in order]
    at = np.empty(n, dtype=np.int64)  # entity -> position in ids
    at[survivors[order]] = np.arange(len(ids))
    index = NodeIndex.build(
        ids, dict(zip(ids, range(len(ids)))), at[kept_edges[:, 0]], at[kept_edges[:, 1]]
    )
    attrs = _Attrs(names, entities, noisy[survivors].tolist())
    return keep, at, Network(index, attrs)


def generate_pair(cfg: GeneratorConfig) -> tuple[NetworkPair, MatchSet]:
    """Build one correlated pair plus its ground-truth match set.

    Deterministic per rng_seed. Entities dropped from exactly one copy
    leave nodes in the other copy with no actual match, so the ground
    truth exercises unmatched-node handling.
    """
    rng_base = spawn_rng(cfg.rng_seed, 0)
    rng_xn = spawn_rng(cfg.rng_seed, 1)
    rng_xe = spawn_rng(cfg.rng_seed, 2)
    rng_yn = spawn_rng(cfg.rng_seed, 3)
    rng_ye = spawn_rng(cfg.rng_seed, 4)
    rng_noise = spawn_rng(cfg.rng_seed, 5)

    base = _base_edges(cfg, rng_base)
    n = cfg.n_entities
    noisy = rng_noise.random(n) < cfg.attr_noise

    keep_x, at_x, x_net = _copy("x", base, n, cfg.node_drop_x, cfg.edge_retain_x,
                                   np.zeros(n, dtype=bool), rng_xn, rng_xe)
    keep_y, at_y, y_net = _copy("y", base, n, cfg.node_drop_y, cfg.edge_retain_y,
                                   noisy, rng_yn, rng_ye)

    # Each pair joins the x and y nodes of one entity kept by both copies.
    # Both endpoints are nodes of their networks and every x has exactly
    # one actual match: make_match_set's endpoint and k_y checks hold by
    # construction, and the keys (distinct, as the x positions are) are
    # built directly.
    both = np.flatnonzero(keep_x & keep_y)
    x_ids, y_ids = x_net.index.ids, y_net.index.ids
    keys = np.sort(at_x[both] * len(y_ids) + at_y[both])
    truth = MatchSet(x_ids, y_ids, keys, MatchRole.ACTUAL, k_y=1)
    return NetworkPair(x_net, y_net), truth
