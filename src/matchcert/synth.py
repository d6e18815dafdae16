"""Correlated network pairs with known ground-truth matches.

One base graph is built over entity indices; the X and Y copies each keep
a random subset of nodes and edges, so the two networks overlap without
being identical. The returned match set is the identity correspondence
over entities surviving in both copies, which makes true precision and
recall computable and lets coverage experiments compare certified bounds
against the truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import MatchcertError
from .graphs import MatchRole, MatchSet, NetworkPair, make_match_set, make_network
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

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        return cls.from_json_dict(json.loads(text))


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


def _copy(
    prefix: str,
    base: np.ndarray,
    n: int,
    drop: float,
    retain: float,
    attrs_for: Mapping[int, str],
    rng_nodes: np.random.Generator,
    rng_edges: np.random.Generator,
):
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
    names = {i: f"{prefix}{i}" for i in survivors.tolist()}
    nodes = list(names.values())
    edges = [(names[u], names[v]) for u, v in kept_edges.tolist()]
    attrs = {names[i]: {ATTR_KEY: attrs_for[i]} for i in names}
    return set(names), make_network(nodes, edges, attrs)


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
    x_attr = {i: str(i) for i in range(n)}
    y_attr = {i: str(i) + (NOISE_MARK if noisy[i] else "") for i in range(n)}

    x_ids, x_net = _copy("x", base, n, cfg.node_drop_x, cfg.edge_retain_x,
                         x_attr, rng_xn, rng_xe)
    y_ids, y_net = _copy("y", base, n, cfg.node_drop_y, cfg.edge_retain_y,
                         y_attr, rng_yn, rng_ye)

    pair = NetworkPair(x_net, y_net)
    both = sorted(x_ids & y_ids)
    truth = make_match_set(
        [(f"x{i}", f"y{i}") for i in both], pair, MatchRole.ACTUAL, k_y=1
    )
    return pair, truth
