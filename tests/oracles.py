"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: exact rational arithmetic and
brute-force enumeration, kept separate from the library's computation
paths so the two sides of each check stay independent.
"""

import hashlib
import itertools
from collections import defaultdict
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

from matchcert.bounds import (
    _TIE_EPS,
    Confidence,
    hypergeom_tail_lower,
    hypergeom_tail_upper,
)
from matchcert.errors import MatchcertError


def set_digest(pairs, pair) -> str:
    """``MatchSet.digest`` of the string ``pairs`` over ``pair``'s
    universes, by its recipe: sha256 of the sorted X ids, then the sorted Y
    ids, each id followed by a newline and each table by a tab, in UTF-8,
    then each pair's key x_pos * |Y| + y_pos, ascending, as little-endian
    int64."""
    x_ids, y_ids = sorted(pair.x_net.nodes), sorted(pair.y_net.nodes)
    x_at = {x: i for i, x in enumerate(x_ids)}
    y_at = {y: i for i, y in enumerate(y_ids)}
    keys = sorted(x_at[x] * len(y_ids) + y_at[y] for x, y in set(pairs))
    blob = "".join(f"{x}\n" for x in x_ids) + "\t" + "".join(f"{y}\n" for y in y_ids) + "\t"
    return hashlib.sha256(
        blob.encode("utf-8") + b"".join(k.to_bytes(8, "little", signed=True) for k in keys)
    ).hexdigest()


def pmf_exact(m: int, n: int, s: int, k: int) -> Fraction:
    if k > m or s - k > n - m:
        return Fraction(0)
    return Fraction(comb(m, k) * comb(n - m, s - k), comb(n, s))


def tail_upper_exact(m: int, n: int, s: int, k: int) -> Fraction:
    return sum((pmf_exact(m, n, s, j) for j in range(k, s + 1)), Fraction(0))


def tail_lower_exact(m: int, n: int, s: int, k: int) -> Fraction:
    return sum((pmf_exact(m, n, s, j) for j in range(0, k + 1)), Fraction(0))


def invert_lower_exact(n: int, s: int, k: int, delta: Fraction) -> Fraction:
    for m in range(0, n + 1):
        if tail_upper_exact(m, n, s, k) >= delta:
            return Fraction(m, n)
    raise AssertionError("unreachable: m = n always has upper tail 1")


def invert_upper_exact(n: int, s: int, k: int, delta: Fraction) -> Fraction:
    best = None
    for m in range(0, n + 1):
        if tail_lower_exact(m, n, s, k) >= delta:
            best = Fraction(m, n)
    assert best is not None, "m = 0 always has lower tail 1"
    return best


def hypergeom_invert_lower_reference(
    n: int, s: int, k: int, delta: Confidence, slop: float = _TIE_EPS
) -> float:
    """Bisection over [k, n]: the exact lower bound before the guided search.

    Kept verbatim as the search's oracle; it reads the library's own tail,
    so the two searches can be compared with ``==``. An m passes when its
    tail is at least ``delta - slop``; ``slop=0`` inverts at delta exactly.
    """
    if not 0 <= k <= s <= n:
        raise MatchcertError(f"invalid-hypergeom-params: n={n}, s={s}, k={k}")
    if k == 0:
        return 0.0
    lo, hi = k, n  # tail is 0 below m = k and 1 at m = n
    while lo < hi:
        mid = (lo + hi) // 2
        if hypergeom_tail_upper(mid, n, s, k) >= delta.delta - slop:
            hi = mid
        else:
            lo = mid + 1
    return lo / n


def hypergeom_invert_upper_reference(
    n: int, s: int, k: int, delta: Confidence, slop: float = _TIE_EPS
) -> float:
    """Bisection over [0, n]: the exact upper bound before the guided search,
    with the lower bound's ``slop``."""
    if not 0 <= k <= s <= n:
        raise MatchcertError(f"invalid-hypergeom-params: n={n}, s={s}, k={k}")
    if k == s:
        return 1.0
    lo, hi = 0, n  # tail is 1 at m = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if hypergeom_tail_lower(mid, n, s, k) >= delta.delta - slop:
            lo = mid
        else:
            hi = mid - 1
    return lo / n


def sigma_hat_pairwise(values) -> float:
    """All-pairs form of the sample standard deviation."""
    s = len(values)
    total = sum((a - b) ** 2 for a in values for b in values)
    return (total / (2 * s * s)) ** 0.5


def enumerate_procedure_law(n: int, ell: int, t: int, s: int):
    """Exact joint law of (train, validation) under the split procedure.

    Walks the full branching tree with rational arithmetic: the labeled
    pool is a uniform size-ell draw from the population, then each step of
    the procedure contributes its exact probability.
    """
    population = range(n)
    joint = defaultdict(Fraction)
    p_pool = Fraction(1, comb(n, ell))
    for pool in itertools.combinations(population, ell):
        for train in itertools.combinations(pool, t):
            p_train = p_pool / comb(ell, t)
            train_set = set(train)
            rest = [x for x in pool if x not in train_set]
            for i in range(0, min(t, s) + 1):
                p_i = Fraction(comb(t, i) * comb(n - t, s - i), comb(n, s))
                if p_i == 0:
                    continue
                for from_train in itertools.combinations(train, i):
                    p3 = p_train * p_i / comb(t, i)
                    for from_rest in itertools.combinations(rest, s - i):
                        p = p3 / comb(len(rest), s - i)
                        key = (
                            frozenset(train),
                            frozenset(from_train) | frozenset(from_rest),
                        )
                        joint[key] += p
    return joint


def chisq_pvalue(observed, probs: dict, runs: int) -> float:
    """Goodness-of-fit p-value, merging cells with expected count < 5."""
    from scipy.stats import chi2

    support = sorted(probs)
    bins = []
    cur_o, cur_e = 0.0, 0.0
    for v in support:
        cur_o += observed.get(v, 0)
        cur_e += probs[v] * runs
        if cur_e >= 5.0:
            bins.append((cur_o, cur_e))
            cur_o, cur_e = 0.0, 0.0
    if cur_e > 0 and bins:
        o, e = bins[-1]
        bins[-1] = (o + cur_o, e + cur_e)
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return float(chi2.sf(stat, df=len(bins) - 1))


def adjacency_reference(net) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {n: [] for n in net.nodes}
    for u, v in net.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def top_degree_reference(pair, k: int) -> list[tuple[str, str]]:
    """The TopDegree seed rule: the k highest-degree nodes of each side,
    ties by id, paired by rank; identity pairs dropped in self-match mode."""
    adj_x = adjacency_reference(pair.x_net)
    adj_y = adjacency_reference(pair.y_net)
    top_x = sorted(pair.x_net.nodes, key=lambda n: (-len(adj_x[n]), n))
    top_y = sorted(pair.y_net.nodes, key=lambda n: (-len(adj_y[n]), n))
    k = min(k, len(top_x), len(top_y))
    ranked = list(zip(top_x[:k], top_y[:k]))
    if pair.self_match_mode:
        ranked = [(x, y) for x, y in ranked if x != y]
    return ranked


def percolate_reference(pair, start, threshold: int, max_steps: int):
    """Percolation with one dict count per candidate pair and round.

    The seeds ``start`` are taken in order, each unless an earlier one
    took its x or its y. Each round counts, for every unmatched (x, y),
    the current pairs that join a neighbour of x to a neighbour of y, then
    accepts pairs with count >= threshold greedily by highest count, ties
    by (x, y) id order. Stops after ``max_steps`` rounds or a round that
    adds nothing.
    """
    xs = sorted(pair.x_net.nodes)
    ys = sorted(pair.y_net.nodes)
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    ny = len(ys)
    adj_raw_x = adjacency_reference(pair.x_net)
    adj_raw_y = adjacency_reference(pair.y_net)
    adj_x = [[xi[v] for v in adj_raw_x[x]] for x in xs]
    adj_y = [[yi[v] for v in adj_raw_y[y]] for y in ys]
    self_mode = pair.self_match_mode

    current: set[tuple[int, int]] = set()
    matched_x: set[int] = set()
    matched_y: set[int] = set()
    for x, y in start:
        key = (xi[x], yi[y])
        if key[0] in matched_x or key[1] in matched_y:
            continue  # a seed whose x or y an earlier seed took
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
        eligible = sorted((-c, key) for key, c in counts.items() if c >= threshold)
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


def canonical_edges_reference(nodes, edges):
    """make_network's checks and canonicalization as one loop over string
    edges: (node set, edge set with u < v). Raises ValueError naming the
    first bad token instead of MatchcertError."""
    node_set = frozenset(nodes)
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop")
        if u not in node_set or v not in node_set:
            raise ValueError("unknown-node")
        canon.add((u, v) if u < v else (v, u))
    return node_set, frozenset(canon)


def csr_reference(nodes, edges):
    """(ids, indptr, nbr) as lists: ids sorted, each row's neighbour
    positions sorted, from per-node adjacency lists."""
    ids = sorted(nodes)
    at = {node: i for i, node in enumerate(ids)}
    rows = [[] for _ in ids]
    for u, v in edges:
        rows[at[u]].append(at[v])
        rows[at[v]].append(at[u])
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return ids, indptr, [j for row in rows for j in sorted(row)]


def two_sort_csr_reference(n: int, u: np.ndarray, v: np.ndarray):
    """(indptr, nbr) of ``NodeIndex.build`` over n nodes by the two sorts
    it once made: one key ``lo * n + hi`` per distinct edge, split by
    ``np.divmod``, then both directions of each sorted as arc keys."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique(lo * n + hi)
    lo, hi = np.divmod(keys, n)
    arcs = np.sort(np.concatenate([keys, hi * n + lo]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(arcs // n, minlength=n), out=indptr[1:])
    return indptr, arcs % n


def generate_pair_reference(cfg):
    """synth.generate_pair through string ids: every node and edge named,
    then validated by make_network and make_match_set."""
    from matchcert.graphs import NetworkPair, make_match_set, make_network
    from matchcert.sampling import spawn_rng
    from matchcert.synth import ATTR_KEY, NOISE_MARK, _base_edges

    def copy(prefix, base, n, drop, retain, attrs_for, rng_nodes, rng_edges):
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
        edges = [(names[u], names[v]) for u, v in kept_edges.tolist()]
        attrs = {names[i]: {ATTR_KEY: attrs_for[i]} for i in names}
        return set(names), make_network(names.values(), edges, attrs)

    rngs = [spawn_rng(cfg.rng_seed, k) for k in range(6)]
    base = _base_edges(cfg, rngs[0])
    n = cfg.n_entities
    noisy = rngs[5].random(n) < cfg.attr_noise
    x_attr = {i: str(i) for i in range(n)}
    y_attr = {i: str(i) + (NOISE_MARK if noisy[i] else "") for i in range(n)}
    x_ids, x_net = copy("x", base, n, cfg.node_drop_x, cfg.edge_retain_x,
                        x_attr, rngs[1], rngs[2])
    y_ids, y_net = copy("y", base, n, cfg.node_drop_y, cfg.edge_retain_y,
                        y_attr, rngs[3], rngs[4])
    pair = NetworkPair(x_net, y_net)
    truth = make_match_set(
        [(f"x{i}", f"y{i}") for i in sorted(x_ids & y_ids)],
        pair,
    )
    return pair, truth


def by_x_reference(ms) -> dict[str, frozenset[str]]:
    """The per-x grouping of a match set's string pairs, by one dict walk."""
    acc: dict[str, set[str]] = {}
    for x, y in ms.pairs:
        acc.setdefault(x, set()).add(y)
    return {x: frozenset(ys) for x, ys in acc.items()}


def true_batch_metrics_reference(pair, m_hat, m_true):
    """batch.true_batch_metrics by string set arithmetic."""
    hit = len(m_hat.pairs & m_true.pairs)
    precision = hit / len(m_hat.pairs) if m_hat.pairs else None
    recall = hit / len(m_true.pairs) if m_true.pairs else None
    return precision, recall


def true_query_metrics_reference(pair, m_hat, m_true):
    """query.true_query_metrics by walking the per-x dicts; means by fsum,
    so the result does not depend on the dicts' iteration order."""
    from math import fsum

    hat = by_x_reference(m_hat)
    true = by_x_reference(m_true)
    empty = frozenset()
    p_vals = [len(ys & true.get(x, empty)) / len(ys) for x, ys in hat.items()]
    r_vals = [len(ys & hat.get(x, empty)) / len(ys) for x, ys in true.items()]
    precision = fsum(p_vals) / len(p_vals) if p_vals else None
    recall = fsum(r_vals) / len(r_vals) if r_vals else None
    return precision, recall


def true_error_rate_reference(pair, m_hat, m_true):
    """query.true_error_rate by comparing the per-x sets of every node."""
    hat = by_x_reference(m_hat)
    true = by_x_reference(m_true)
    empty = frozenset()
    wrong = sum(1 for x in pair.x_net.nodes if hat.get(x, empty) != true.get(x, empty))
    return wrong / len(pair.x_net.nodes)


# Per-node statistics of one x, from its identified and actual sets (or its
# holdout and complete sets): the definitions query.query_columns computes as
# columns over match-set keys.


def single_node_precision(m_hat: frozenset, actual: frozenset) -> float | None:
    """|identified ∩ actual| / |identified|; None when nothing identified."""
    if not m_hat:
        return None
    return len(m_hat & actual) / len(m_hat)


def single_node_recall(m_hat: frozenset, actual: frozenset) -> float | None:
    """|identified ∩ actual| / |actual|; None when no actual matches."""
    if not actual:
        return None
    return len(m_hat & actual) / len(actual)


def single_node_error(m_hat: frozenset, actual: frozenset) -> int:
    """1 when the identified and actual sets differ at all, else 0."""
    return int(m_hat != actual)


def disagreement_recall(holdout: frozenset, complete: frozenset) -> float:
    """d_r(x): 1 when the holdout matcher found a pair the complete one lost."""
    return 1.0 if holdout - complete else 0.0


def disagreement_precision(holdout: frozenset, complete: frozenset) -> float:
    """d_p(x): per-node precision damage of switching holdout -> complete.

    Zero when both matchers are silent for x or agree exactly; 1 when only
    the holdout matcher speaks; 1 + |holdout-only| / |complete| when both
    speak but differ.
    """
    if not holdout or holdout == complete:
        return 0.0
    if not complete:
        return 1.0
    return 1.0 + len(holdout - complete) / len(complete)


def _lines(path):
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw == "" or raw.isspace():
            continue
        yield lineno, raw


def load_network_reference(path):
    """graphs.load_network as one walk over the lines, checking each in
    turn, then make_network."""
    from matchcert.graphs import make_network

    declared: set[str] = set()
    implicit: set[str] = set()
    edge_rows: list[tuple[int, str, str]] = []
    attrs: dict[str, dict[str, str]] = {}
    for lineno, raw in _lines(path):
        if raw.startswith("#node\t"):
            fields = raw.split("\t")
            if len(fields) != 2 or not fields[1]:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            declared.add(fields[1])
        elif raw.startswith("#attr\t"):
            fields = raw.split("\t")
            if len(fields) != 4:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            _, node, key, value = fields
            attrs.setdefault(node, {})[key] = value
            implicit.add(node)
        elif raw.startswith("#"):
            continue
        else:
            fields = raw.split("\t")
            if len(fields) != 2:
                raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
            u, v = fields
            if u == v:
                raise MatchcertError(f"self-loop: {path}:{lineno}: {raw!r}")
            edge_rows.append((lineno, u, v))
            implicit.update((u, v))
    if declared:
        dangling = implicit - declared
        if dangling:
            raise MatchcertError(
                f"unknown-node: {sorted(dangling)[0]!r} used but not declared in {path}"
            )
        nodes = declared
    else:
        nodes = implicit
    return make_network(nodes, [(u, v) for _, u, v in edge_rows], attrs)


def read_pairs_reference(path):
    """graphs.read_pairs as one walk over the lines."""
    rows = []
    for lineno, raw in _lines(path):
        if raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise MatchcertError(f"malformed-line: {path}:{lineno}: {raw!r}")
        rows.append((fields[0], fields[1]))
    return rows


def read_items_reference(path):
    """graphs.read_items as one walk over the lines."""
    return [raw for _, raw in _lines(path) if not raw.startswith("#")]
