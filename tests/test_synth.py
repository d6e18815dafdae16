import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from oracles import csr_reference, generate_pair_reference

from matchcert.errors import MatchcertError
from matchcert.graphs import by_x
from matchcert.synth import (
    ErdosRenyi,
    GeneratorConfig,
    PreferentialAttachment,
    _universe,
    generate_pair,
)


def test_no_noise_identical_copies():
    cfg = GeneratorConfig(n_entities=40, base_model=ErdosRenyi(0.1), rng_seed=1)
    pair, truth = generate_pair(cfg)
    assert len(pair.x_net.nodes) == 40
    assert len(pair.y_net.nodes) == 40
    assert len(truth.pairs) == 40
    assert len(pair.x_net.edges) == len(pair.y_net.edges)
    # identity correspondence: entity index is shared
    for x, y in truth.pairs:
        assert x[1:] == y[1:]
        assert pair.x_net.attrs[x]["uid"] == x[1:]


def test_all_dropped_is_degenerate():
    cfg = GeneratorConfig(
        n_entities=10, base_model=ErdosRenyi(0.2), node_drop_x=1.0, rng_seed=2
    )
    with pytest.raises(MatchcertError, match="degenerate-config"):
        generate_pair(cfg)


def test_seed_determinism():
    cfg = GeneratorConfig(
        n_entities=80,
        base_model=ErdosRenyi(0.06),
        edge_retain_x=0.8,
        edge_retain_y=0.7,
        node_drop_x=0.1,
        node_drop_y=0.15,
        attr_noise=0.2,
        rng_seed=77,
    )
    p1, m1 = generate_pair(cfg)
    p2, m2 = generate_pair(cfg)
    assert p1 == p2
    assert m1.pairs == m2.pairs
    p3, _ = generate_pair(
        GeneratorConfig.from_json_dict({**cfg.to_json_dict(), "rng_seed": 78})
    )
    assert p3 != p1


def test_truth_size_matches_joint_survivors():
    cfg = GeneratorConfig(
        n_entities=200,
        base_model=ErdosRenyi(0.03),
        node_drop_x=0.2,
        node_drop_y=0.2,
        rng_seed=3,
    )
    pair, truth = generate_pair(cfg)
    x_idx = {n[1:] for n in pair.x_net.nodes}
    y_idx = {n[1:] for n in pair.y_net.nodes}
    assert len(truth.pairs) == len(x_idx & y_idx)
    # some x nodes must have no actual match, so the matched-node subset of
    # X is strictly smaller than X
    matched_x = set(by_x(truth))
    assert matched_x < pair.x_net.nodes


def test_attr_noise_corrupts_y_only():
    cfg = GeneratorConfig(
        n_entities=300, base_model=ErdosRenyi(0.01), attr_noise=0.3, rng_seed=4
    )
    pair, truth = generate_pair(cfg)
    corrupted = [
        y for y in pair.y_net.nodes if pair.y_net.attrs[y]["uid"].endswith("~")
    ]
    frac = len(corrupted) / len(pair.y_net.nodes)
    assert 0.2 < frac < 0.4
    for x in pair.x_net.nodes:
        assert not pair.x_net.attrs[x]["uid"].endswith("~")


def test_preferential_attachment_shape():
    cfg = GeneratorConfig(
        n_entities=120, base_model=PreferentialAttachment(2), rng_seed=5
    )
    pair, _ = generate_pair(cfg)
    # m edges per newcomer plus the seed clique
    assert len(pair.x_net.edges) == 3 + (120 - 3) * 2


def test_config_json_roundtrip():
    cfg = GeneratorConfig(
        n_entities=50,
        base_model=PreferentialAttachment(3),
        edge_retain_x=0.9,
        attr_noise=0.05,
        rng_seed=11,
    )
    assert GeneratorConfig.from_json_dict(cfg.to_json_dict()) == cfg


def _reference_configs():
    rng = random.Random(20261018)
    configs = []
    for k in range(240):
        n = rng.choice([2, 3, 5, 10, 11, 99, 100, 101]) if k % 3 else rng.randint(2, 300)
        if k % 2:
            model = ErdosRenyi(rng.choice([0.0, 1.0, rng.uniform(0.0, 0.3)]))
        else:
            model = PreferentialAttachment(rng.randint(1, 4))
        configs.append(GeneratorConfig(
            n_entities=n,
            base_model=model,
            edge_retain_x=rng.choice([0.0, 1.0, rng.random()]),
            edge_retain_y=rng.choice([0.0, 1.0, rng.random()]),
            node_drop_x=rng.choice([0.0, 0.9, rng.uniform(0.0, 0.9)]),
            node_drop_y=rng.choice([0.0, 0.9, rng.uniform(0.0, 0.9)]),
            attr_noise=rng.choice([0.0, 1.0, rng.random()]),
            rng_seed=rng.randint(0, 2**32),
        ))
    return configs


def _assert_equals_reference(pair, truth, ref_pair, ref_truth, n):
    for prefix, net, ref in (
        ("x", pair.x_net, ref_pair.x_net), ("y", pair.y_net, ref_pair.y_net)
    ):
        assert net.nodes == ref.nodes
        assert net.edges == ref.edges
        assert dict(net.attrs) == ref.attrs
        assert list(net.attrs) == list(ref.attrs)
        assert net.index.ids == ref.index.ids
        # every id of the universe, kept or dropped, and foreign strings
        # resolve as a dict over the reference's ids resolves them
        probe = [f"{prefix}{i}" for i in range(n)] + [prefix, f"{prefix}{n}", "z0", ""]
        want = {node: i for i, node in enumerate(ref.index.ids)}
        assert net.index.positions(probe).tolist() == [want.get(x, -1) for x in probe]
        assert net.index.indptr.tolist() == ref.index.indptr.tolist()
        assert net.index.nbr.tolist() == ref.index.nbr.tolist()
        ids, indptr, nbr = csr_reference(ref.nodes, ref.edges)
        assert (net.index.ids, net.index.indptr.tolist(), net.index.nbr.tolist()) == (
            ids, indptr, nbr)
    assert pair == ref_pair
    assert truth == ref_truth
    assert truth.sorted_pairs == tuple(sorted(ref_truth.pairs))


def test_generate_pair_matches_string_reference():
    seen = {"er": 0, "pa": 0, "retain0": 0, "retain1": 0, "drop0": 0,
            "drop_high": 0, "noise": 0, "ids_sort_apart": 0, "degenerate": 0}
    for cfg in _reference_configs():
        try:
            ref_pair, ref_truth = generate_pair_reference(cfg)
        except MatchcertError as e:
            with pytest.raises(MatchcertError, match=str(e)):
                generate_pair(cfg)
            seen["degenerate"] += 1
            continue
        pair, truth = generate_pair(cfg)
        _assert_equals_reference(pair, truth, ref_pair, ref_truth, cfg.n_entities)
        seen["er" if isinstance(cfg.base_model, ErdosRenyi) else "pa"] += 1
        seen["retain0"] += 0.0 in (cfg.edge_retain_x, cfg.edge_retain_y)
        seen["retain1"] += 1.0 in (cfg.edge_retain_x, cfg.edge_retain_y)
        seen["drop0"] += 0.0 in (cfg.node_drop_x, cfg.node_drop_y)
        seen["drop_high"] += max(cfg.node_drop_x, cfg.node_drop_y) >= 0.9
        seen["noise"] += any(
            pair.y_net.attrs[y]["uid"].endswith("~") for y in pair.y_net.nodes
        )
        # string order differs from entity order once an id has two digits
        entities = [int(x[1:]) for x in pair.x_net.index.ids]
        seen["ids_sort_apart"] += entities != sorted(entities)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101])
def test_universe_table(n):
    for prefix in ("x", "y"):
        universe = _universe(prefix, n)
        names, sorted_names, rank, order = universe
        assert names == tuple(f"{prefix}{i}" for i in range(n))
        assert sorted_names == tuple(sorted(names))
        assert rank == {node: i for i, node in enumerate(sorted_names)}
        assert order.dtype == np.int64
        assert [names[i] for i in order.tolist()] == list(sorted_names)
        assert type(names) is tuple and type(sorted_names) is tuple
        with pytest.raises(ValueError):
            order[0] = 0
        assert _universe(prefix, n) is universe  # the memo's own entry


@pytest.mark.parametrize("n", [2, 9, 10, 11, 100, 101])
def test_generate_pair_equals_reference_on_cache_miss_and_hit(n):
    # n = 1 is no valid config (test_universe_table covers its ids)
    cfg = GeneratorConfig(
        n_entities=n, base_model=ErdosRenyi(0.3), edge_retain_x=0.8,
        edge_retain_y=0.7, node_drop_x=0.2, node_drop_y=0.3, attr_noise=0.4,
        rng_seed=n,
    )
    ref_pair, ref_truth = generate_pair_reference(cfg)
    generate_pair(replace(cfg, n_entities=n + 1))  # fills the cache with n + 1
    before = _universe.cache_info()
    first = generate_pair(cfg)
    missed = _universe.cache_info()
    second = generate_pair(cfg)
    hit = _universe.cache_info()
    assert (missed.misses - before.misses, missed.hits - before.hits) == (2, 0)
    assert (hit.misses - missed.misses, hit.hits - missed.hits) == (0, 2)
    assert hit.currsize == hit.maxsize == 2
    for pair, truth in (first, second):
        _assert_equals_reference(pair, truth, ref_pair, ref_truth, n)


def test_pairs_of_one_config_share_one_id_table_per_universe():
    cfg = GeneratorConfig(
        n_entities=50, base_model=ErdosRenyi(0.1), node_drop_x=0.3,
        node_drop_y=0.2, rng_seed=4,
    )
    (a, _), (b, _) = generate_pair(cfg), generate_pair(replace(cfg, rng_seed=5))
    assert a.x_net.index.ids != b.x_net.index.ids  # other survivors
    assert a.x_net.index.rank is b.x_net.index.rank
    assert a.y_net.index.rank is b.y_net.index.rank
    assert a.x_net.index.rank is not a.y_net.index.rank
    assert a.x_net.index.rank is _universe("x", 50).rank


def test_generated_attributes_behave_as_a_dict():
    cfg = GeneratorConfig(
        n_entities=30, base_model=ErdosRenyi(0.2), attr_noise=0.5, rng_seed=9
    )
    pair, _ = generate_pair(cfg)
    ref_pair, _ = generate_pair_reference(cfg)
    attrs = pair.y_net.attrs
    assert len(attrs) == len(pair.y_net.nodes) == len(list(attrs))
    assert attrs == ref_pair.y_net.attrs and ref_pair.y_net.attrs == attrs
    assert repr(attrs) == repr(dict(attrs))
    assert pickle.loads(pickle.dumps(pair)) == pair
