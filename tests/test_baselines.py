import numpy as np

from qrepsim.baselines import (owner_replicate, path_replicate, place_replica,
                               random_replicate)
from qrepsim.search import QueryOutcome

from helpers import build_network, line_network


def _success(path, probes=None):
    return QueryOutcome(True, path[-1], tuple(path), len(path) - 1,
                        probes if probes is not None else len(path))


def test_owner_places_at_requester_only():
    net = line_network(3, capacity=3.0)
    net.store_object(2, 0, 0, original=True)
    placed = owner_replicate(net, _success([0, 1, 2]), 0, now_ms=5)
    assert placed == [0]
    assert net.holds[0, 0] and not net.holds[0, 1]


def test_owner_skips_existing_holder():
    net = line_network(2)
    net.store_object(0, 0, 0)
    assert owner_replicate(net, _success([0, 1]), 0, now_ms=5) == []


def test_owner_skips_when_nothing_evictable():
    net = line_network(2, n_objects=2, capacity=1.0)
    net.store_object(0, 1, 0, original=True)     # full of an original
    assert owner_replicate(net, _success([0, 1]), 0, now_ms=5) == []


def test_path_covers_path_except_provider():
    net = line_network(3, capacity=3.0)
    net.store_object(2, 0, 0, original=True)
    placed = path_replicate(net, _success([0, 1, 2]), 0, now_ms=5)
    assert placed == [1, 0]                      # provider-side first
    assert not net.original[0, 1]


def test_path_local_hit_no_placements():
    net = line_network(2)
    net.store_object(0, 0, 0)
    assert path_replicate(net, _success([0]), 0, now_ms=5) == []


def test_path_skips_holders():
    net = line_network(3, capacity=3.0)
    net.store_object(2, 0, 0, original=True)
    net.store_object(1, 0, 0)
    placed = path_replicate(net, _success([0, 1, 2]), 0, now_ms=5)
    assert placed == [0]


def test_random_count_matches_path_rule():
    adj = {i: [j for j in range(6) if j != i] for i in range(6)}
    net = build_network(adj, capacity=4.0)
    net.store_object(5, 0, 0, original=True)
    rng = np.random.default_rng(3)
    visited = np.array([0, 1, 2, 3, 4, 5])
    placed = random_replicate(net, _success([0, 3, 5], probes=6), 0, visited, rng, 5)
    assert len(placed) == 2                      # |path| - 1
    assert all(not net.original[0, v] for v in placed)
    assert len(set(placed)) == 2 and 5 not in placed


def test_random_local_hit_no_placements():
    net = line_network(2)
    net.store_object(0, 0, 0)
    rng = np.random.default_rng(0)
    assert random_replicate(net, _success([0]), 0, np.array([0]), rng, 5) == []


def test_random_clamps_to_eligible_pool():
    net = line_network(3, capacity=3.0)
    net.store_object(2, 0, 0, original=True)
    net.store_object(1, 0, 0)                    # only node 0 remains eligible
    rng = np.random.default_rng(0)
    placed = random_replicate(net, _success([0, 1, 2]), 0, np.array([0, 1, 2]), rng, 5)
    assert placed == [0]


def test_random_never_exceeds_path_on_clean_outcomes():
    rng = np.random.default_rng(8)
    for trial in range(30):
        n = 8
        adj = {i: [j for j in range(n) if j != i] for i in range(n)}
        net_a = build_network(adj, capacity=6.0)
        net_b = build_network(adj, capacity=6.0)
        plen = int(rng.integers(2, 5))
        path = list(rng.choice(n, size=plen, replace=False))
        provider = path[-1]
        for net in (net_a, net_b):
            net.store_object(provider, 0, 0, original=True)
        visited = np.arange(n)
        outcome = _success(path, probes=n)
        n_path = len(path_replicate(net_a, outcome, 0, 5))
        n_rand = len(random_replicate(net_b, outcome, 0, visited,
                                      np.random.default_rng(trial), 5))
        assert n_rand <= n_path == len(path) - 1


def test_place_replica_refuses_duplicates():
    net = line_network(2, capacity=2.0)
    assert place_replica(net, 0, 0, 1)
    assert not place_replica(net, 0, 0, 2)       # already holds
