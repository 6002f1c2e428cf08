import random

import numpy as np
import pytest

from qrepsim.baselines import place_replica
from qrepsim.errors import ConfigurationError
from qrepsim.qrep import (QRepParams, apply_round_updates, build_q_table,
                          compute_reward, evict_for_space, init_q_value,
                          record_visits, refresh_due, replicate_object,
                          run_replication_round, scan_for_replication,
                          select_target_sites, update_popularities,
                          update_q_down, update_q_placed)

from helpers import build_network, make_ctx, star_network, stored_size

P = QRepParams()


# -- params validation --------------------------------------------------------

def test_params_defaults_valid():
    P.validate()


@pytest.mark.parametrize("bad", [
    dict(eta=0.0), dict(eta=1.0), dict(alpha=1.5),
    dict(w1=0.5, w2=0.5, w3=0.0),              # w3 not positive
    dict(w1=0.3, w2=0.4, w3=0.3),              # w2 not strictly smallest
    dict(w1=0.5, w2=0.2, w3=0.5),              # sum != 1
    dict(b_min=0.0), dict(d_min=-1.0), dict(p_th=-2.0),
    dict(update_every=0), dict(hello_ttl=0),
])
def test_params_invariants_rejected(bad):
    with pytest.raises(ConfigurationError):
        QRepParams(**bad).validate()


# -- request counting and popularity -------------------------------------------

def test_record_request_held_and_absent():
    net = build_network({0: []}, n_objects=2)
    net.store_object(0, 0, 0)
    record_visits(net, [0], 0)
    record_visits(net, [0], 1)
    assert net.n_q[0] == 2
    assert net.rq[0] == {0: 1}                    # object 1 is not held: no key


def test_batched_visit_counting_matches_scalar():
    adj = {i: [(i + 1) % 6] for i in range(6)}
    net_a = build_network(adj, n_objects=2)
    net_b = build_network(adj, n_objects=2)
    for net in (net_a, net_b):
        net.store_object(2, 0, 0)
        net.store_object(4, 1, 0)
    visited = [0, 2, 4, 5]
    record_visits(net_a, visited, 0)
    for v in visited:
        record_visits(net_b, [v], 0)
    for net in (net_a, net_b):
        assert net.n_q == [1, 0, 1, 0, 1, 1]
        assert net.rq == [{}, {}, {0: 1}, {}, {}, {}]
    record_visits(net_a, [4, 0], 1)
    assert net_a.n_q == [2, 0, 1, 0, 2, 1]
    assert net_a.rq == [{}, {}, {0: 1}, {}, {1: 1}, {}]


def test_popularity_update_worked_examples():
    net = build_network({0: []}, n_objects=1)
    net.store_object(0, 0, 0)
    net.rq[0][0], net.n_q[0] = 5, 50
    update_popularities(net, 0, P)
    assert net.pf[0, 0] == pytest.approx(5.0, abs=1e-12)   # 0 + 0.5*(5/50)*100

    net.pf[0, 0] = 5.0
    net.rq[0][0], net.n_q[0] = 50, 50
    update_popularities(net, 0, P)
    assert net.pf[0, 0] == pytest.approx(55.0, abs=1e-12)  # 5 + 0.5*100


def test_popularity_zero_requests_for_object_unchanged():
    net = build_network({0: []}, n_objects=2)
    net.store_object(0, 0, 0)
    net.pf[0, 0] = 3.0
    net.n_q[0] = 40                      # traffic seen, none for object 0
    update_popularities(net, 0, P)
    assert net.pf[0, 0] == 3.0


def test_popularity_noop_without_window_traffic():
    net = build_network({0: []}, n_objects=1)
    net.store_object(0, 0, 0)
    net.pf[0, 0] = 2.0
    update_popularities(net, 0, P)       # N_q == 0
    assert net.pf[0, 0] == 2.0


def test_refresh_due_updates_only_full_windows():
    net = build_network({0: [1], 1: [2], 2: []}, n_objects=1)
    for v in range(3):
        net.store_object(v, 0, 0)
    net.rq[:], net.n_q[:] = [{0: 5}, {0: 5}, {0: 5}], [50, 49, 50]
    assert refresh_due(net, [2, 1], P) == 1        # node 0 was not visited
    assert net.pf[0].tolist() == [0.0, 0.0, 5.0]
    assert net.n_q == [50, 49, 0] and net.rq == [{0: 5}, {0: 5}, {}]


def test_visit_counters_match_a_numpy_recount():
    """After every record_visits + refresh_due pair, the counters, the
    popularities and the due count equal a plain numpy recount. Stores
    change between queries, and holders sit anywhere in a visited set."""
    rng = np.random.default_rng(12)
    n, m = 16, 5
    net = build_network({v: [(v + 1) % n] for v in range(n)}, n_objects=m,
                        capacity=float(m))
    for obj, node in zip(*np.nonzero(rng.random((m, n)) < 0.3)):
        net.store_object(int(node), int(obj), 0)
    params = QRepParams(update_every=3)
    n_q = np.zeros(n, dtype=np.int64)
    rq = np.zeros((m, n), dtype=np.int64)
    pf = np.zeros((m, n))
    refreshed = 0
    for _ in range(400):
        obj, node = int(rng.integers(m)), int(rng.integers(n))
        if rng.random() < 0.2:                    # a store or an eviction resets the cell
            if net.holds[obj, node]:
                net.remove_object(node, obj)
            else:
                net.store_object(node, obj, 0)
            rq[obj, node] = 0
            pf[obj, node] = 0.0
        visited = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
        record_visits(net, visited, obj)
        due = refresh_due(net, visited, params)

        n_q[visited] += 1
        rq[obj, visited] += net.holds[obj, visited]
        expected_due = 0
        for v in visited:
            if n_q[v] >= params.update_every:
                held = net.holds[:, v]
                pf[held, v] += params.eta * (rq[held, v] / n_q[v]) * 100.0
                rq[:, v] = 0
                n_q[v] = 0
                expected_due += 1
        assert due == expected_due
        assert net.n_q == n_q.tolist()
        assert net.rq == [{int(o): int(rq[o, v]) for o in np.nonzero(rq[:, v])[0]}
                          for v in range(n)]
        assert net.pf.tobytes() == pf.tobytes()
        refreshed += due
    assert refreshed > 100 and pf.max() > 0


def test_popularity_window_counters_reset():
    net = build_network({0: []}, n_objects=1)
    net.store_object(0, 0, 0)
    net.rq[0][0], net.n_q[0] = 7, 50
    update_popularities(net, 0, P)
    assert net.rq[0] == {} and net.n_q[0] == 0


def test_popularity_monotone_nonnegative():
    rng = random.Random(4)
    net = build_network({0: []}, n_objects=3, capacity=5.0)
    for o in range(3):
        net.store_object(0, o, 0)
    for _ in range(50):
        total = 0
        for o in range(3):
            r = rng.randrange(0, 5)
            net.rq[0][o] = net.rq[0].get(o, 0) + r
            total += r
        net.n_q[0] = total + rng.randrange(0, 10)
        before = net.pf[:, 0].copy()
        update_popularities(net, 0, P)
        assert (net.pf[:, 0] >= before - 1e-15).all()
        assert (net.pf[:, 0] >= 0).all()


def test_scan_threshold_boundary_and_status():
    net = build_network({0: []}, n_objects=3, capacity=5.0)
    for o in range(3):
        net.store_object(0, o, 0)
    net.pf[0, 0] = 5.0
    net.pf[1, 0] = 4.999
    net.pf[2, 0] = 9.0
    net.replicated[2, 0] = True
    assert scan_for_replication(net, 0, P, now_ms=1) == [0]
    allow = QRepParams(rereplicate_on_threshold=True)
    assert scan_for_replication(net, 0, allow, now_ms=1) == [2, 0]   # by popularity


def test_scan_skips_copies_stored_at_or_after_now():
    # p_th = 0: a copy stored during this scan (popularity 0) waits for the next
    net = build_network({0: []}, n_objects=3, capacity=5.0)
    net.store_object(0, 0, now_ms=10)
    net.store_object(0, 1, now_ms=60_000)
    net.store_object(0, 2, now_ms=70_000)
    params = QRepParams(p_th=0.0)
    assert scan_for_replication(net, 0, params, now_ms=60_000) == [0]
    assert scan_for_replication(net, 0, params, now_ms=120_000) == [0, 1, 2]


# -- Q-value initialization and table -------------------------------------------

def test_init_q_value_examples():
    assert init_q_value(P.b_min, P.s_min, P) == pytest.approx(200.0)
    assert init_q_value(2 * P.b_min, 3 * P.s_min, P) == pytest.approx(500.0)
    assert init_q_value(P.b_min, 0.0, P) == pytest.approx(100.0)


def test_build_q_table_initializes_from_responses():
    net = star_network(leaves=2, bandwidth=[0.0, 56.0, 112.0], capacity=[9.0, 1.0, 2.0])
    params = QRepParams(hello_ttl=1, hello_walkers=2)
    table = build_q_table(net, make_ctx(net), 0, params)
    assert table[1] == pytest.approx(200.0)      # (56/56 + 1/1) * 100
    assert table[2] == pytest.approx(400.0)      # (112/56 + 2/1) * 100


def test_build_q_table_empty_when_alone():
    net = star_network(leaves=2, up=[True, False, False])
    table = build_q_table(net, make_ctx(net), 0, P)
    assert table == {}


def test_build_q_table_preserves_learned_values():
    net = star_network(leaves=2)
    params = QRepParams(hello_ttl=1, hello_walkers=2)
    build_q_table(net, make_ctx(net), 0, params)
    net.q_tables[0][1] = 777.0
    build_q_table(net, make_ctx(net), 0, params)
    assert net.q_tables[0][1] == 777.0


# -- target selection ------------------------------------------------------------

def _net_with_table(qvals, n_objects=1):
    adj = {i: [] for i in range(len(qvals) + 1)}
    adj[0] = list(range(1, len(qvals) + 1))
    net = build_network(adj, n_objects=n_objects, capacity=5.0)
    net.q_tables[0] = {i + 1: q for i, q in enumerate(qvals)}
    return net


def test_select_mean_filter():
    net = _net_with_table([100.0, 200.0, 300.0])
    targets, probes = select_target_sites(net, 0, 0, P, now_ms=0)
    assert targets == [3, 2]                      # q >= 200, best first
    assert [s for _, s in probes] == ["selected", "selected"]


def test_select_excludes_holders_and_down():
    net = _net_with_table([300.0, 300.0, 300.0])
    net.store_object(2, 0, 0)                     # peer 2 holds the object
    net.up[3] = False
    targets, probes = select_target_sites(net, 0, 0, P, now_ms=0)
    assert targets == [1]
    assert dict(probes) == {1: "selected", 3: "down"}   # the holder is not probed
    stored = replicate_object(net, 0, 0, targets, now_ms=5)
    apply_round_updates(net, 0, probes, stored, P)
    assert net.q_tables[0][2] == 300.0            # the holder keeps its value
    assert net.q_tables[0][3] == update_q_down(300.0, P.alpha)
    assert net.q_tables[0][1] != 300.0            # the placed peer learned


def test_select_all_holders_empty():
    net = _net_with_table([150.0, 150.0])
    net.store_object(1, 0, 0)
    net.store_object(2, 0, 0)
    targets, _ = select_target_sites(net, 0, 0, P, now_ms=0)
    assert targets == []


def test_select_single_entry_is_its_own_mean():
    net = _net_with_table([50.0])
    targets, _ = select_target_sites(net, 0, 0, P, now_ms=0)
    assert targets == [1]


def test_round_with_empty_table_places_nothing():
    # every neighbour is down, so the Hello sweep finds nobody to add
    net = star_network(leaves=3, up=[True, False, False, False])
    net.store_object(0, 0, 0, original=True)
    net.pf[0, 0] = 9.0                            # above p_th, wants copies
    before = (net.holds.copy(), net.free.copy(), net.replicated.copy())
    run_replication_round(net, make_ctx(net), 0, P, now_ms=1_000)
    assert net.q_tables[0] == {}
    after = (net.holds, net.free, net.replicated)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


# -- reward and update ---------------------------------------------------------

def test_reward_worked_example():
    params = QRepParams(w1=0.4, w2=0.2, w3=0.4)
    rho = compute_reward(params.d_min, params.b_min, params.s_min, params)
    assert rho == pytest.approx(1000.0, abs=1e-9)   # (2.5 + 5 + 2.5) * 100


def test_reward_bandwidth_dominates_degree():
    base = compute_reward(P.d_min, P.b_min, P.s_min, P)
    more_bw = compute_reward(P.d_min, 2 * P.b_min, P.s_min, P)
    more_deg = compute_reward(2 * P.d_min, P.b_min, P.s_min, P)
    assert more_bw - base > more_deg - base


def test_reward_zero_storage_term():
    rho = compute_reward(P.d_min, P.b_min, 0.0, P)
    assert rho == pytest.approx((1 / P.w1 + 1 / P.w2) * 100.0)


def test_reward_floor_reading():
    params = QRepParams(w1=0.375, w2=0.25, w3=0.375, b_min=64.0,
                        reward_floor=True)
    # terms 3/(2*0.375)=4.0, 80/(64*0.25)=5.0, 1.8/(1*0.375)=4.8 -> 4+5+4
    assert compute_reward(3, 80.0, 1.8, params) == pytest.approx(1300.0)


def test_update_q_examples():
    assert update_q_placed(200.0, 1000.0, 0.5) == pytest.approx(600.0)
    assert update_q_down(200.0, 0.5) == pytest.approx(100.0)


def test_update_q_fixed_point_and_positivity():
    rng = random.Random(9)
    for _ in range(50):
        q = rng.uniform(0, 5000)
        alpha = rng.uniform(0.01, 0.99)
        assert update_q_placed(q, q, alpha) == q
        rho = rng.uniform(0, 30000)
        assert update_q_placed(q, rho, alpha) >= 0
        assert update_q_down(q, alpha) >= 0


def test_down_punishment_geometric():
    q = 512.0
    for k in range(1, 11):
        q = update_q_down(q, 0.5)
        assert q == 512.0 * 0.5 ** k           # exact for dyadic alpha


# -- eviction ----------------------------------------------------------------------

def test_evict_low_popularity_first():
    net = build_network({0: []}, n_objects=3, capacity=2.0)
    net.store_object(0, 0, now_ms=1_000)      # replica, low popularity, old
    net.store_object(0, 1, now_ms=90_000)     # replica, popular, new
    net.pf[0, 0], net.pf[1, 0] = 1.0, 9.0
    removed = evict_for_space(net, 0, needed=1.0)
    assert removed == [0]
    assert net.holds[1, 0] and not net.holds[0, 0]
    assert net.pf[0, 0] == 0.0                # left the popularity table


def test_evict_tiebreak_oldest_first():
    net = build_network({0: []}, n_objects=2, capacity=2.0)
    net.store_object(0, 0, now_ms=10)         # inserted earlier = larger age
    net.store_object(0, 1, now_ms=500)
    net.pf[:2, 0] = 4.0
    assert evict_for_space(net, 0, needed=1.0) == [0]


def test_evict_tiebreak_lowest_id_first():
    # equal popularity and insertion time: ids decide, whatever the store order
    net = build_network({0: []}, n_objects=3, capacity=3.0)
    for obj in (2, 0, 1):
        net.store_object(0, obj, now_ms=50)
    net.pf[:3, 0] = 4.0
    assert evict_for_space(net, 0, needed=2.0) == [0, 1]
    assert net.holds[2, 0]


def test_evict_noop_with_space():
    net = build_network({0: []}, n_objects=1, capacity=3.0)
    net.store_object(0, 0, 0)
    assert evict_for_space(net, 0, needed=1.0) == []


def test_evict_never_touches_originals():
    net = build_network({0: []}, n_objects=2, capacity=2.0)
    net.store_object(0, 0, 0, original=True)
    net.store_object(0, 1, 0, original=True)
    assert evict_for_space(net, 0, needed=1.0) == []
    assert net.holds[:, 0].all()


def test_evict_oversized_request():
    net = build_network({0: []}, n_objects=1, capacity=2.0)
    assert evict_for_space(net, 0, needed=5.0) == []


def test_oversized_object_keeps_evictable_replicas():
    # object 2 is larger than node 1's whole capacity, though node 1 holds
    # two replicas it could evict: nothing is dropped and nothing is stored
    net = build_network({0: [1], 1: []}, n_objects=3, capacity=[10.0, 5.0],
                        obj_size=[1.0, 1.0, 8.0])
    net.store_object(0, 2, 0, original=True)
    net.store_object(1, 0, now_ms=1)
    net.store_object(1, 1, now_ms=2)
    held = net.holds[:, 1].tolist()
    assert evict_for_space(net, 1, needed=8.0) == []
    assert not place_replica(net, 1, 2, now_ms=3)
    net.q_tables[0] = {1: 300.0}
    targets, _ = select_target_sites(net, 0, 2, P, now_ms=4)
    assert targets == [1]
    net.pf[2, 0] = 9.0                             # above p_th, wants copies
    run_replication_round(net, make_ctx(net), 0, P, now_ms=4)
    assert not net.replicated[2, 0]
    assert net.q_tables[0] == {1: 300.0}
    assert net.holds[:, 1].tolist() == held == [True, True, False]
    assert net.free[1] == 3.0


def test_evict_accounting_balances():
    net = build_network({0: []}, n_objects=4, capacity=3.0)
    for o in range(3):
        net.store_object(0, o, now_ms=o)
    evict_for_space(net, 0, needed=2.0)
    assert stored_size(net, 0) + net.free[0] == net.capacity[0]


# -- transfer ------------------------------------------------------------------------

def test_replicate_two_targets_two_stores():
    net = _net_with_table([300.0, 300.0])
    net.store_object(0, 0, 0, original=True)
    targets, probes = select_target_sites(net, 0, 0, P, now_ms=0)
    stored = replicate_object(net, 0, 0, targets, now_ms=5)
    assert sorted(stored) == [1, 2]
    assert not net.replicated.any()                # only the round marks a copy
    assert net.holds[0, stored].all()
    apply_round_updates(net, 0, probes, stored, P)
    # the reward reads free storage after the store: 5 - 1
    expected = update_q_placed(300.0, compute_reward(net.degree[1], 100.0, 4.0, P),
                               P.alpha)
    assert net.q_tables[0][1] == pytest.approx(expected)
    assert net.q_tables[0][2] == pytest.approx(expected)


def test_round_skips_target_full_of_originals():
    net = _net_with_table([300.0], n_objects=2)
    net.capacity[1] = 1.0
    net.free[1] = 1.0
    net.store_object(1, 0, 0, original=True)      # full with an original
    net.store_object(0, 1, 0, original=True)
    net.pf[1, 0] = 9.0                             # above p_th, wants copies
    table = dict(net.q_tables[0])
    targets, _ = select_target_sites(net, 0, 1, P, now_ms=0)
    assert targets == [1]
    run_replication_round(net, make_ctx(net), 0, P, now_ms=5)
    assert not net.replicated[1, 0]                # retried at the next scan
    assert net.holds[:, 1].tolist() == [True, False]
    assert net.free[1] == 0.0
    assert net.q_tables[0] == table


def test_full_peer_selected_by_two_sources_receives_nothing():
    # both sources select the same peer, full of an original, at two scans:
    # neither places, learns or marks its copy
    net = build_network({0: [1], 1: [2], 2: [], 3: [1]}, n_objects=2, capacity=5.0)
    net.capacity[1] = 1.0
    net.free[1] = 1.0
    net.store_object(1, 1, 0, original=True)      # peer 1 full with an original
    for source in (0, 3):
        net.store_object(source, 0, 0, original=True)
        net.pf[0, source] = 9.0                    # above p_th, wants copies
    net.q_tables[0] = {1: 120.0}
    net.q_tables[3] = {1: 500.0}
    tables = [dict(t) for t in net.q_tables]
    params = QRepParams(hello_ttl=1)               # sweeps reach peer 1 only
    ctx = make_ctx(net)
    delta_ms = int(params.delta * 1000)
    for now_ms in (delta_ms, 2 * delta_ms):       # two scans, both sources in turn
        for source in (0, 3):
            targets, probes = select_target_sites(net, source, 0, params, now_ms)
            assert targets == [1] and probes == [(1, "selected")]
            run_replication_round(net, ctx, source, params, now_ms)
    assert net.holds[:, 1].tolist() == [False, True]
    assert net.free[1] == 0.0
    assert [dict(t) for t in net.q_tables] == tables
    assert not net.replicated[0, 0] and not net.replicated[0, 3]


def test_replicate_evicts_to_make_room():
    net = _net_with_table([300.0], n_objects=2)
    net.capacity[1] = 1.0
    net.free[1] = 1.0
    net.store_object(1, 1, now_ms=1)              # an old replica fills it
    targets, _ = select_target_sites(net, 0, 0, P, now_ms=10)
    assert replicate_object(net, 0, 0, targets, now_ms=10) == [1]
    assert net.holds[0, 1] and not net.holds[1, 1]


def test_replicate_down_target_no_store():
    net = _net_with_table([300.0])
    targets, probes = select_target_sites(net, 0, 0, P, now_ms=0)
    net.up[1] = False                              # goes down before transfer
    stored = replicate_object(net, 0, 0, targets, now_ms=1)
    assert stored == [] and not net.holds[0, 1]
    table_before = dict(net.q_tables[0])
    apply_round_updates(net, 0, probes, stored, P)
    assert net.q_tables[0] == table_before         # skipped target not updated


def test_round_updates_punish_down_leave_others():
    net = _net_with_table([400.0, 400.0, 100.0])
    probes = [(1, "down"), (2, "selected")]
    apply_round_updates(net, 0, probes, [], P)
    assert net.q_tables[0][1] == pytest.approx(200.0)
    assert net.q_tables[0][2] == 400.0             # selected, stored nothing
    assert net.q_tables[0][3] == 100.0             # non-participant untouched


def test_full_round_spreads_popular_object():
    net = star_network(leaves=4, capacity=5.0, n_objects=1)
    net.store_object(0, 0, 0, original=True)
    net.pf[0, 0] = 9.0                             # above threshold
    params = QRepParams(hello_ttl=1, hello_walkers=4)
    run_replication_round(net, make_ctx(net), 0, params, now_ms=1_000)
    placed = np.flatnonzero(net.holds[0])[1:].tolist()
    assert placed
    assert net.replicated[0, 0]
    assert (net.inserted_at[0, placed] == 1_000).all()
    assert not net.original[0, placed].any()


@pytest.mark.parametrize("rereplicate", [False, True])
def test_round_marks_copy_whose_above_mean_peers_all_hold_it(rereplicate):
    net = star_network(leaves=4, n_objects=1)
    net.store_object(0, 0, 0, original=True)
    net.pf[0, 0] = 9.0                             # above threshold
    for peer in (1, 2):
        net.store_object(peer, 0, 0)
    # every leaf is known, so the sweep adds nobody; mean 200, holders above
    net.q_tables[0] = {1: 300.0, 2: 300.0, 3: 100.0, 4: 100.0}
    table = dict(net.q_tables[0])
    holds = net.holds.copy()
    params = QRepParams(hello_ttl=1, hello_walkers=4,
                        rereplicate_on_threshold=rereplicate)
    run_replication_round(net, make_ctx(net), 0, params, now_ms=1_000)
    assert net.replicated[0, 0]
    assert net.q_tables[0] == table
    assert np.array_equal(net.holds, holds)
    assert scan_for_replication(net, 0, params, 2_000) == ([0] if rereplicate else [])


def test_round_without_peers_or_popularity():
    net = star_network(leaves=2, up=[True, False, False])
    net.store_object(0, 0, 0, original=True)
    net.pf[0, 0] = 9.0
    run_replication_round(net, make_ctx(net), 0, P, now_ms=1_000)
    assert net.holds[0].tolist() == [True, False, False]
    net2 = star_network(leaves=2)
    net2.store_object(0, 0, 0, original=True)
    run_replication_round(net2, make_ctx(net2), 0, P, now_ms=1_000)
    assert net2.holds[0].tolist() == [True, False, False]
