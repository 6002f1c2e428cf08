import hashlib
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrepsim import baselines, qrep, search
from qrepsim import sim as sim_module
from qrepsim.cli import emit_csv
from qrepsim.errors import ConfigurationError
from qrepsim.model import Network, place_initial_objects
from qrepsim.qrep import QRepParams, evict_for_space, record_visits
from qrepsim.sim import (InvariantChecker, SimConfig, Simulation, TopologyConfig,
                         apply_churn, collect_metrics, schedule_workload)

from helpers import build_network, line_network, star_network, stored_size


def ring_network(n, **kwargs):
    return build_network({i: [(i + 1) % n] for i in range(n)}, **kwargs)


def run_checked(*args, **kwargs):
    """Run a Simulation with the invariant checker on; it must stay silent."""
    sim = Simulation(*args, check_invariants=True, **kwargs)
    rows = sim.run()
    assert sim.checker.events_checked > 0 and sim.checker.violations == []
    return rows


def snapshot(net):
    return net.holds.copy(), net.free.copy(), net.pf.copy()


def changed_nodes(net, before):
    """Nodes whose holds, free or pf column differs from the snapshot."""
    holds, free, pf = before
    changed = (net.holds != holds).any(axis=0) | (net.free != free) | (net.pf != pf).any(axis=0)
    return set(np.nonzero(changed)[0].tolist())


def record_checks(checker):
    """Wrap the checker's after_event; returns the list it appends
    (now_ms, full) to on every call."""
    calls, check = [], checker.after_event

    def after_event(now_ms, full=False):
        calls.append((now_ms, full))
        check(now_ms, full)

    checker.after_event = after_event
    return calls


# -- config validation ----------------------------------------------------------

def test_config_defaults_valid():
    SimConfig()


@pytest.mark.parametrize("bad", [
    dict(node_count=0), dict(ttl=0), dict(mean_query_interval_s=0.0),
    dict(initial_up_fraction=1.5), dict(strategy="flood"),
    dict(query_popularity="zipf:-1"), dict(query_popularity="pareto"),
    dict(query_popularity="zipf:nan"), dict(query_popularity="zipf:inf"),
    dict(seed=-1), dict(churn_every_queries=-1),
])
def test_config_rejects_invalid(bad):
    with pytest.raises(ConfigurationError):
        SimConfig(**bad)


def test_zipf_profile_parses():
    assert SimConfig(query_popularity="zipf:0.8").popularity_profile() == ("zipf", 0.8)


@pytest.mark.parametrize("config, bad", [
    (SimConfig(), dict(ttl=0)),
    (QRepParams(), dict(eta=1.0)),
    (TopologyConfig(), dict(avg_degree=1.0)),
], ids=["SimConfig", "QRepParams", "TopologyConfig"])
def test_replace_rechecks_config(config, bad):
    # `replace` builds a new object, so the checks run again
    with pytest.raises(ConfigurationError):
        replace(config, **bad)


def test_simulation_defaults_params_and_topology():
    cfg = SimConfig(node_count=60, queries_per_node=5, object_count=5,
                    metrics_window_queries=100, seed=9)
    sim = Simulation(cfg)
    assert sim.params == QRepParams() and sim.topology == TopologyConfig()
    rows = sim.run()
    assert rows and rows == Simulation(cfg, QRepParams(), TopologyConfig()).run()


# -- workload ---------------------------------------------------------------------

def test_single_node_strictly_increasing():
    net = build_network({0: []})
    cfg = SimConfig(node_count=1, queries_per_node=3, object_count=1)
    times, origins, targets = schedule_workload(cfg, net, np.random.default_rng(0))
    assert len(times) == 3
    assert (np.diff(times) > 0).all()
    assert (origins == 0).all()


def test_full_population_event_count():
    net = ring_network(1000)
    cfg = SimConfig(node_count=1000, queries_per_node=100, initial_up_fraction=1.0)
    times, origins, _ = schedule_workload(cfg, net, np.random.default_rng(1))
    assert len(times) == 100_000
    assert (np.diff(times) >= 0).all()            # globally time-sorted


def test_down_at_schedule_excluded():
    net = ring_network(10)
    net.up[:5] = False
    cfg = SimConfig(node_count=10, queries_per_node=4, object_count=5)
    times, origins, _ = schedule_workload(cfg, net, np.random.default_rng(2))
    assert len(times) == 20
    assert set(origins.tolist()) <= set(range(5, 10))


def test_workload_deterministic():
    net = ring_network(50)
    cfg = SimConfig(node_count=50, queries_per_node=10)
    a = schedule_workload(cfg, net, np.random.default_rng(7))
    b = schedule_workload(cfg, net, np.random.default_rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_schedule_memory_stays_near_its_output():
    # 800 up nodes x 100 queries: the output takes 16 B a query (int64
    # times, int32 ids); a build whose temporaries outlive their use, or
    # whose ids are int64, peaks at 56 B a query
    cfg = SimConfig(seed=77)
    net = Simulation(cfg).net
    tracemalloc.start()
    try:
        times, origins, targets = schedule_workload(cfg, net, np.random.default_rng(77))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(times) == 80_000
    assert peak <= 36 * len(times), peak / len(times)
    assert times.dtype == np.int64
    assert origins.dtype == targets.dtype == np.int32


PINNED_SCHEDULE_SHA256 = {
    "uniform":
        "552c3b9263db8c478b3e0605abdd8e3420fd50dae2344acf4c0d4455af46e0fe",
    "zipf:0.8":
        "55955dea632b8fbce81af943941d48c2394aaffe4ce4fee7fb557a2aad68d1bf",
}


@pytest.mark.parametrize("popularity", list(PINNED_SCHEDULE_SHA256))
def test_schedule_pinned(popularity):
    # sha256 of (times, origins, targets); every tenth node is down
    net = ring_network(200)
    net.up[::10] = False
    cfg = SimConfig(node_count=200, queries_per_node=30, object_count=40,
                    mean_query_interval_s=0.7, query_popularity=popularity)
    digest = hashlib.sha256()
    for a in schedule_workload(cfg, net, np.random.default_rng(5)):
        digest.update(a.astype(np.int64).tobytes())
    assert digest.hexdigest() == PINNED_SCHEDULE_SHA256[popularity]


# -- churn -------------------------------------------------------------------------

def test_churn_flips_equal_counts():
    net = ring_network(1000)
    net.up[:200] = False                          # 200 down, 800 up
    apply_churn(net, SimConfig(), np.random.default_rng(0))
    assert int(net.up[:200].sum()) == 100         # half the down set came up
    assert int(net.up.sum()) == 800


def test_churn_no_down_nodes():
    net = ring_network(10)
    apply_churn(net, SimConfig(), np.random.default_rng(0))
    assert net.up.all()


def test_churn_single_down_node():
    net = ring_network(10)
    net.up[3] = False
    apply_churn(net, SimConfig(), np.random.default_rng(1))
    assert net.up[3]                              # ceil(0.5 * 1) came up
    assert int(net.up.sum()) == 9


def test_churn_preserves_state_of_down_nodes():
    net = ring_network(4, capacity=3.0)
    net.store_object(1, 0, 0)
    net.q_tables[1][2] = 55.0
    net.up[1] = False
    assert net.holds[0, 1] and net.q_tables[1][2] == 55.0


# -- metrics -----------------------------------------------------------------------

def test_collect_metrics_empty_window():
    net = ring_network(3)
    row = collect_metrics(net, 0, issued=0, succeeded=0, hops_total=0)
    assert row.success_rate == 0.0 and row.queries_issued == 0


def test_collect_metrics_ratio_and_replicas():
    net = ring_network(4, n_objects=2, capacity=3.0)
    net.store_object(0, 0, 0, original=True)
    net.store_object(1, 0, 0)
    net.store_object(2, 1, 0)
    row = collect_metrics(net, 2, issued=10, succeeded=7, hops_total=14)
    assert row.success_rate == pytest.approx(0.7)
    assert row.total_replicas == 2                # originals excluded
    assert row.mean_hops_on_success == pytest.approx(2.0)
    assert row.up_node_count == 4


# -- full runs ------------------------------------------------------------------------

def test_single_node_local_hits():
    net = build_network({0: []}, n_objects=1, capacity=3.0)
    net.store_object(0, 0, 0, original=True)
    cfg = SimConfig(node_count=1, queries_per_node=20, object_count=1,
                    strategy="none", metrics_window_queries=5,
                    churn_every_queries=0, seed=4)
    rows = run_checked(cfg, network=net)
    assert all(r.success_rate == 1.0 for r in rows)
    assert all(r.total_replicas == 0 for r in rows)
    assert sum(r.queries_issued for r in rows) == 20


def test_none_strategy_never_replicates():
    cfg = SimConfig(node_count=80, queries_per_node=30, object_count=10,
                    strategy="none", churn_every_queries=0,
                    metrics_window_queries=500, seed=6)
    rows = run_checked(cfg)
    assert all(r.total_replicas == 0 for r in rows)


def test_qrep_replicas_nondecreasing_with_ample_storage():
    cfg = SimConfig(node_count=50, queries_per_node=80, object_count=5,
                    metrics_window_queries=400, seed=2, initial_up_fraction=1.0,
                    churn_every_queries=0)
    params = QRepParams(delta=60.0, hello_ttl=2)
    topo = TopologyConfig(storage_min=40.0, storage_max=60.0)
    rows = run_checked(cfg, params, topo)
    replicas = [r.total_replicas for r in rows]
    assert all(b >= a for a, b in zip(replicas, replicas[1:]))
    assert replicas[-1] > 0


def test_run_deterministic():
    cfg = SimConfig(node_count=60, queries_per_node=20, object_count=8,
                    metrics_window_queries=300, seed=12)
    assert run_checked(cfg) == run_checked(cfg)


def test_windows_have_exact_size():
    cfg = SimConfig(node_count=40, queries_per_node=30, object_count=5,
                    initial_up_fraction=1.0, churn_every_queries=0,
                    metrics_window_queries=500, strategy="owner", seed=3)
    rows = run_checked(cfg)
    assert [r.queries_issued for r in rows[:-1]] == [500] * (len(rows) - 1)
    assert sum(r.queries_issued for r in rows) == 1200
    assert [r.window_index for r in rows] == list(range(len(rows)))


def test_churn_keeps_up_count_constant_in_run():
    cfg = SimConfig(node_count=100, queries_per_node=40, object_count=5,
                    churn_every_queries=800, metrics_window_queries=400,
                    strategy="path", seed=8)
    rows = run_checked(cfg)
    assert len({r.up_node_count for r in rows}) == 1


@pytest.mark.parametrize("strategy", ["qrep", "path"])
def test_scans_fire_at_every_delta_up_to_the_last_query(strategy):
    cfg = SimConfig(node_count=30, queries_per_node=10, object_count=4,
                    metrics_window_queries=100, strategy=strategy, seed=9)
    sim = Simulation(cfg, QRepParams(delta=20.0))
    events = []                                   # (kind, now_ms) in run order
    scan, query = sim._scan_event, sim._query_event

    def record_scan(now_ms):
        events.append(("scan", now_ms))
        scan(now_ms)

    def record_query(now_ms, origin, obj):
        events.append(("query", now_ms))
        return query(now_ms, origin, obj)

    sim._scan_event, sim._query_event = record_scan, record_query
    for _ in range(2):                            # a second run counts afresh
        events.clear()
        sim.run()
        scans = [t for kind, t in events if kind == "scan"]
        last_query = max(t for kind, t in events if kind == "query")
        expected = list(range(20_000, last_query + 1, 20_000)) if strategy == "qrep" else []
        assert scans == expected
        assert sim.scans_run == len(scans)
        for i, (kind, t) in enumerate(events):     # each scan before the queries at its time
            if kind == "scan":
                assert all(q >= t for _kind, q in events[i + 1:])
    assert strategy == "path" or sim.scans_run > 2


@pytest.mark.parametrize("nodes, objects", [(6, 2), (5, 6)])
def test_network_must_match_the_config(nodes, objects):
    net = ring_network(nodes, n_objects=objects)
    for obj in range(objects):
        net.store_object(obj % nodes, obj, 0, original=True)
    cfg = SimConfig(node_count=6, queries_per_node=5, object_count=6, seed=1)
    with pytest.raises(ConfigurationError, match="config asks for 6 and 6"):
        Simulation(cfg, network=net)


# The tests below write the arrays directly, past the store, so the
# incremental check cannot see the fault: it surfaces at a full check.

def test_checker_reports_small_storage_drift():
    # the bound is absolute: 5e-4 units is far beyond 1e-9 even at the
    # largest node, where a relative tolerance would have hidden it
    sim = Simulation(SimConfig(node_count=40, queries_per_node=1, object_count=5, seed=4,
                               metrics_window_queries=10),
                     check_invariants=True)
    node = int(np.argmax(sim.net.capacity))
    sim.checker.after_event(0)
    assert sim.checker.violations == []
    sim.net.free[node] += 5e-4
    sim.checker.after_event(1, full=True)
    assert sim.checker.violations == [f"t=1: storage accounting off at node {node}"]
    # in a run the drift is reported at every full check and nowhere else
    checks = record_checks(sim.checker)
    sim.run()
    assert sim.checker.violations[1:] == [f"t={t}: storage accounting off at node {node}"
                                          for t, full in checks if full]


def test_checker_reports_small_storage_drift_mixed_sizes():
    # with object sizes that differ, stored size is the size-weighted sum; a
    # copy count would already be off at the first check
    net = ring_network(40, n_objects=5, capacity=np.arange(40) + 10.0,
                       obj_size=[0.5, 1.25, 2.0, 3.75, 1.0])
    for obj in range(5):
        for node in range(obj, 40, 3):
            net.store_object(node, obj, 0, original=node == obj)
    checker = InvariantChecker(net)
    node = int(np.argmax(net.capacity))
    checker.after_event(0, full=True)
    assert checker.violations == []
    net.free[node] += 5e-4
    checker.after_event(1, full=True)
    assert checker.violations == [f"t=1: storage accounting off at node {node}"]


def test_checker_reports_negative_free_storage():
    # a touched node with free -1 and a capacity lowered to match: the
    # accounting balances, so only the free-storage check reports
    net = ring_network(10, n_objects=2)
    net.store_object(3, 0, 0, original=True)
    checker = InvariantChecker(net)
    checker.after_event(0, full=True)
    assert checker.violations == []
    net.capacity[3] -= net.free[3] + 1.0
    net.free[3] = -1.0
    net.touched.add(3)
    checker.after_event(1)
    assert checker.violations == ["t=1: negative or NaN free storage"]


def test_checker_reports_nan_popularity_and_q():
    sim = Simulation(SimConfig(node_count=40, queries_per_node=1, object_count=5, seed=4),
                     check_invariants=True)
    sim.net.pf[0, 0] = np.nan
    sim.checker.after_event(1, full=True)
    sim.net.pf[0, 0] = 0.0
    sim.net.q_tables[3][7] = np.nan
    sim.checker.after_event(2, full=True)
    assert sim.checker.violations == ["t=1: negative or NaN popularity",
                                      "t=2: negative or NaN q for peer 7 at node 3"]


@pytest.mark.parametrize("position, bad_q", [(0, np.nan), (-1, np.nan), (-1, -0.5)],
                         ids=["nan-first", "nan-last", "negative"])
def test_checker_reports_q_of_node_that_never_placed(monkeypatch, position, bad_q):
    placed, replicate = set(), qrep.replicate_object

    def replicate_object(net, source, object_key, targets, now_ms):
        stored = replicate(net, source, object_key, targets, now_ms)
        if stored:
            placed.add(source)
        return stored

    monkeypatch.setattr(qrep, "replicate_object", replicate_object)
    cfg = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                    metrics_window_queries=500, seed=21)
    sim = Simulation(cfg, QRepParams(delta=60.0, hello_ttl=3), check_invariants=True)
    sim.run()
    assert placed and sim.checker.violations == []
    node = min(v for v, table in enumerate(sim.net.q_tables) if table and v not in placed)
    peer = list(sim.net.q_tables[node])[position]
    sim.net.q_tables[node][peer] = bad_q
    sim.checker.after_event(10**9)
    assert sim.checker.violations == []
    sim.checker.after_event(10**9 + 1, full=True)
    assert sim.checker.violations == [
        f"t={10**9 + 1}: negative or NaN q for peer {peer} at node {node}"]


def test_checker_reports_up_count_change():
    cfg = SimConfig(node_count=40, queries_per_node=10, object_count=5, seed=4,
                    churn_every_queries=60, metrics_window_queries=100)
    sim = Simulation(cfg, check_invariants=True)
    n_up = int(sim.net.up.sum())
    sim.net.up[np.flatnonzero(sim.net.up)[0]] = False
    sim.checker.after_event(0)
    assert sim.checker.violations == []
    sim.checker.after_event(1, full=True)
    assert sim.checker.violations == [f"t=1: up count changed {n_up} -> {n_up - 1}"]
    # churn keeps the count, so every full check of the run reports it again
    checks = record_checks(sim.checker)
    sim.run()
    assert sim.checker.violations[1:] == [f"t={t}: up count changed {n_up} -> {n_up - 1}"
                                          for t, full in checks if full]


_MARKING_CASES = {              # case -> (SimConfig fields, TopologyConfig fields)
    "qrep-pressure": (dict(strategy="qrep", requester_copy=True),
                      dict(storage_min=2.0, storage_max=4.0)),
    "path": (dict(strategy="path"), {}),
    "random-churn": (dict(strategy="random", churn_every_queries=400), {}),
}


@pytest.mark.parametrize("case", sorted(_MARKING_CASES))
def test_checker_marks_every_changed_node(case):
    fields, topology = _MARKING_CASES[case]
    cfg = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                    metrics_window_queries=500, seed=21, **fields)
    sim = Simulation(cfg, QRepParams(delta=60.0, hello_ttl=3), TopologyConfig(**topology),
                     check_invariants=True)
    net, check = sim.net, sim.checker.after_event
    before = snapshot(net)
    changed_events = removal_events = 0

    def after_event(now_ms, full=False):
        nonlocal before, changed_events, removal_events
        changed = changed_nodes(net, before)
        assert changed <= net.touched, f"t={now_ms}: {sorted(changed - net.touched)} unmarked"
        changed_events += bool(changed)
        removal_events += bool((before[0] & ~net.holds).any())
        check(now_ms, full)
        before = snapshot(net)

    sim.checker.after_event = after_event
    sim.run()
    assert sim.checker.violations == []
    assert changed_events > 0
    assert removal_events > 0 or case != "qrep-pressure"


class HalfChargeNetwork(Network):
    """Charges each replica half its size: a fault made through the store."""

    def __init__(self, *args):
        super().__init__(*args)
        self.faults = []                          # (now_ms, node) per short charge

    def store_object(self, node, obj, now_ms, original=False):
        super().store_object(node, obj, now_ms, original)
        if not original:
            self.free[node] += self.obj_size[obj] / 2
            self.faults.append((now_ms, node))


def test_checker_reports_store_fault_at_its_event():
    net = ring_network(30, n_objects=4, capacity=6.0, network_class=HalfChargeNetwork)
    place_initial_objects(net, 3)
    cfg = SimConfig(node_count=30, queries_per_node=20, object_count=4, strategy="owner",
                    churn_every_queries=0, metrics_window_queries=10_000, seed=3)
    sim = Simulation(cfg, network=net, check_invariants=True)
    checks = record_checks(sim.checker)
    sim.run()
    first = net.faults[0][0]
    node = min(v for t, v in net.faults if t == first)
    assert sim.checker.violations[0] == f"t={first}: storage accounting off at node {node}"
    assert (first, False) in checks               # an incremental check, not the last one


_STORAGE_OPS = st.lists(st.tuples(st.sampled_from(["store", "evict", "remove", "churn"]),
                                  st.integers(0, 7), st.integers(0, 5)), max_size=80)


@pytest.mark.parametrize("sizes", [[1.0] * 6, [0.5, 1.25, 2.0, 0.75, 3.5, 1.0]],
                         ids=["uniform", "mixed"])
@settings(derandomize=True, max_examples=80, deadline=None)
@given(ops=_STORAGE_OPS)
def test_storage_accounting_under_random_operations(sizes, ops):
    # sizes and capacities are binary fractions, so the sums are exact
    net = ring_network(8, n_objects=6, capacity=[4.0, 5.0, 6.0, 7.0] * 2, obj_size=sizes)
    for obj in range(6):
        net.store_object(obj, obj, 0, original=True)
    checker = InvariantChecker(net)
    before = snapshot(net)
    for t, (op, node, obj) in enumerate(ops, 1):
        record_visits(net, range(net.n_nodes), obj)   # every holder of obj gets a count
        if op == "store" and net.up[node] and not net.holds[obj, node]:
            evict_for_space(net, node, net.obj_size[obj])
            if net.free[node] < net.obj_size[obj]:
                continue
            net.store_object(node, obj, t)
        elif op == "evict":
            evict_for_space(net, node, net.obj_size[obj])
        elif op == "remove" and net.holds[obj, node] and not net.original[obj, node]:
            net.remove_object(node, obj)
        elif op == "churn":
            apply_churn(net, SimConfig(), np.random.default_rng(t))
        assert changed_nodes(net, before) <= net.touched
        checker.after_event(t)
        before = snapshot(net)
        for v in range(net.n_nodes):
            assert stored_size(net, v) + net.free[v] == net.capacity[v]
            assert all(net.holds[o, v] for o in net.rq[v])
    assert checker.violations == []
    assert net.original.sum() == 6 and net.original[range(6), range(6)].all()


@pytest.mark.parametrize("rereplicate", [False, True])
def test_scan_skips_replicated_source_unless_rereplicating(rereplicate):
    net = star_network(leaves=4, capacity=5.0, n_objects=1)
    net.store_object(0, 0, 0, original=True)
    net.pf[0, 0] = 9.0                            # above p_th, already replicated
    net.replicated[0, 0] = True
    cfg = SimConfig(node_count=5, queries_per_node=1, object_count=1, seed=3)
    params = QRepParams(hello_ttl=1, hello_walkers=4, rereplicate_on_threshold=rereplicate)
    sim = Simulation(cfg, params, network=net, check_invariants=True)
    sim._scan_event(1_000)
    sim.checker.after_event(1_000, full=True)
    assert sim.checker.violations == []
    assert (net.holds[0].sum() > 1) == rereplicate


def test_p_th0_copy_stored_during_a_scan_waits_for_the_next():
    # node 1 holds nothing as the first scan starts, so it is no source of
    # that scan, though node 0's round gives it a copy that p_th = 0 wants
    net = line_network(3)
    net.store_object(0, 0, 0, original=True)
    cfg = SimConfig(node_count=3, queries_per_node=1, object_count=1, seed=3)
    params = QRepParams(p_th=0.0, hello_ttl=1, hello_walkers=2)
    sim = Simulation(cfg, params, network=net, check_invariants=True)
    sim._scan_event(1_000)
    assert net.holds[0].tolist() == [True, True, False]
    assert net.replicated[0].tolist() == [True, False, False]
    sim._scan_event(2_000)
    assert net.holds[0].tolist() == [True, True, True]
    assert net.replicated[0].tolist() == [True, True, False]
    sim.checker.after_event(2_000, full=True)
    assert sim.checker.violations == []


def test_p_th0_copy_stored_at_a_source_of_the_scan_waits_for_the_next():
    # node 1 is a source of the first scan (it holds object 1) and gets a copy
    # of object 0 from node 0's round before its own round: that copy waits
    net = line_network(3, n_objects=2)
    net.store_object(0, 0, 0, original=True)
    net.store_object(1, 1, 0, original=True)
    cfg = SimConfig(node_count=3, queries_per_node=1, object_count=2, seed=3)
    params = QRepParams(p_th=0.0, hello_ttl=1, hello_walkers=2)
    sim = Simulation(cfg, params, network=net, check_invariants=True)
    sim._scan_event(1_000)
    assert net.holds.tolist() == [[True, True, False], [False, True, True]]
    assert net.replicated.tolist() == [[True, False, False], [False, True, False]]
    sim._scan_event(2_000)
    assert net.holds[0].tolist() == [True, True, True]
    assert net.inserted_at[0, 2] == 2_000
    sim.checker.after_event(2_000, full=True)
    assert sim.checker.violations == []


@pytest.mark.parametrize("strategy", ["none", "owner", "path", "random", "qrep"])
def test_origin_hit_calls_no_placement(monkeypatch, strategy):
    hops, calls = [], []
    query = sim_module.run_query

    def run_query(*args):
        outcome, visited = query(*args)
        hops.append(outcome.hops_used if outcome.success else None)
        return outcome, visited

    def spy(fn):
        def place(net, outcome, *args):
            calls.append(outcome.hops_used)
            return fn(net, outcome, *args)
        return place

    monkeypatch.setattr(sim_module, "run_query", run_query)
    for name in ("owner_replicate", "path_replicate", "random_replicate"):
        monkeypatch.setattr(baselines, name, spy(getattr(baselines, name)))
    cfg = SimConfig(node_count=40, queries_per_node=20, object_count=4,
                    initial_up_fraction=1.0, churn_every_queries=0, strategy=strategy,
                    requester_copy=True, metrics_window_queries=400, seed=5)
    run_checked(cfg, QRepParams(delta=1e7))       # qrep: requester copies only
    remote = [h for h in hops if h]
    assert hops.count(0) > 0 and remote           # both kinds of hit happen
    assert calls == ([] if strategy == "none" else remote)   # one per remote hit


def test_requester_copy_flag():
    cfg = SimConfig(node_count=40, queries_per_node=40, object_count=2,
                    initial_up_fraction=1.0, churn_every_queries=0,
                    requester_copy=True, metrics_window_queries=400, seed=5)
    params = QRepParams(delta=1e7)                # no scan ever fires
    rows = run_checked(cfg, params)
    assert rows[-1].total_replicas > 0            # requester copies only


def test_popularity_refresh_triggered_by_traffic():
    cfg = SimConfig(node_count=30, queries_per_node=60, object_count=2,
                    initial_up_fraction=1.0, churn_every_queries=0,
                    strategy="none", metrics_window_queries=600, seed=9)
    sim = Simulation(cfg, check_invariants=True)
    sim.run()
    assert sim.checker.violations == []
    net = sim.net
    assert all(count < QRepParams().update_every for count in net.n_q)
    held = np.nonzero(net.holds.any(axis=1))[0]
    assert net.pf[held].max() > 0


def test_down_origin_issues_nothing():
    cfg = SimConfig(node_count=60, queries_per_node=30, object_count=4,
                    churn_every_queries=300, metrics_window_queries=300, seed=13,
                    strategy="none")
    sim = Simulation(cfg, check_invariants=True)
    net, query, down = sim.net, sim._query_event, []

    def query_event(now_ms, origin, obj):
        if net.up[origin]:
            return query(now_ms, origin, obj)
        counters = list(net.n_q), [dict(r) for r in net.rq]
        assert query(now_ms, origin, obj) is None
        assert (list(net.n_q), [dict(r) for r in net.rq]) == counters and not net.touched
        down.append(now_ms)
        return None

    sim._query_event = query_event
    scheduled = cfg.queries_per_node * int(net.up.sum())
    rows = sim.run()
    assert down and sim.checker.violations == []
    assert sum(r.queries_issued for r in rows) == scheduled - len(down)


@pytest.mark.parametrize("case", ["qrep", "path", "owner", "random", "qrep-no-requester-copy"])
def test_metrics_csv_does_not_depend_on_the_walk_batch_size(tmp_path, monkeypatch, case):
    # how many queries a walk batch covers changes no outcome, in a run with
    # churn (the up graph changes), scans (Hello sweeps) and scarce storage
    # (copies a batch saw are evicted before their queries); each placement
    # rule changes the stores under a batch in its own way
    cfg = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                    churn_every_queries=700, metrics_window_queries=500, seed=21,
                    requester_copy=not case.endswith("no-requester-copy"),
                    strategy=case.split("-")[0])
    csvs = set()
    for chunk in (1, 7, 2048, 4096):
        monkeypatch.setattr(search, "CHUNK", chunk)
        sim = Simulation(cfg, QRepParams(delta=60.0, hello_ttl=3),
                         TopologyConfig(storage_min=2.0, storage_max=4.0))
        csvs.add(emit_csv(sim.run(), tmp_path / f"m{chunk}.csv").read_bytes())
    assert len(csvs) == 1


def test_int32_and_int64_plans_resolve_every_query_alike(monkeypatch):
    # the schedule's ids are int32, and NumPy 1.x promotes an int32 array
    # times an int by value; a run planned from int64 ids resolves every
    # query as the run planned from int32 ids does
    cfg = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                    churn_every_queries=700, metrics_window_queries=500, seed=21,
                    strategy="path")
    runs = []
    for dtype in (np.int32, np.int64):
        outcomes = []

        def schedule(*args, dtype=dtype):
            times, origins, targets = schedule_workload(*args)
            return times, origins.astype(dtype), targets.astype(dtype)

        def query(*args, outcomes=outcomes):
            outcome = search.run_query(*args)
            outcomes.append(outcome)
            return outcome
        monkeypatch.setattr(sim_module, "schedule_workload", schedule)
        monkeypatch.setattr(sim_module, "run_query", query)
        sim = Simulation(cfg, QRepParams(delta=60.0, hello_ttl=3),
                         TopologyConfig(storage_min=2.0, storage_max=4.0))
        sim.run()
        assert sim.ctx.origins.dtype == sim.ctx.targets.dtype == dtype
        runs.append(outcomes)
    assert len(runs[0]) > 2000 and runs[0] == runs[1]


# a small qrep run whose scans see several up graphs (churn every 700 queries)
_SWEPT = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                   churn_every_queries=700, metrics_window_queries=500, seed=21)


def test_hello_sweeps_do_not_depend_on_the_epoch_plan(monkeypatch):
    # a sweep read from the batch of every origin its epoch planned answers
    # what a batch of its origin alone answers, for every source of every
    # scan (and of the initial table build)
    sim = Simulation(_SWEPT, QRepParams(delta=60.0, hello_ttl=3))
    sweep, epochs = search.WalkContext.sweep, []

    def plan(ctx, origins):
        sweep(ctx, origins)
        epochs.append((ctx.epoch, ctx.sweep_origins.tolist(), sim.net.up.copy()))
    monkeypatch.setattr(search.WalkContext, "sweep", plan)
    sim.run()
    monkeypatch.undo()
    net, k, ttl = sim.net, sim.params.hello_walkers, sim.params.hello_ttl
    assert len(epochs) > 3 and sum(len(sources) for _, sources, _ in epochs) > 100
    for epoch, sources, up in epochs:
        net.up[:] = up
        planned, alone = (search.WalkContext(net.overlay, sim.ctx.seed) for _ in range(2))
        for ctx, origins in ((planned, sources), (alone, [])):
            ctx.epoch = epoch - 1
            ctx.sweep(origins)
        for source in sources:
            assert (search.hello_sweep(net, planned, source, k, ttl)
                    == search.hello_sweep(net, alone, source, k, ttl))
        assert len({id(planned.sweep_batch(net, v, k, ttl)[0]) for v in sources}) <= 1


def test_every_walk_batch_is_built_by_a_query_or_a_sweep(monkeypatch):
    # perfbench charges walk time to the spans of run_query and hello_sweep;
    # a batch built elsewhere, say as a scan starts, is charged to
    # Simulation.run's own time
    readers = {search.run_query.__code__, search.hello_sweep.__code__}
    built, init = [], search._Batch.__init__

    def spy(batch, *args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in readers:
            frame = frame.f_back
        built.append(frame is not None)
        init(batch, *args)
    monkeypatch.setattr(search._Batch, "__init__", spy)
    sim = Simulation(_SWEPT, QRepParams(delta=60.0, hello_ttl=3))
    sim.run()
    assert sim.scans_run > 3 and len(built) > 10 and all(built)


# sha256 of the metrics CSV for each strategy; any change to the walk stream,
# the counters or a placement rule moves these
PINNED_CSV_SHA256 = {
    "qrep": "1ccc662c6ee0b4c82e54f256cc5d5473384dabaf25db1bb59d14c8ca182227a7",
    "path": "bbca23ec68975d6d3053d93c69ac3175d4528a71597c05e9d89d26e5ab0589e5",
    "owner": "0454d346c900d1efb98519bdd59b696d743947d0f02e3d2d99feebbbfde2cc23",
    "random": "f41a98a7b1c8e56f02656107d0a6ca1c8f6ff420284913e7424bf6f45dcfae8b",
    "none": "80f89239519b612de98ef98001f0c595fb5de9a73f48b878f23b72d296542120",
    # every copy older than the scan is wanted (p_th = 0), and scans that
    # evict (storage 2-4)
    "qrep-p_th0": "6ce808b828da17961eff185aec0ce51dc86ef150a923efdf89b9a671f41f30fb",
    "qrep-pressure": "bf57849d32658ade9de1939f5de505acacd2994b53d5eac0288b72dc0bc32b88",
}
PINNED_OVERRIDES = {            # case -> (QRepParams fields, TopologyConfig fields)
    "qrep-p_th0": (dict(p_th=0.0), {}),
    "qrep-pressure": ({}, dict(storage_min=2.0, storage_max=4.0)),
}


@pytest.mark.parametrize("case", sorted(PINNED_CSV_SHA256))
def test_metrics_csv_pinned(tmp_path, case):
    # the checker only observes: a run without it writes the same CSV
    params, topology = PINNED_OVERRIDES.get(case, ({}, {}))
    cfg = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                    metrics_window_queries=500, seed=21, requester_copy=True,
                    strategy=case.split("-")[0])
    for checked in (True, False):
        sim = Simulation(cfg, QRepParams(delta=60.0, hello_ttl=3, **params),
                         TopologyConfig(**topology), check_invariants=checked)
        path = emit_csv(sim.run(), tmp_path / f"m-{checked}.csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256[case]
        if checked:
            assert sim.checker.events_checked > 0 and sim.checker.violations == []
