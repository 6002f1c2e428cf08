import numpy as np
import pytest

from qrepsim.errors import ConfigurationError, PlacementError
from qrepsim.model import (Network, generate_topology, place_initial_objects,
                           sample_node_attributes)
from qrepsim.qrep import QRepParams, update_popularities
from qrepsim.sim import TopologyConfig

from helpers import build_network, stored_size


# -- topology generation -----------------------------------------------------

def test_two_nodes_forced_edge():
    ov = generate_topology(2, 2.0, seed=0)
    assert ov.adjacency_sets() == [{1}, {0}]
    assert ov.degrees().tolist() == [1, 1]


def test_er_1000_connected_with_target_degree():
    ov = generate_topology(1000, 4.0, seed=42)
    sets = ov.adjacency_sets()
    # connectivity via BFS
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in sets[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 1000
    mean_degree = ov.degrees().mean()
    assert 3.5 <= mean_degree <= 4.5


def test_topology_deterministic():
    a = generate_topology(300, 4.0, seed=7)
    b = generate_topology(300, 4.0, seed=7)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adjacency_symmetric_no_self_loops(seed):
    ov = generate_topology(120, 5.0, seed=seed)
    sets = ov.adjacency_sets()
    assert ov.degrees().tolist() == [len(s) for s in sets]
    for u in range(120):
        assert u not in sets[u]
        for v in sets[u]:
            assert u in sets[v]
    src = np.repeat(np.arange(120), ov.degrees())
    assert np.array_equal(ov.indices[ov.edge_rev], src)
    assert np.array_equal(ov.edge_rev[ov.edge_rev], np.arange(len(ov.indices)))


def test_density_too_low_is_configuration_error():
    # at avg degree 2 the giant component stays far below the patch threshold
    with pytest.raises(ConfigurationError):
        generate_topology(300, 2.0, seed=5, max_retries=4)


def test_invalid_topology_args():
    with pytest.raises(ConfigurationError):
        generate_topology(1, 4.0, seed=0)
    with pytest.raises(ConfigurationError):
        generate_topology(100, 1.5, seed=0)


def test_from_adjacency_rejects_self_loops():
    from qrepsim.model import Overlay
    with pytest.raises(ConfigurationError):
        Overlay.from_adjacency({0: [0, 1], 1: []})


# -- attribute sampling --------------------------------------------------------

def test_constant_profile_identical_pairs():
    topology = TopologyConfig(bandwidth_classes="100:1", storage_min=50.0, storage_max=50.0)
    bw, cap = sample_node_attributes(topology, 3, seed=0)
    assert bw.tolist() == [100.0, 100.0, 100.0]
    assert cap.tolist() == [50.0, 50.0, 50.0]


def test_two_class_profile_counts():
    topology = TopologyConfig(bandwidth_classes="56:0.5,1000:0.5",
                              storage_min=20.0, storage_max=100.0)
    bw, cap = sample_node_attributes(topology, 1000, seed=11)
    slow = int((bw == 56.0).sum())
    assert 450 <= slow <= 550            # binomial expectation 500 +- 50
    assert ((cap >= 20) & (cap <= 100)).all()
    assert (bw > 0).all() and (cap > 0).all()


def test_attribute_sampling_deterministic():
    topology = TopologyConfig()
    a = sample_node_attributes(topology, 200, seed=3)
    b = sample_node_attributes(topology, 200, seed=3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_nonpositive_support_rejected():
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes="0:0.5,10:0.5").validate()
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes="56:1", storage_min=0.0).validate()
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes="56:0.7").validate()


@pytest.mark.parametrize("classes", ["inf:1", "56:nan,1000:1"])
def test_non_finite_bandwidth_classes_rejected(classes):
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes=classes).validate()


@pytest.mark.parametrize("bounds", [(2.5, 4.0), (2.0, 4.5)])
def test_fractional_storage_bounds_rejected(bounds):
    # capacities are whole units: a bound of 2.5 would silently become 2
    storage_min, storage_max = bounds
    with pytest.raises(ConfigurationError, match="whole units"):
        TopologyConfig(storage_min=storage_min, storage_max=storage_max).validate()


# NaN fails no `x <= 0` test, so each bound must reject it (and inf) itself:
# p_th = nan would never replicate, avg_degree = nan or inf would build a
# complete graph, and object_size = nan would end in a PlacementError
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("build", [
    pytest.param(lambda v: QRepParams(b_min=v).validate(), id="b_min"),
    pytest.param(lambda v: QRepParams(s_min=v).validate(), id="s_min"),
    pytest.param(lambda v: QRepParams(d_min=v).validate(), id="d_min"),
    pytest.param(lambda v: QRepParams(p_th=v).validate(), id="p_th"),
    pytest.param(lambda v: TopologyConfig(avg_degree=v).validate(), id="avg_degree"),
    pytest.param(lambda v: TopologyConfig(object_size=v).validate(), id="object_size"),
    pytest.param(lambda v: generate_topology(50, v, seed=0), id="generate_topology"),
])
def test_non_finite_bounds_rejected(build, value):
    with pytest.raises(ConfigurationError):
        build(value)


def test_network_rejects_nan_object_size():
    with pytest.raises(ConfigurationError):
        build_network({0: [1], 1: []}, n_objects=2, obj_size=[1.0, float("nan")])


# -- initial placement ----------------------------------------------------------

def test_single_object_single_node():
    net = build_network({0: []}, n_objects=1, capacity=5.0)
    hosts = place_initial_objects(net, seed=0)
    assert hosts == {0: 0}
    assert net.holds[0, 0] and net.original[0, 0]
    assert net.free[0] == 4.0


def test_hundred_objects_thousand_nodes():
    ov = generate_topology(1000, 4.0, seed=7)
    bw = np.full(1000, 100.0)
    cap = np.full(1000, 30.0)
    up = np.zeros(1000, dtype=bool)
    up[: 800] = True
    net = Network(ov, bw, cap, up, np.ones(100))
    hosts = place_initial_objects(net, seed=7)
    assert len(hosts) == 100
    assert int(net.holds.sum()) == 100 and int(net.original.sum()) == 100
    for obj, host in hosts.items():
        assert net.up[host]
        assert net.holds[obj, host]
    assert np.allclose(net.obj_size @ net.holds + net.free, net.capacity)


def test_oversized_object_placement_error():
    net = build_network({0: [1], 1: []}, n_objects=1, capacity=2.0, obj_size=5.0)
    with pytest.raises(PlacementError):
        place_initial_objects(net, seed=0)


def test_placement_deterministic():
    def fresh():
        ov = generate_topology(100, 4.0, seed=3)
        net = Network(ov, np.full(100, 1.0), np.full(100, 10.0),
                      np.ones(100, dtype=bool), np.ones(20))
        return place_initial_objects(net, seed=5)
    assert fresh() == fresh()


# -- network state ----------------------------------------------------------------

def test_store_accounting_and_duplicate_guard():
    net = build_network({0: [1], 1: []}, n_objects=2, capacity=3.0)
    net.store_object(0, 0, now_ms=10)
    net.store_object(0, 1, now_ms=20, original=True)
    assert net.free[0] == 1.0
    assert stored_size(net, 0) == 2.0
    with pytest.raises(PlacementError):
        net.store_object(0, 0, now_ms=30)
    net.remove_object(0, 0)
    assert net.free[0] == 2.0
    with pytest.raises(PlacementError):
        net.remove_object(0, 0)



def test_touched_marks_exactly_the_written_nodes_without_a_checker():
    net = build_network({i: [(i + 1) % 5] for i in range(5)}, n_objects=2)
    assert net.touched == set()
    net.store_object(1, 0, now_ms=1)
    net.store_object(3, 0, now_ms=1)
    net.store_object(3, 1, now_ms=1)
    assert net.touched == {1, 3}
    net.touched.clear()
    net.remove_object(3, 1)
    assert net.touched == {3}
    net.touched.clear()
    net.rq[1][0] = 2
    net.n_q[1] = net.n_q[2] = 4                   # node 2 stores nothing
    for node in (1, 2, 4):                        # node 4 saw no request
        update_popularities(net, node, QRepParams())
    assert net.pf[0, 1] > 0
    assert net.touched == {1}
