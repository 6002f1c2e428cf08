import hashlib
import tracemalloc

import numpy as np
import pytest

from qrepsim import model
from qrepsim.errors import ConfigurationError, PlacementError
from qrepsim.model import (Network, Overlay, generate_topology, place_initial_objects,
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


def _digest(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.asarray(a, dtype=np.int64).tobytes())
    return digest.hexdigest()


# sha256 of (indptr, indices, edge_rev) per (n, avg_degree, seed): the first
# draw comes out connected (2-30-50 nodes), is bridged (120, 1000; the 1000-
# node triangle spans several sampling blocks), or is retried before it is
# bridged (50 nodes: 3 draws, 100: 7, 600: 3 over several blocks)
PINNED_TOPOLOGY_SHA256 = {
    (2, 2.0, 0):
        "f1c56e7c4ed0c4b066c0202e7d3e7c1aeb7ab0f3d57ecb28b6adf5d9f9c0797a",
    (30, 6.0, 1):
        "557da1a83a047621d5b37777f7d9c5ebea016f201e8b309e01ad43980a277062",
    (50, 8.0, 0):
        "8d83a1af958c709c1a121ff75b5e3262b15cd46740d9579c715be35146b3bcc5",
    (120, 3.0, 0):
        "508f09dbe2a48018f7523d47dade65bd5e14807df860084942025d419bd59c7f",
    (1000, 4.0, 0):
        "30c40c10f5470bd164e3747d73e22c8fc1400b33d12f80d44031bef83e8cf0a9",
    (50, 2.0, 3):
        "36fac1d320e2894bb4554057e3a7b7f1cb2af48e982aba5fa1ea09f39c1c7678",
    (100, 2.5, 4):
        "55f07f733374233479229df6edc82661104ab5ecd5c67df7feb8d2a018694f2d",
    (600, 2.6, 6):
        "aec80075d4a6d133d51b55af215e20fe22388275e1c37404de5574aae4f76aee",
}


@pytest.mark.parametrize("case", list(PINNED_TOPOLOGY_SHA256), ids=str)
def test_topology_pinned(case):
    ov = generate_topology(*case)
    assert _digest(ov.indptr, ov.indices, ov.edge_rev) == PINNED_TOPOLOGY_SHA256[case]


def test_topology_retries_run_out_alike():
    # the draw that connects comes 13th for this seed
    with pytest.raises(ConfigurationError, match="after 12 attempts"):
        generate_topology(50, 2.0, seed=4, max_retries=12)
    assert generate_topology(50, 2.0, seed=4, max_retries=13).node_count == 50


def test_topology_memory_stays_below_a_whole_triangle_draw():
    # one draw over the 3000-node upper triangle would take 36 MB
    tracemalloc.start()
    try:
        generate_topology(3000, 4.0, seed=1)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("n", [2, 3, 600, 1000])
def test_triangle_blocks_draw_what_a_row_loop_draws(n):
    # 600 and 1000 nodes: a block ends inside a row
    p = 4.0 / (n - 1)
    expect = []
    rng = np.random.default_rng(n)
    for u in range(n):
        expect += [(u, v) for v in np.flatnonzero(rng.random(n - u - 1) < p) + u + 1]
    after_rows = rng.integers(0, 2 ** 62)
    rng = np.random.default_rng(n)
    u, v = model._sample_triangle(rng, n, p)
    assert list(zip(u.tolist(), v.tolist())) == expect
    assert rng.integers(0, 2 ** 62) == after_rows


@pytest.mark.parametrize("seed", range(4))
def test_component_labels_match_a_depth_first_search(seed):
    # sparse random graphs with many components, numbered by a DFS started
    # at every unlabelled node in id order
    rng = np.random.default_rng(seed)
    n = 300
    u, v = rng.integers(0, n, size=(2, 200))
    u, v = u[u != v], v[u != v]
    nbrs = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    expect = [-1] * n
    comp = 0
    for start in range(n):
        if expect[start] < 0:
            expect[start] = comp
            stack = [start]
            while stack:
                for w in nbrs[stack.pop()]:
                    if expect[w] < 0:
                        expect[w] = comp
                        stack.append(w)
            comp += 1
    labels, n_comp = model._component_labels(n, u, v)
    assert labels.tolist() == expect and n_comp == comp


def test_from_adjacency_rejects_self_loops():
    with pytest.raises(ConfigurationError):
        Overlay.from_adjacency({0: [0, 1], 1: []})


@pytest.mark.parametrize("adjacency", [{0: [2], 1: []}, {0: [-1], 1: [0]}], ids=str)
def test_from_adjacency_rejects_unknown_nodes(adjacency):
    with pytest.raises(ConfigurationError, match="outside nodes 0..1"):
        Overlay.from_adjacency(adjacency)


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
        TopologyConfig(bandwidth_classes="0:0.5,10:0.5")
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes="56:1", storage_min=0.0)
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes="56:0.7")


@pytest.mark.parametrize("classes", ["inf:1", "56:nan,1000:1"])
def test_non_finite_bandwidth_classes_rejected(classes):
    with pytest.raises(ConfigurationError):
        TopologyConfig(bandwidth_classes=classes)


@pytest.mark.parametrize("fields, message", [
    (dict(max_retries=0), "max_retries"),
    (dict(bandwidth_classes="56"), "'value:weight', got '56'"),
    (dict(bandwidth_classes="a:b"), "'value:weight', got 'a:b'"),
    (dict(bandwidth_classes=" , "), "at least one"),
], ids=["max_retries-0", "no-weight", "not-numbers", "no-entry"])
def test_topology_config_rejects_invalid(fields, message):
    with pytest.raises(ConfigurationError, match=message):
        TopologyConfig(**fields)


@pytest.mark.parametrize("bounds", [(2.5, 4.0), (2.0, 4.5)])
def test_fractional_storage_bounds_rejected(bounds):
    # capacities are whole units: a bound of 2.5 would silently become 2
    storage_min, storage_max = bounds
    with pytest.raises(ConfigurationError, match="whole units"):
        TopologyConfig(storage_min=storage_min, storage_max=storage_max)


# NaN fails no `x <= 0` test, so each bound must reject it (and inf) itself:
# p_th = nan would never replicate, avg_degree = nan or inf would build a
# complete graph, and object_size = nan would end in a PlacementError
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("build", [
    pytest.param(lambda v: QRepParams(b_min=v), id="b_min"),
    pytest.param(lambda v: QRepParams(s_min=v), id="s_min"),
    pytest.param(lambda v: QRepParams(d_min=v), id="d_min"),
    pytest.param(lambda v: QRepParams(p_th=v), id="p_th"),
    pytest.param(lambda v: TopologyConfig(avg_degree=v), id="avg_degree"),
    pytest.param(lambda v: TopologyConfig(object_size=v), id="object_size"),
    pytest.param(lambda v: generate_topology(50, v, seed=0), id="generate_topology"),
])
def test_non_finite_bounds_rejected(build, value):
    with pytest.raises(ConfigurationError):
        build(value)


def test_network_rejects_nan_object_size():
    with pytest.raises(ConfigurationError):
        build_network({0: [1], 1: []}, n_objects=2, obj_size=[1.0, float("nan")])


@pytest.mark.parametrize("size", [float("inf"), float("-inf")], ids=str)
def test_network_rejects_infinite_object_size(size):
    with pytest.raises(ConfigurationError):
        build_network({0: [1], 1: []}, n_objects=2, obj_size=[1.0, size])


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


def _placement_network(obj_size):
    """200 up-or-down nodes with 1-3 units each: hosts fill up as objects land."""
    rng = np.random.default_rng(11)
    ov = generate_topology(200, 4.0, seed=11)
    up = rng.random(200) < 0.8
    return Network(ov, np.ones(200), rng.integers(1, 4, size=200).astype(float), up, obj_size)


PINNED_PLACEMENT_SHA256 = {
    "uniform":
        "4e4731fe9439f423b51c839d26ae933fa545c9f1ed7815c4c0b46ac7cf8b65ef",
    "mixed":
        "1f2186de4aaebc16fa13157562eebd6e50edde0d70996bf518182e0010322512",
}


@pytest.mark.parametrize("sizes", list(PINNED_PLACEMENT_SHA256))
def test_placement_pinned(sizes):
    if sizes == "uniform":
        obj_size = np.ones(300)
    else:                                         # runs of equal sizes and lone ones
        obj_size = np.random.default_rng(12).choice([0.5, 1.0, 1.0, 2.0, 2.5], size=140)
        obj_size[40:70] = 1.5
    net = _placement_network(obj_size)
    hosts = place_initial_objects(net, seed=13)
    assert list(hosts) == list(range(net.n_objects))
    assert _digest(list(hosts.values())) == PINNED_PLACEMENT_SHA256[sizes]
    assert np.allclose(net.obj_size @ net.holds + net.free, net.capacity)


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
