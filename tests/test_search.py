import hashlib
import random
import time

import numpy as np

from qrepsim.model import generate_topology, Network, Overlay
from qrepsim.qrep import QRepParams, build_q_table, init_q_value
from qrepsim.search import WalkContext, hello_sweep, run_query, walk

from helpers import build_network, line_network, make_ctx, star_network


def walker_paths(net, ctx, origin, k, ttl):
    """Node sequence of each walker of a coverage walk from `origin`."""
    return walk(net, ctx, origin, k, ttl)[0]


def test_minstd_stream_matches_reference():
    # one walker, one hop from the hub of a star: every walk draws once, and
    # the draw picks leaf index (s' - 1) % n, s' being the next state
    net = star_network(leaves=7)
    ctx = make_ctx(net, seed=42)
    reference = ctx.state
    for _ in range(100):
        reference = (48271 * reference) % 2147483647
        assert walker_paths(net, ctx, 0, k=1, ttl=1) == [[0, 1 + (reference - 1) % 7]]
        assert ctx.state == reference


def test_walk_draw_range_and_determinism():
    for leaves in (2, 5, 17, 1000):
        net = star_network(leaves=leaves)
        a, b = make_ctx(net, seed=7), make_ctx(net, seed=7)
        picks_a = [walker_paths(net, a, 0, k=1, ttl=1)[0][1] for _ in range(20)]
        picks_b = [walker_paths(net, b, 0, k=1, ttl=1)[0][1] for _ in range(20)]
        assert picks_a == picks_b
        assert all(1 <= leaf <= leaves for leaf in picks_a)
        assert a.state == b.state


def test_context_follows_up_changes_between_walks():
    # one context across walks: its up-filtered adjacency must follow net.up
    net = star_network(leaves=4)
    net.store_object(2, 0, 0)
    ctx = make_ctx(net)
    assert sorted(hello_sweep(net, ctx, 0, k=4, ttl=1)) == [1, 2, 3, 4]
    net.up[2] = False
    for _ in range(5):
        assert sorted(hello_sweep(net, ctx, 0, k=4, ttl=1)) == [1, 3, 4]
        out, visited = run_query(net, ctx, 0, 0, k=4, ttl=1)
        assert not out.success and 2 not in visited
        assert all(2 not in path for path in walker_paths(net, ctx, 0, k=4, ttl=3))
    net.up[2] = True
    net.up[3] = False
    for _ in range(5):
        assert sorted(hello_sweep(net, ctx, 0, k=4, ttl=1)) == [1, 2, 4]
        out = run_query(net, ctx, 0, 0, k=4, ttl=1)[0]
        assert out.success and out.path == (0, 2)


def test_local_hit():
    net = line_network(3)
    net.store_object(0, 0, 0)
    out = run_query(net, make_ctx(net), origin=0, key=0, k=1, ttl=2)[0]
    assert out.success and out.provider == 0
    assert out.path == (0,) and out.hops_used == 0 and out.probes == 1


def test_line_graph_single_walk_is_forced():
    # A-B-C with the object at C: the memo blocks B from sending back to A,
    # so the only legal two-hop walk is A,B,C whatever the stream says
    for seed in range(20):
        net = line_network(3)
        net.store_object(2, 0, 0)
        out = run_query(net, make_ctx(net, seed=seed), origin=0, key=0, k=1, ttl=2)[0]
        assert out.success and out.path == (0, 1, 2) and out.hops_used == 2


def test_line_graph_ttl_exhaustion():
    net = line_network(3)
    net.store_object(2, 0, 0)
    out = run_query(net, make_ctx(net), origin=0, key=0, k=1, ttl=1)[0]
    assert not out.success and out.provider is None
    assert out.path == () and out.probes == 2     # visited A and B


def test_walker_without_eligible_neighbor_halts():
    # two leaves for three walkers: only two launch, and a walker on a leaf
    # cannot go back, so both halt
    net = build_network({0: [1, 2], 1: [], 2: []})
    for seed in range(10):
        assert sorted(hello_sweep(net, make_ctx(net, seed=seed), 0, k=3, ttl=5)) == [1, 2]
        paths = walker_paths(net, make_ctx(net, seed=seed), 0, k=3, ttl=5)
        assert sorted(p[1] for p in paths) == [1, 2]
        assert [len(p) for p in paths] == [2, 2]


def test_walk_ends_when_every_walker_halted():
    # the one walker that launches halts within two steps; ttl has no upper bound
    net = line_network(3)
    start = time.perf_counter()
    assert walk(net, make_ctx(net), 0, 2, 10**7) == ([[0, 1, 2]], -1, [0, 1, 2])
    assert time.perf_counter() - start < 0.1


def test_walk_cost_is_bounded_by_the_origin_up_degree():
    # k has no upper bound either: only the origin's one up neighbor launches
    net = line_network(3)
    start = time.perf_counter()
    assert walk(net, make_ctx(net), 0, 10**6, 4) == ([[0, 1, 2]], -1, [0, 1, 2])
    assert time.perf_counter() - start < 0.1


def test_walker_never_returns_to_sender():
    net = line_network(2)
    out = run_query(net, make_ctx(net), origin=0, key=0, k=2, ttl=3)[0]
    assert not out.success and out.probes == 2
    assert walker_paths(net, make_ctx(net), 0, k=2, ttl=3) == [[0, 1]]
    for trial in range(10):
        net = Network(generate_topology(30, 4.0, seed=trial), np.ones(30),
                      np.ones(30), np.ones(30, dtype=bool), np.ones(1))
        (path,) = walker_paths(net, make_ctx(net, seed=trial), 0, k=1, ttl=6)
        assert all(a != c for a, c in zip(path, path[2:]))


def test_walk_stops_when_ttl_exhausted():
    # a single walker on a ring never meets a used edge, so only ttl stops it
    net = build_network({i: [(i + 1) % 8] for i in range(8)})
    for ttl in range(7):
        out = run_query(net, make_ctx(net), 0, 0, k=1, ttl=ttl)[0]
        assert not out.success and out.probes == ttl + 1
        paths = walker_paths(net, make_ctx(net), 0, k=1, ttl=ttl)
        assert [len(p) for p in paths] == ([ttl + 1] if ttl else [])


def test_down_nodes_invisible():
    net = line_network(3, up=[True, False, True])
    net.store_object(2, 0, 0)
    out = run_query(net, make_ctx(net), origin=0, key=0, k=3, ttl=5)[0]
    assert not out.success and out.probes == 1       # walkers cannot launch


def test_launch_uses_distinct_neighbors():
    net = star_network(leaves=5)
    net.store_object(5, 0, 0)                         # object on one leaf
    out = run_query(net, make_ctx(net), origin=0, key=0, k=5, ttl=1)[0]
    assert out.success and out.probes <= 6
    # with 5 walkers on 5 distinct leaves the object is always found
    for seed in range(10):
        assert run_query(net, make_ctx(net, seed=seed), 0, 0, 5, 1)[0].success


def test_hello_star_one_response_per_leaf():
    net = star_network(leaves=5, bandwidth=56.0, capacity=7.0)
    net.store_object(5, 0, 0)
    responses = hello_sweep(net, make_ctx(net), origin=0, k=5, ttl=1)
    assert sorted(responses) == [1, 2, 3, 4, 5]
    # a new responder enters the Q-table with its current bandwidth and free storage
    params = QRepParams(hello_ttl=1, hello_walkers=5)
    table = build_q_table(net, make_ctx(net), 0, params)
    assert table == {p: init_q_value(56.0, 7.0, params) for p in range(1, 5)} | {
        5: init_q_value(56.0, 6.0, params)}


def test_hello_all_neighbors_down_empty():
    net = star_network(leaves=3, up=[True, False, False, False])
    assert hello_sweep(net, make_ctx(net), 0, k=3, ttl=2) == []


def test_hello_dedupes_across_walkers():
    # diamond: both walkers can reach node 3, it must respond once
    net = build_network({0: [1, 2], 1: [3], 2: [3], 3: []})
    for seed in range(10):
        peers = hello_sweep(net, make_ctx(net, seed=seed), 0, k=2, ttl=2)
        assert len(peers) == len(set(peers))
        assert 0 not in peers


def test_probe_budget_and_path_up_property():
    rng = np.random.default_rng(0)
    for trial in range(15):
        ov = generate_topology(40, 4.0, seed=trial)
        up = rng.random(40) < 0.8
        net = Network(ov, np.full(40, 1.0), np.full(40, 5.0), up, np.ones(2))
        holder = int(rng.integers(0, 40))
        net.up[holder] = True
        net.store_object(holder, 0, 0)
        origin = int(rng.integers(0, 40))
        net.up[origin] = True
        k, ttl = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        out, visited = run_query(net, make_ctx(net, seed=trial), origin, 0, k, ttl)
        assert out.probes <= k * ttl + 1
        assert out.probes == len(visited) == len(set(visited))
        assert all(net.up[v] for v in visited)
        if out.success:
            assert net.holds[0, out.provider]
            assert out.path[0] == origin and out.path[-1] == out.provider
            assert all(net.up[v] for v in out.path)
            assert out.hops_used == len(out.path) - 1 <= ttl


def test_query_reproducible_for_fixed_seed():
    net = build_network({i: [(i + 1) % 10] for i in range(10)})
    net.store_object(7, 0, 0)
    runs = [run_query(net, make_ctx(net, seed=5), 0, 0, 2, 6)[0] for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_no_repeated_directed_edge_per_message():
    # used edges are closed in both directions, so across all walkers of one
    # message each overlay edge is crossed at most once
    for trial in range(10):
        net = Network(generate_topology(30, 4.0, seed=trial), np.ones(30),
                      np.ones(30), np.ones(30, dtype=bool), np.ones(1))
        paths = walker_paths(net, make_ctx(net, seed=trial), 0, k=6, ttl=6)
        moves = [(a, b) for p in paths for a, b in zip(p, p[1:])]
        assert len({frozenset(m) for m in moves}) == len(moves)


def test_walk_outputs_pinned():
    # every walk's (paths, winner, visited, stream state), hashed in order:
    # two sparse ER overlays, where walkers meet used edges mostly at launch,
    # and the complete graph K6, where almost every later step meets them.
    # One context per overlay follows ten `up` flips; k runs past the
    # origin's up-degree, ttl 0-7, holds row or none. A down origin's walk
    # is skipped, as the driver skips it, after its inputs are drawn.
    overlays = [generate_topology(n, 4.0, seed=seed) for n, seed in ((60, 3), (200, 4))]
    overlays.append(Overlay.from_adjacency({u: [v for v in range(6) if v != u]
                                            for u in range(6)}))
    draw = random.Random(9)
    digest = hashlib.sha256()
    for overlay in overlays:
        n = overlay.node_count
        net = Network(overlay, np.ones(n), np.ones(n), np.ones(n, dtype=bool), np.ones(1))
        ctx = WalkContext(overlay, seed=n)
        holds = np.array([draw.random() < 0.05 for _ in range(n)])
        holds[-1] = True
        for _flip in range(10):
            net.up[:] = [draw.random() < 0.85 for _ in range(n)]
            for _ in range(100):
                origin = int(draw.random() * n)
                k, ttl = 1 + int(draw.random() * 9), int(draw.random() * 8)
                row = holds if draw.random() < 0.5 else None
                if not net.up[origin]:
                    continue
                paths, winner, visited = walk(net, ctx, origin, k, ttl, row)
                digest.update(repr((paths, winner, visited, ctx.state)).encode())
    assert digest.hexdigest() == "e003da03b736fae9633a3c755871385b820751727553d3029694ab33b7492387"
