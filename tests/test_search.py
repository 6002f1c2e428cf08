import hashlib
import random
import time

import numpy as np
import pytest

from qrepsim.model import generate_topology, Network, Overlay
from qrepsim.qrep import QRepParams, build_q_table, init_q_value
from qrepsim import search
from qrepsim.search import (SWEEP, WalkContext, draws, hello_sweep, message_keys, run_query,
                            walk)

from helpers import build_network, line_network, make_ctx, star_network


def walker_paths(net, ctx, origin, k, ttl):
    """Node sequence of each walker of a coverage walk from `origin`."""
    return walk(net, ctx, origin, k, ttl)[0]


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def _draw(seed, msg, hop, walker):
    """The keyed draw, in plain integer arithmetic."""
    key = _mix(seed ^ _mix(msg))
    return _mix((key + ((hop << 32) + walker + 1) * 0x9E3779B97F4A7C15) % 2**64)


def test_keyed_draws_match_formula():
    rng = random.Random(21)
    for _ in range(200):
        msg = rng.choice((rng.randrange(10**6), SWEEP | rng.randrange(2**40)))
        seed, hop, walker = rng.randrange(2**32), rng.randrange(50), rng.randrange(10)
        got = draws(message_keys(seed, [msg]), hop, walker + 1)
        assert got.dtype == np.uint64 and int(got[walker, 0]) == _draw(seed, msg, hop, walker)
    # one walker, one hop from the hub of a star: message m picks leaf
    # draw % 7 in CSR order, whatever the messages around it drew
    net = star_network(leaves=7)
    ctx = make_ctx(net, seed=42)
    for msg in range(100):
        assert walker_paths(net, ctx, 0, k=1, ttl=1) == [[0, 1 + _draw(42, msg, 0, 0) % 7]]
    assert ctx.message == 100


def test_walk_draw_range_and_determinism():
    for leaves in (2, 5, 17, 1000):
        net = star_network(leaves=leaves)
        a, b = make_ctx(net, seed=7), make_ctx(net, seed=7)
        picks_a = [walker_paths(net, a, 0, k=1, ttl=1)[0][1] for _ in range(20)]
        picks_b = [walker_paths(net, b, 0, k=1, ttl=1)[0][1] for _ in range(20)]
        assert picks_a == picks_b
        assert all(1 <= leaf <= leaves for leaf in picks_a)
        assert a.message == b.message == 20


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
    # A-B-C with the object at C: B cannot send back along the edge it was
    # reached by, so the only legal two-hop walk is A,B,C whatever the draws
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


@pytest.mark.parametrize("up_leaves", [1, 2, 3, 5, 8, 14, 15, 31, 64])
def test_launch_matches_a_list_oracle(up_leaves):
    # walker w of the hub's message lands on remaining.pop(draw % len(remaining)),
    # `remaining` being the hub's up options in CSR order that walkers before
    # it left; walkers past the hub's up-degree do not launch. A down leaf
    # sits after every third up one, so up options are not all options.
    leaves = up_leaves + up_leaves // 3
    up = [True] + [(v % 4) != 0 for v in range(1, leaves + 1)]
    while sum(up) - 1 > up_leaves:
        up[up.index(True, 1)] = False
    while sum(up) - 1 < up_leaves:
        up[up.index(False)] = True
    net = star_network(leaves=leaves, up=up)
    ov = net.overlay
    options = [v for v in ov.indices[ov.indptr[0]:ov.indptr[1]].tolist() if up[v]]
    for seed in (3, 8):
        ctx = make_ctx(net, seed=seed)
        for msg in range(45):
            k = 1 + msg % 9
            paths = walker_paths(net, ctx, 0, k=k, ttl=1)
            remaining = list(options)
            expected = [remaining.pop(int(d) % len(remaining))
                        for d in draws(message_keys(seed, [msg]), 0, k)[:min(k, up_leaves), 0]]
            assert [p[1] for p in paths] == expected


def test_engine_keeps_integer_dtypes(monkeypatch):
    # NumPy 1.x promotes mixed integer operands by value, NumPy 2 by type
    # (NEP 50): whatever the version, the stores keep their dtypes and the
    # launch and the exact step return integer slots, on K6 (where almost
    # every step after the launch is tangled) and on an ER overlay
    returned = []
    for name in ("_launch", "_untangle"):
        method = getattr(search._Batch, name)

        def spy(self, *args, method=method):
            out = method(self, *args)
            returned.append(out.dtype)
            return out
        monkeypatch.setattr(search._Batch, name, spy)
    k6 = Overlay.from_adjacency({u: [v for v in range(6) if v != u] for u in range(6)})
    for overlay in (k6, generate_topology(60, 4.0, seed=2)):
        n = overlay.node_count
        graph = search._UpGraph(overlay, np.ones(n, dtype=bool))
        batch = search._Batch(graph, 5, range(40), [m % n for m in range(40)], None, 6, 5)
        batch.extend()
        assert batch.keys.dtype == np.uint64 and batch.seen.dtype == np.uint8
        for array in (batch.slots, batch.packed):
            assert array.dtype == np.int32
        assert graph.onward.dtype == np.uint64 and graph.bit.dtype == np.uint8
    assert len(returned) > 2 and all(np.issubdtype(t, np.integer) for t in returned)
    # the plan keeps the schedule's int32 ids; a batch planned from them holds
    # its targets as int64, so targets * n + node cannot overflow
    net = Network(k6, np.ones(6), np.full(6, 5.0), np.ones(6, dtype=bool), np.ones(3))
    ctx = WalkContext(k6, seed=5)
    ctx.plan(np.arange(40, dtype=np.int32) % 6, np.arange(40, dtype=np.int32) % 3)
    batch, _ = ctx.query_batch(net, 0, 0, 6, 5)
    assert ctx.origins.dtype == ctx.targets.dtype == np.int32
    assert batch.targets.dtype == np.int64 and batch.size == 40


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


def test_planned_sweep_epoch_answers_other_walker_counts_and_ttls():
    # a planned epoch keeps one batch of its sweeps; a read with other k or
    # ttl still gets the sweep it asked for
    net = star_network(leaves=5)
    ctx = make_ctx(net)
    ctx.sweep([3, 0])
    assert sorted(hello_sweep(net, ctx, 0, k=5, ttl=1)) == [1, 2, 3, 4, 5]
    assert hello_sweep(net, ctx, 3, k=5, ttl=1) == [0]
    assert len(hello_sweep(net, ctx, 0, k=2, ttl=1)) == 2
    assert len(hello_sweep(net, ctx, 3, k=1, ttl=2)) == 2


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
    # every walk's (paths, winner, visited), hashed in order: two sparse ER
    # overlays, where walkers meet used edges mostly at launch, and the
    # complete graph K6, where almost every later step meets them. One
    # context per overlay follows ten `up` flips; k runs past the origin's
    # up-degree, ttl 0-7, holds row or none. A down origin's walk is
    # skipped, as the driver skips it, after its inputs are drawn.
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
                digest.update(repr(walk(net, ctx, origin, k, ttl, row)).encode())
    assert digest.hexdigest() == "25dc13d73fac370f8e2f465658b10b583f5d49123d09c229956e1dac1776c3d0"


def _overlays():
    """Random graphs of several densities, and K6."""
    graphs = [generate_topology(n, d, seed=s)
              for n, d, s in ((30, 4.0, 1), (60, 4.0, 2), (40, 8.0, 3), (200, 3.0, 4))]
    return graphs + [Overlay.from_adjacency({u: [v for v in range(6) if v != u]
                                             for u in range(6)})]


@pytest.mark.parametrize("overlay", _overlays(), ids=lambda ov: f"n{ov.node_count}")
def test_walker_rules(overlay):
    # slots go round-robin, no edge is crossed twice per message, a walker
    # halts only with no option left, launches land on distinct neighbors,
    # and a walk visits at most k * ttl + 1 peers
    n = overlay.node_count
    rng = random.Random(n)
    net = Network(overlay, np.ones(n), np.ones(n), np.ones(n, dtype=bool), np.ones(1))
    ctx = WalkContext(overlay, seed=7)
    adjacency = overlay.adjacency_sets()
    for _ in range(60):
        net.up[:] = [rng.random() < 0.85 for _ in range(n)]
        origin = rng.randrange(n)
        net.up[origin] = True
        k, ttl = rng.randint(1, 9), rng.randint(1, 8)
        paths, winner, visited = walk(net, ctx, origin, k, ttl)
        options = [v for v in adjacency[origin] if net.up[v]]
        assert winner == -1 and len(paths) == min(k, len(options))
        assert len({p[1] for p in paths}) == len(paths)
        moves = [frozenset(m) for p in paths for m in zip(p, p[1:])]
        assert len(set(moves)) == len(moves)
        slots = [p[hop] for hop in range(1, ttl + 1) for p in paths if len(p) > hop]
        assert visited == list(dict.fromkeys([origin] + slots))
        assert len(visited) <= k * ttl + 1 and all(net.up[v] for v in visited)
        for p in paths:
            assert len(p) <= ttl + 1 and all(b in adjacency[a] for a, b in zip(p, p[1:]))
            if len(p) < ttl + 1:             # halted: every up edge at its end is used
                assert all(frozenset((p[-1], v)) in moves
                           for v in adjacency[p[-1]] if net.up[v])


@pytest.mark.parametrize("overlay", _overlays(), ids=lambda ov: f"n{ov.node_count}")
def test_trajectories_nest_across_ttl(overlay):
    # a ttl-t trajectory is the first t hops of the ttl-(t+1) one
    n = overlay.node_count
    rng = random.Random(n + 1)
    net = Network(overlay, np.ones(n), np.ones(n), np.ones(n, dtype=bool), np.ones(1))
    for msg in range(20):
        origin, k = rng.randrange(n), rng.randint(1, 8)
        walks = []
        for ttl in range(8):
            ctx = WalkContext(overlay, seed=3)
            ctx.message = msg
            walks.append(walk(net, ctx, origin, k, ttl))
        for (short, _, seen), (long, _, more) in zip(walks, walks[1:]):
            assert len(long) >= len(short)
            assert all(p == q[:len(p)] and len(q) <= len(p) + 1 for p, q in zip(short, long))
            assert more[:len(seen)] == seen


def test_query_matches_the_walk_of_its_message():
    # a query batch resolves message m as a walk of message m does, with the
    # same provider, path and visited nodes however far the batch computed,
    # also when a copy its batch saw is gone by the query's event
    rng = random.Random(5)
    overlay = generate_topology(80, 4.0, seed=5)
    net = Network(overlay, np.ones(80), np.full(80, 5.0), np.ones(80, dtype=bool),
                  np.ones(3))
    for node in rng.sample(range(80), 12):
        net.store_object(node, rng.randrange(3), 0)
    origins = [rng.randrange(80) for _ in range(300)]
    keys = [rng.randrange(3) for _ in range(300)]
    ctx = WalkContext(overlay, seed=11)
    ctx.plan(origins, keys)
    for msg, (origin, key) in enumerate(zip(origins, keys)):
        ctx.message = msg
        outcome, visited = run_query(net, ctx, origin, key, 4, 5)
        alone = WalkContext(overlay, seed=11)
        alone.message = msg
        paths, winner, seen = walk(net, alone, origin, 4, 5, net.holds[key])
        assert visited == seen and outcome.probes == len(seen)
        assert outcome.path == (tuple(paths[winner]) if winner >= 0 else ())
        if msg % 3 == 0 and outcome.hops_used:
            net.remove_object(outcome.provider, key)    # later queries look further
