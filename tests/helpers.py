"""Small hand-built networks for unit tests."""

import numpy as np

from qrepsim.model import Network, Overlay
from qrepsim.search import WalkContext, _Batch


def build_network(adjacency, n_objects=1, bandwidth=100.0, capacity=10.0,
                  up=None, obj_size=1.0, network_class=Network):
    """Network (or a subclass) over an explicit adjacency dict; scalar attrs
    broadcast."""
    overlay = Overlay.from_adjacency(adjacency)
    n = overlay.node_count
    bw = np.full(n, bandwidth, dtype=np.float64) if np.isscalar(bandwidth) \
        else np.asarray(bandwidth, dtype=np.float64)
    cap = np.full(n, capacity, dtype=np.float64) if np.isscalar(capacity) \
        else np.asarray(capacity, dtype=np.float64)
    up_mask = np.ones(n, dtype=np.bool_) if up is None \
        else np.asarray(up, dtype=np.bool_).copy()
    sizes = np.full(n_objects, obj_size, dtype=np.float64) if np.isscalar(obj_size) \
        else np.asarray(obj_size, dtype=np.float64)
    return network_class(overlay, bw, cap, up_mask, sizes)


def stored_size(net, node):
    """Total size of the objects the node stores, recounted from `holds`."""
    return float(net.obj_size @ net.holds[:, node])


def make_ctx(net, seed=1):
    return WalkContext(net.overlay, seed)


def line_network(length=3, n_objects=1, **kwargs):
    adj = {i: [] for i in range(length)}
    for i in range(length - 1):
        adj[i].append(i + 1)
    return build_network(adj, n_objects=n_objects, **kwargs)


def star_network(leaves=5, n_objects=1, **kwargs):
    adj = {0: list(range(1, leaves + 1))}
    adj.update({i: [] for i in range(1, leaves + 1)})
    return build_network(adj, n_objects=n_objects, **kwargs)


def walk(net, ctx, origin, k, ttl, holds_row=None):
    """Message `ctx.message` from an up `origin`, in full, moving `message`
    on by one: the engine's trajectory of one message, for reading paths.

    Returns (paths, winner, visited): the node sequence of each walker that
    launched, the index of the walker whose arrival first reached a node
    set in `holds_row` (-1 for none, or without it), and the distinct nodes
    visited up to there in first-visit order, origin first. With a winner,
    each path ends at the winning slot: `run_query` on this message finds
    the same provider and path. A hit at the origin is walker 0's, with
    path [origin]; ttl 0 launches nobody."""
    graph = ctx.graph(net.up.tobytes())
    msg = ctx.message
    ctx.message = msg + 1
    batch = _Batch(graph, ctx.seed, [msg], [origin], None, k, ttl, ctx._work)
    batch.extend()
    visited = batch.visits(0)
    held = [0] * len(visited) if holds_row is None else holds_row[visited].tolist()
    if held[0]:
        return [[origin]], 0, visited[:1]
    column = [origin] + graph.nbr.take(batch.slots[:, 0]).tolist()
    end, winner = len(column), -1
    if 1 in held:
        hit = held.index(1)
        end = column.index(visited[hit]) + 1
        winner = (end - 2) % batch.k
        visited = visited[:hit + 1]
    paths = [[origin] + [v for v in column[1 + w:end:batch.k] if v >= 0]
             for w in range(min(batch.k, graph.deg.item(origin), end - 1))]
    return paths, winner, visited
