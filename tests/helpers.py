"""Small hand-built networks for unit tests."""

import numpy as np

from qrepsim.model import Network, Overlay
from qrepsim.search import WalkContext


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
