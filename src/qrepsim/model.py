"""Overlay topology, node attributes, and the array-backed network state.

The overlay is built in whole arrays: a G(n, p) draw samples the upper
triangle in a few blocks of doubles, components are labelled by min-label
propagation over the edge arrays, and the CSR adjacency is assembled from
the edge arrays by one sort. No step loops over nodes in Python.

Store membership, originals, popularity and insertion times are object-major
numpy matrices (n_objects, n_nodes): a query reads one object's `holds` row
and replication scans read across nodes. The request-window counters are
per-node Python structures, a list of ints `n_q` and a list of dicts `rq`:
they are bumped per visited node and read one node at a time, where a list
item or dict entry costs less than a numpy scalar.
"""

import numpy as np

from .errors import ConfigurationError, PlacementError


class Overlay:
    """Static undirected graph in CSR form with precomputed reverse edges.

    Built from two edge arrays `u`, `v` (edge i joins u[i] and v[i]) in
    either direction and with repeats: every edge is stored both ways, rows
    sorted, repeats merged. `indices[indptr[u]:indptr[u+1]]` are u's
    neighbors in ascending order; `edge_rev[j]` is the index of the opposite
    direction of edge j, needed by the walk memo (a message is never pushed
    back to its sender).
    """

    __slots__ = ("node_count", "indptr", "indices", "edge_rev")

    def __init__(self, node_count, u, v):
        n = self.node_count = int(node_count)
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        loops = u == v
        if loops.any():
            raise ConfigurationError(f"self-loop on node {u[loops][0]}")
        if len(u) and not (0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n):
            raise ConfigurationError(f"edge endpoint outside nodes 0..{n - 1}")
        # one key per directed edge: sorting the keys sorts by (source, target)
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        keys = keys[np.diff(keys, prepend=-1) > 0]
        src, self.indices = np.divmod(keys, n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        # ordering the edges by (target, source) lists them exactly in the
        # CSR order of their reverses
        self.edge_rev = np.empty(len(keys), dtype=np.int64)
        self.edge_rev[np.argsort(self.indices * n + src)] = np.arange(len(keys))

    @classmethod
    def from_adjacency(cls, adjacency):
        """Build from {node: iterable-of-neighbors} over nodes 0..len-1."""
        u = [a for a, nbrs in adjacency.items() for _ in nbrs]
        v = [b for nbrs in adjacency.values() for b in nbrs]
        return cls(len(adjacency), u, v)

    def degrees(self):
        return np.diff(self.indptr)

    def adjacency_sets(self):
        indptr, indices = self.indptr.tolist(), self.indices.tolist()
        return [set(indices[indptr[u]:indptr[u + 1]]) for u in range(self.node_count)]


# doubles per `rng.random` call while sampling the upper triangle (1 MB)
_BLOCK = 2 ** 17


def _sample_triangle(rng, n, p):
    """Edges (u, v), u < v, of one G(n, p) draw.

    Pair (u, v) is kept when the double at flat index off[u] + v - u - 1 is
    below p, `off[u]` being the start of row u in the upper triangle read
    row by row: the order in which a loop of `rng.random(n - u - 1)` per row
    draws. PCG64 spends one 64-bit output per double, so drawing the
    triangle in blocks of `_BLOCK` doubles yields those very numbers
    without holding the whole triangle."""
    off = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=off[1:])
    total = n * (n - 1) // 2
    flat = np.concatenate([np.flatnonzero(rng.random(min(_BLOCK, total - start)) < p) + start
                           for start in range(0, total, _BLOCK)])
    u = np.searchsorted(off, flat, side="right") - 1
    return u, flat - off[u] + u + 1


def _component_labels(n, u, v):
    """Component of every node, numbered in the order of its smallest node.

    Min-label propagation over the edges with pointer jumping: each node's
    label is some node of its component no larger than itself, and at the
    fixpoint it is the component's smallest node."""
    labels = np.arange(n)
    a, b = np.concatenate((u, v)), np.concatenate((v, u))
    while True:
        np.minimum.at(labels, a, labels[b])
        labels = labels[labels]
        if np.array_equal(labels[a], labels[b]):
            break
    roots, labels = np.unique(labels, return_inverse=True)
    return labels, len(roots)


# a draw is patchable when its giant component already covers this fraction
_GIANT_FRACTION = 0.9


def generate_topology(n, avg_degree, seed, max_retries=64):
    """Connected Erdos-Renyi G(n, p) overlay with p = avg_degree/(n-1).

    One draw keeps pair (u, v), u < v, when its uniform double is below p.
    The doubles cover the upper triangle row by row (u = 0, 1, ..., and v
    ascending in each row) and come from a few `rng.random` calls of at most
    2**17 doubles each, which give the very numbers a call per row gave.
    Components are numbered in the order of their smallest node.

    A draw that comes out connected is returned as-is. A draw whose giant
    component covers at least 90% of the nodes gets each minor component, in
    that numbering, bridged into the giant with one random edge: a uniformly
    chosen member joined to a uniformly chosen giant node (at moderate
    densities pure retries essentially never connect, and the handful of
    bridge edges moves the mean degree by well under 1%). Sparser draws are
    retried with the next child spawned from the seed, and the whole thing
    fails with a configuration error once `max_retries` draws are spent.
    Deterministic for fixed (n, avg_degree, seed).
    """
    if n < 2:
        raise ConfigurationError(f"node count must be >= 2, got {n}")
    if not 2 <= avg_degree < np.inf:
        raise ConfigurationError(
            f"expected average degree must be finite and >= 2, got {avg_degree}")
    p = min(1.0, avg_degree / (n - 1))
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for _ in range(max_retries):
        rng = np.random.default_rng(base.spawn(1)[0])
        u, v = _sample_triangle(rng, n, p)
        labels, n_comp = _component_labels(n, u, v)
        if n_comp > 1:
            sizes = np.bincount(labels)
            giant = int(np.argmax(sizes))
            if sizes[giant] < _GIANT_FRACTION * n:
                continue
            giant_nodes = np.flatnonzero(labels == giant)
            bridges = []
            for comp in range(n_comp):
                if comp != giant:
                    members = np.flatnonzero(labels == comp)
                    bridges.append((members[rng.integers(0, len(members))],
                                    giant_nodes[rng.integers(0, len(giant_nodes))]))
            a, b = np.array(bridges).T
            u, v = np.concatenate((u, a)), np.concatenate((v, b))
        return Overlay(n, u, v)
    raise ConfigurationError(
        f"could not generate a connected graph (n={n}, avg_degree={avg_degree}) "
        f"after {max_retries} attempts; raise the density or the retry limit")


def sample_node_attributes(topology, n, seed):
    """Per-node (bandwidth, storage_capacity) arrays, deterministic per seed.

    Bandwidth comes from the topology's class mix; storage capacity is an
    integer drawn uniformly from [storage_min, storage_max]."""
    values, weights = topology.bandwidth_profile()
    rng = np.random.default_rng(seed)
    bandwidth = rng.choice(np.array(values, dtype=np.float64), size=n,
                           p=np.array(weights))
    capacity = rng.integers(int(topology.storage_min), int(topology.storage_max) + 1,
                            size=n).astype(np.float64)
    return bandwidth, capacity


class Network:
    """Full mutable simulation state: one overlay plus all per-node tables.

    Store membership, originals, popularity and insertion times are
    (n_objects, n_nodes) matrices. Node v's request window is `n_q[v]`, the
    requests v saw, and `rq[v]`, which maps objects v stores to the requests
    for them v saw (a missing key counts 0). Q-tables are small per-node
    dicts touched only during replication rounds.

    `touched` is the set of nodes whose `holds`, `free` or `pf` column
    changed since an invariant checker last looked (since construction when
    none watches, so it never holds more than `n_nodes` ids).
    `store_object`, `remove_object` and `qrep.update_popularities` are the
    only writers of that state, and each adds its node.
    """

    def __init__(self, overlay, bandwidth, capacity, up, obj_size):
        n = overlay.node_count
        m = len(obj_size)
        self.overlay = overlay
        self.n_nodes = n
        self.n_objects = m
        self.bandwidth = np.asarray(bandwidth, dtype=np.float64)
        self.capacity = np.asarray(capacity, dtype=np.float64)
        self.free = self.capacity.copy()
        self.up = np.asarray(up, dtype=np.bool_).copy()
        self.degree = overlay.degrees().astype(np.int64)
        self.obj_size = np.asarray(obj_size, dtype=np.float64)
        if not np.all((self.obj_size > 0) & (self.obj_size < np.inf)):
            raise ConfigurationError("object sizes must be positive and finite")

        self.holds = np.zeros((m, n), dtype=np.bool_)
        self.original = np.zeros((m, n), dtype=np.bool_)
        self.inserted_at = np.zeros((m, n), dtype=np.int64)
        self.pf = np.zeros((m, n), dtype=np.float64)
        self.replicated = np.zeros((m, n), dtype=np.bool_)

        self.n_q = [0] * n
        self.rq = [dict() for _ in range(n)]
        self.q_tables = [dict() for _ in range(n)]
        self.touched = set()

    # -- store bookkeeping -------------------------------------------------

    def store_object(self, node, obj, now_ms, original=False):
        """Insert a copy; storage accounting stays exact by construction."""
        if self.holds[obj, node]:
            raise PlacementError(f"node {node} already stores object {obj}")
        size = self.obj_size[obj]
        if self.free[node] < size:
            raise PlacementError(
                f"node {node} lacks space for object {obj} ({self.free[node]} < {size})")
        self.holds[obj, node] = True
        self.original[obj, node] = original
        self.inserted_at[obj, node] = now_ms
        self.pf[obj, node] = 0.0
        self.replicated[obj, node] = False
        self.free[node] -= size
        self.touched.add(node)

    def remove_object(self, node, obj):
        if not self.holds[obj, node]:
            raise PlacementError(f"node {node} does not store object {obj}")
        self.holds[obj, node] = False
        self.original[obj, node] = False
        self.inserted_at[obj, node] = 0
        self.pf[obj, node] = 0.0
        self.rq[node].pop(obj, None)
        self.replicated[obj, node] = False
        self.free[node] += self.obj_size[obj]
        self.touched.add(node)

    def replica_counts(self):
        """Per-object replica counts (originals excluded)."""
        return (self.holds & ~self.original).sum(axis=1)


def place_initial_objects(net, seed):
    """Assign each object to one uniformly chosen up node with space.

    Object by object, the host is `rng.integers(0, len(eligible))`-th of the
    ascending ids of the up nodes with room for it. The eligible list is
    rebuilt only when the object size changes; a host it leaves with too
    little room drops out of it. Marks the copy as the original and charges
    the host's storage. Returns {object_id: host}.
    """
    if net.n_objects == 0:
        raise PlacementError("object catalog is empty")
    rng = np.random.default_rng(seed)
    hosts = {}
    size = None
    for obj, obj_size in enumerate(net.obj_size.tolist()):
        if obj_size != size:
            size = obj_size
            eligible = np.flatnonzero(net.up & (net.free >= size)).tolist()
        if not eligible:
            raise PlacementError(f"no up node has {size} free units for object {obj}")
        pick = rng.integers(0, len(eligible))
        host = eligible[pick]
        net.store_object(host, obj, now_ms=0, original=True)
        if net.free[host] < size:
            del eligible[pick]
        hosts[obj] = host
    return hosts
