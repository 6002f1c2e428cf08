"""Overlay topology, node attributes, and the array-backed network state.

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

    `indices[indptr[u]:indptr[u+1]]` are u's neighbors in ascending order;
    `edge_rev[j]` is the index of the opposite direction of edge j, needed
    by the walk memo (a message is never pushed back to its sender).
    """

    __slots__ = ("node_count", "indptr", "indices", "edge_rev")

    def __init__(self, node_count, indptr, indices):
        self.node_count = int(node_count)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_rev = _reverse_edges(self.indptr, self.indices)

    @classmethod
    def from_adjacency(cls, adjacency):
        """Build from {node: iterable-of-neighbors}; symmetrizes the input."""
        sets = [set() for _ in range(len(adjacency))]
        for u, nbrs in adjacency.items():
            for v in nbrs:
                if u == v:
                    raise ConfigurationError(f"self-loop on node {u}")
                sets[u].add(v)
                sets[v].add(u)
        return cls.from_neighbor_sets(sets)

    @classmethod
    def from_neighbor_sets(cls, sets):
        """Build from symmetric neighbor sets, `sets[u]` holding u's neighbors."""
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(nbrs) for nbrs in sets])
        indices = np.array([v for nbrs in sets for v in sorted(nbrs)], dtype=np.int64)
        return cls(len(sets), indptr, indices)

    def degrees(self):
        return np.diff(self.indptr)

    def adjacency_sets(self):
        indptr, indices = self.indptr.tolist(), self.indices.tolist()
        return [set(indices[indptr[u]:indptr[u + 1]]) for u in range(self.node_count)]


def _reverse_edges(indptr, indices):
    """Edge v->u for every edge u->v of a symmetric CSR graph.

    Rows are sorted, so ordering the edges by (target, source) lists them
    exactly in the CSR order of their reverses."""
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    rev = np.empty(len(indices), dtype=np.int64)
    rev[np.lexsort((src, indices))] = np.arange(len(indices))
    return rev


def _component_labels(sets, n):
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            u = stack.pop()
            for v in sets[u]:
                if labels[v] < 0:
                    labels[v] = comp
                    stack.append(v)
        comp += 1
    return labels, comp


# a draw is patchable when its giant component already covers this fraction
_GIANT_FRACTION = 0.9


def generate_topology(n, avg_degree, seed, max_retries=64):
    """Connected Erdos-Renyi G(n, p) overlay with p = avg_degree/(n-1).

    A draw that comes out connected is returned as-is. A draw whose giant
    component covers at least 90% of the nodes gets each minor component
    bridged into the giant with one random edge (at moderate densities pure
    retries essentially never connect, and the handful of bridge edges moves
    the mean degree by well under 1%). Sparser draws are retried with a
    fresh derived seed and the whole thing fails with a configuration error
    once retries run out. Deterministic for fixed (n, avg_degree, seed).
    """
    if n < 2:
        raise ConfigurationError(f"node count must be >= 2, got {n}")
    if not 2 <= avg_degree < np.inf:
        raise ConfigurationError(
            f"expected average degree must be finite and >= 2, got {avg_degree}")
    p = min(1.0, avg_degree / (n - 1))
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for child in base.spawn(max_retries):
        rng = np.random.default_rng(child)
        sets = [set() for _ in range(n)]
        for u in range(n):        # sample the upper triangle row by row
            hits = np.nonzero(rng.random(n - u - 1) < p)[0] + u + 1
            for v in hits.tolist():
                sets[u].add(v)
                sets[v].add(u)
        labels, n_comp = _component_labels(sets, n)
        if n_comp > 1:
            sizes = np.bincount(labels, minlength=n_comp)
            giant = int(np.argmax(sizes))
            if sizes[giant] < _GIANT_FRACTION * n:
                continue
            giant_nodes = np.nonzero(labels == giant)[0]
            for comp in range(n_comp):
                if comp == giant:
                    continue
                members = np.nonzero(labels == comp)[0]
                a = int(members[rng.integers(0, len(members))])
                b = int(giant_nodes[rng.integers(0, len(giant_nodes))])
                sets[a].add(b)
                sets[b].add(a)
        return Overlay.from_neighbor_sets(sets)
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
        if not np.all(self.obj_size > 0):
            raise ConfigurationError("object sizes must be positive")

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

    Marks the copy as the original and charges the host's storage. Returns
    {object_id: host}.
    """
    if net.n_objects == 0:
        raise PlacementError("object catalog is empty")
    rng = np.random.default_rng(seed)
    hosts = {}
    for obj in range(net.n_objects):
        eligible = np.nonzero(net.up & (net.free >= net.obj_size[obj]))[0]
        if len(eligible) == 0:
            raise PlacementError(
                f"no up node has {net.obj_size[obj]} free units for object {obj}")
        host = int(eligible[rng.integers(0, len(eligible))])
        net.store_object(host, obj, now_ms=0, original=True)
        hosts[obj] = host
    return hosts
