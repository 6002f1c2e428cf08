"""The replication engine: popularity accounting, Q-table lifecycle, site
selection, transfer with eviction, rewards, and Q-value updates.

Replication rounds are atomic within one scan event: a source with objects
to replicate refreshes its Q-table, selects target sites above the mean
Q-value, transfers, then learns from the targets that stored the copy,
reading their degree, bandwidth and free storage from the network. Nothing
writes to a target between its store and that update: the targets of one
transfer are distinct and an eviction touches only the node it makes room on.
A peer that already holds the object is never a candidate, and its Q-value
is left as it is.

Only `run_replication_round` marks a source's copy `replicated`: once a
placement of it lands, or when selection probes nobody because every peer
at or above the mean is up and holds the object. Either way later scans
skip the copy, unless `rereplicate_on_threshold` is set, which never reads
the mark.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .search import hello_sweep


@dataclass(frozen=True)
class QRepParams:
    """Q-replication constants, checked when built (by `replace` too)."""

    eta: float = 0.5               # popularity learning constant, in (0,1)
    alpha: float = 0.5             # Q learning rate, in (0,1)
    w1: float = 0.4                # degree weight
    w2: float = 0.2                # bandwidth weight (strictly smallest)
    w3: float = 0.4                # storage weight
    b_min: float = 56.0            # system minimum bandwidth unit
    s_min: float = 1.0             # system minimum storage unit
    d_min: float = 2.0             # system minimum degree threshold
    p_th: float = 5.0              # popularity threshold for replication
    delta: float = 1000.0          # seconds between replication scans
    update_every: int = 50         # requests between popularity refreshes
    hello_ttl: int = 2             # hop limit for candidate discovery
    hello_walkers: int = 6
    reward_floor: bool = False     # floor each reward term before summing
    rereplicate_on_threshold: bool = False

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ConfigurationError(f"eta must be in (0,1), got {self.eta}")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")
        for name in ("w1", "w2", "w3", "b_min", "s_min", "d_min", "delta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be in (0, inf), got {getattr(self, name)}")
        if abs(self.w1 + self.w2 + self.w3 - 1.0) > 1e-9:
            raise ConfigurationError(
                f"weights must sum to 1 (w1+w2+w3 = {self.w1 + self.w2 + self.w3})")
        if not (self.w2 < self.w1 and self.w2 < self.w3):
            raise ConfigurationError(
                f"w2 must be strictly smaller than w1 and w3, got "
                f"({self.w1}, {self.w2}, {self.w3})")
        if not 0.5 < self.delta * 1000 < 2 ** 53:
            raise ConfigurationError(
                f"delta must round to at least 1 ms and stay below 2**53 ms, got {self.delta} s")
        if not 0 <= self.p_th < math.inf:
            raise ConfigurationError(f"p_th must be nonnegative and finite, got {self.p_th}")
        if self.update_every < 1 or self.hello_ttl < 1 or self.hello_walkers < 1:
            raise ConfigurationError("update_every, hello_ttl and hello_walkers must be >= 1")


# -- popularity ------------------------------------------------------------

def record_visits(net, visited, obj):
    """Bump per-node request counters for one query's visited set."""
    held = net.holds[obj].tobytes()
    n_q, rq = net.n_q, net.rq
    for v in visited:
        n_q[v] += 1
        if held[v]:
            counts = rq[v]
            counts[obj] = counts.get(obj, 0) + 1


def refresh_due(net, visited, params):
    """Refresh the popularities of visited nodes whose request window is
    full, in visit order; returns how many were due."""
    every = params.update_every
    n_q = net.n_q
    due = [v for v in visited if n_q[v] >= every]
    for v in due:
        update_popularities(net, v, params)
    return len(due)


def update_popularities(net, node, params):
    """Refresh the popularity of each copy requested in the node's window.

    popularity += eta * (object requests / node requests) * 100, then the
    window counters reset. Unrequested copies would add 0 and are skipped.
    """
    nq = net.n_q[node]
    counts, pf = net.rq[node], net.pf
    if counts:
        for obj, r in counts.items():
            pf[obj, node] += params.eta * (r / nq) * 100.0
        counts.clear()
        net.touched.add(node)
    net.n_q[node] = 0


def wants_copies(net, params, nodes=slice(None)):
    """Mask of held copies at `nodes` (a node id or a slice of the node axis)
    whose popularity reached the threshold and that still need copies."""
    mask = net.holds[:, nodes] & (net.pf[:, nodes] >= params.p_th)
    if not params.rereplicate_on_threshold:
        mask &= ~net.replicated[:, nodes]
    return mask


def scan_for_replication(net, node, params, now_ms):
    """Objects the node should replicate now: most popular first (ties by
    object id). A copy stored at `now_ms` or later waits for the next scan."""
    objs = np.nonzero(wants_copies(net, params, node)
                      & (net.inserted_at[:, node] < now_ms))[0]
    return objs[np.lexsort((objs, -net.pf[objs, node]))].tolist()


# -- Q-table ---------------------------------------------------------------

def init_q_value(bandwidth, storage_available, params):
    """Initial rank of a freshly discovered peer from its reported resources."""
    return (bandwidth / params.b_min + storage_available / params.s_min) * 100.0


def build_q_table(net, ctx, node, params):
    """Hello-sweep the neighborhood and merge responders into the Q-table.
    The sweep is this node's in the current sweep epoch, which the driver
    computes for every source as a scan, or the initial build, starts.

    New peers enter with the initial Q-value of their current bandwidth and
    free storage; peers already known keep their learned value. Known peers
    that missed this sweep are retained."""
    table = net.q_tables[node]
    for peer in hello_sweep(net, ctx, node, params.hello_walkers, params.hello_ttl):
        if peer not in table:
            table[peer] = init_q_value(net.bandwidth.item(peer), net.free.item(peer),
                                       params)
    return table


# -- selection and transfer --------------------------------------------------

def select_target_sites(net, node, object_key, params, now_ms):
    """Pick replication targets from a nonempty Q-table: Q-value >= table
    mean, best first. `params` and `now_ms` are unread; perfbench wraps this
    signature positionally.

    A candidate is a peer at or above the mean that is down or does not hold
    the object; holders are left out before sorting, unprobed. Candidates go
    best first (ties by peer id). Returns (targets, probes) where probes is
    [(peer, status)] with status selected or down, in candidate order.
    """
    table = net.q_tables[node]
    avg_q = sum(table.values()) / len(table)
    up = net.up.tobytes()
    held = net.holds[object_key].tobytes()
    candidates = sorted((-q, p) for p, q in table.items()
                        if q >= avg_q and (not up[p] or not held[p]))
    targets = [p for _neg_q, p in candidates if up[p]]
    probes = [(p, "selected" if up[p] else "down") for _neg_q, p in candidates]
    return targets, probes


def evict_for_space(net, node, needed):
    """Free at least `needed` units by dropping replicas, never originals.

    Victims go in ascending popularity, ties oldest insertion first, then
    lowest object id. Returns the dropped object ids. Callers call it only
    when the node is short of space. When `needed` exceeds the node's
    capacity, or evicting every replica would not make room, it drops
    nothing and returns []; the caller sees `free < needed` still."""
    if needed > net.capacity[node]:
        return []
    col = net.holds[:, node] & ~net.original[:, node]
    evictable = np.nonzero(col)[0]
    if net.free[node] + net.obj_size[evictable].sum() < needed:
        return []
    order = evictable[np.lexsort((evictable, net.inserted_at[evictable, node],
                                  net.pf[evictable, node]))]
    removed = []
    for obj in order.tolist():
        if net.free[node] >= needed:
            break
        net.remove_object(node, obj)
        removed.append(obj)
    return removed


def replicate_object(net, source, object_key, targets, now_ms):
    """Transfer the object to each selected target; returns the targets that
    stored it, in order.

    Targets come from `select_target_sites`, so they are up; those that
    cannot make space are skipped. `source` is unread; perfbench reads
    `targets` by position."""
    size = net.obj_size[object_key]
    stored = []
    for target in targets:
        if net.free[target] < size:
            evict_for_space(net, target, size)
            if net.free[target] < size:
                continue
        net.store_object(target, object_key, now_ms)
        stored.append(target)
    return stored


# -- learning ----------------------------------------------------------------

def compute_reward(degree, bandwidth, storage_available, params):
    """Reinforcement from a target's post-store attributes.

    Terms are degree/(d_min*w1), bandwidth/(b_min*w2), storage/(s_min*w3),
    summed and scaled by 100; w2 being smallest makes bandwidth dominate.
    The bracketed terms read as grouping; reward_floor switches to the
    floor-each-term reading for sensitivity runs."""
    t1 = degree / (params.d_min * params.w1)
    t2 = bandwidth / (params.b_min * params.w2)
    t3 = storage_available / (params.s_min * params.w3)
    if params.reward_floor:
        return float(math.floor(t1) + math.floor(t2) + math.floor(t3)) * 100.0
    return (t1 + t2 + t3) * 100.0


def update_q_placed(q, reward, alpha):
    """Q-value of a peer that stored the replica: q + alpha * (reward - q)."""
    return q + alpha * (reward - q)


def update_q_down(q, alpha):
    """Q-value of a peer found down: heavy punishment, q * (1 - alpha)."""
    return q * (1.0 - alpha)


def apply_round_updates(net, source, probes, stored, params):
    """Apply learning results of one round to the source's Q-table.

    Peers in `stored` learn from the reward of their degree, bandwidth and
    free storage after the store, and down peers are punished. Everyone else
    keeps its value: selected peers that stored nothing, holders of the
    object (never probed) and peers below the mean."""
    table = net.q_tables[source]
    for peer, status in probes:
        if status == "down":
            table[peer] = update_q_down(table[peer], params.alpha)
        elif peer in stored:
            rho = compute_reward(net.degree.item(peer), net.bandwidth.item(peer),
                                 net.free.item(peer), params)
            table[peer] = update_q_placed(table[peer], rho, params.alpha)


def run_replication_round(net, ctx, source, params, now_ms):
    """Full round for one node: scan, refresh the table, replicate.

    A table that is still empty after the sweep (nobody answered, nobody
    known) ends the round: tables never shrink, so no later object could
    find a target either.

    The source's copy is marked `replicated` once a placement lands, and
    also when its selection probes nobody (every peer at or above the mean
    is up and holds it); such an object gets no transfer and no update,
    both of which would do nothing."""
    selected = scan_for_replication(net, source, params, now_ms)
    if not selected or not build_q_table(net, ctx, source, params):
        return
    for obj in selected:
        targets, probes = select_target_sites(net, source, obj, params, now_ms)
        stored = []
        if probes:
            stored = replicate_object(net, source, obj, targets, now_ms)
            apply_round_updates(net, source, probes, stored, params)
        if stored or not probes:
            net.replicated[obj, source] = True
