"""k-random-walk query and Hello discovery: the simulator's one walk engine.

One query (or hello sweep) is one logical message: all k walkers share a
message id, and every node they touch remembers, per message, which
neighbors are already involved (both directions of a used edge). A walker
arriving where all neighbors are down or already used simply halts.

The only randomness in a walk is a MINSTD linear congruential stream kept
in an int64 cell whose intermediates stay below 2**63, so a walk depends on
nothing but the stream state and the network.

Per-message state uses stamping instead of clearing: ``edge_stamp[j]``
records the id of the last message forwarded along directed edge j, and
``visit_stamp[v]`` the last message that visited node v. A slot belongs to
the current message iff its stamp equals the message serial, so no O(E)
reset is needed between walks.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

MINSTD_M = 2147483647  # 2**31 - 1
MINSTD_A = 48271


def seed_state(seed):
    """Int64 state cell for the walk stream, derived from any int seed."""
    s = (int(seed) * 2654435761 + 88172645463325281) % (MINSTD_M - 1) + 1
    return np.array([s], dtype=np.int64)


def rng_next(state):
    """Advance the MINSTD stream; returns the new raw value in [1, M-1]."""
    s = (MINSTD_A * state[0]) % MINSTD_M
    state[0] = s
    return s


def rng_below(state, n):
    """Uniform draw in [0, n). Modulo bias is O(n/2**31), negligible here."""
    return (rng_next(state) - 1) % n


def choose_next_hop(indptr, indices, edge_rev, up, edge_stamp, serial, node, state):
    """Pick the next hop for a walker of message `serial` sitting at `node`.

    Eligible neighbors are up and not yet involved with this message at this
    node (edge unstamped). The chosen slot and its reverse edge are stamped,
    so the message is never pushed back to its sender and no two walkers
    reuse a directed edge. Returns -1 when nothing is eligible.
    """
    lo = indptr[node]
    hi = indptr[node + 1]
    n_eligible = 0
    for j in range(lo, hi):
        if up[indices[j]] and edge_stamp[j] != serial:
            n_eligible += 1
    if n_eligible == 0:
        return -1
    pick = rng_below(state, n_eligible)
    for j in range(lo, hi):
        if up[indices[j]] and edge_stamp[j] != serial:
            if pick == 0:
                edge_stamp[j] = serial
                edge_stamp[edge_rev[j]] = serial
                return indices[j]
            pick -= 1
    return -1


def run_walk(indptr, indices, edge_rev, up, holds_row, has_target, origin,
             k, ttl, serial, edge_stamp, visit_stamp, state,
             visited, paths, path_lens):
    """k-random-walk from `origin`; all k walkers share one message id.

    Walkers advance one hop per round, round-robin in walker-index order
    (the launch is round one, which lands walkers on distinct neighbors
    because edges are stamped as they are taken). With has_target, the first
    walker to arrive at a node whose holds_row entry is set wins and the
    rest halt; without it the walk just charts coverage (hello sweep).

    Returns (found, provider, hops, winner, n_visited). `visited` collects
    distinct nodes in first-visit order, origin first; row w of `paths`
    holds walker w's node sequence of length path_lens[w].
    """
    visit_stamp[origin] = serial
    visited[0] = origin
    n_visited = 1
    if has_target and holds_row[origin]:
        paths[0, 0] = origin
        path_lens[0] = 1
        return 1, origin, 0, 0, n_visited

    cur = np.empty(k, dtype=np.int64)
    alive = np.empty(k, dtype=np.bool_)
    for w in range(k):
        cur[w] = origin
        paths[w, 0] = origin
        path_lens[w] = 1
        alive[w] = True

    for hop in range(1, ttl + 1):
        moved = False
        for w in range(k):
            if not alive[w]:
                continue
            nxt = choose_next_hop(indptr, indices, edge_rev, up,
                                  edge_stamp, serial, cur[w], state)
            if nxt < 0:
                alive[w] = False
                continue
            moved = True
            cur[w] = nxt
            paths[w, path_lens[w]] = nxt
            path_lens[w] += 1
            if visit_stamp[nxt] != serial:
                visit_stamp[nxt] = serial
                visited[n_visited] = nxt
                n_visited += 1
            if has_target and holds_row[nxt]:
                return 1, nxt, hop, w, n_visited
        if not moved:
            break
    return 0, -1, 0, -1, n_visited


@dataclass(frozen=True)
class QueryOutcome:
    success: bool
    provider: Optional[int]
    path: tuple                    # origin ... provider for the winning walker
    hops_used: int
    probes: int                    # distinct nodes visited, origin included


class WalkContext:
    """Per-run scratch state for every walk: stamps, buffers, RNG stream."""

    def __init__(self, overlay, seed, max_k, max_ttl):
        n = overlay.node_count
        self.overlay = overlay
        self.edge_stamp = np.zeros(len(overlay.indices), dtype=np.int64)
        self.visit_stamp = np.zeros(n, dtype=np.int64)
        self.rng_state = seed_state(seed)
        self.serial = 0
        self.visited = np.empty(max_k * max_ttl + 1, dtype=np.int64)
        self.paths = np.empty((max_k, max_ttl + 1), dtype=np.int64)
        self.path_lens = np.empty(max_k, dtype=np.int64)
        self._no_target = np.zeros(n, dtype=np.bool_)

    def next_serial(self):
        self.serial += 1
        return self.serial


def run_query(net, ctx, origin, key, k, ttl):
    """Run one query; returns (QueryOutcome, visited-view).

    The visited array is a view into context scratch, valid until the next
    walk; callers that need it later must copy.
    """
    if not net.up[origin]:
        return QueryOutcome(False, None, (), 0, 0), ctx.visited[:0]
    serial = ctx.next_serial()
    ov = ctx.overlay
    found, provider, hops, winner, n_visited = run_walk(
        ov.indptr, ov.indices, ov.edge_rev, net.up, net.holds[key], True,
        origin, k, ttl, serial, ctx.edge_stamp, ctx.visit_stamp,
        ctx.rng_state, ctx.visited, ctx.paths, ctx.path_lens)
    visited = ctx.visited[:n_visited]
    if found:
        path = tuple(int(x) for x in ctx.paths[winner, :ctx.path_lens[winner]])
        return QueryOutcome(True, int(provider), path, int(hops), int(n_visited)), visited
    return QueryOutcome(False, None, (), 0, int(n_visited)), visited


def hello_sweep(net, ctx, origin, k, ttl):
    """Discover peers within ttl hops via k walkers.

    Every distinct up node visited responds once with its current
    (bandwidth, available storage); the origin is excluded. Response order
    is first-visit order, which is deterministic for a fixed stream state.
    """
    if not net.up[origin]:
        return []
    serial = ctx.next_serial()
    ov = ctx.overlay
    _, _, _, _, n_visited = run_walk(
        ov.indptr, ov.indices, ov.edge_rev, net.up, ctx._no_target, False,
        origin, k, ttl, serial, ctx.edge_stamp, ctx.visit_stamp,
        ctx.rng_state, ctx.visited, ctx.paths, ctx.path_lens)
    return [(int(v), float(net.bandwidth[v]), float(net.free[v]))
            for v in ctx.visited[1:n_visited]]
