"""k-random-walk query and Hello discovery: the simulator's one walk engine.

One query (or hello sweep) is one logical message: all k walkers share a
message id, and the message remembers which overlay edges it has used,
closed in both directions, so a walker never crosses an edge another walker
of the same message crossed. A walker arriving where all neighbors are down
or already used simply halts.

Walks read `up` and the query's `holds` row as bytes, copied once per walk,
and step over an up-filtered adjacency that `WalkContext` rebuilds only
when `up` changes, which happens at churn.

The only randomness in a walk is a MINSTD linear congruential stream, kept
in `WalkContext.state` and stepped inline by the walk, so a walk depends on
nothing but the stream state and the network.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

MINSTD_M = 2147483647  # 2**31 - 1
MINSTD_A = 48271


@dataclass(frozen=True)
class QueryOutcome:
    success: bool
    provider: Optional[int]
    path: tuple                    # origin ... provider for the winning walker
    hops_used: int
    probes: int                    # distinct nodes visited, origin included


class WalkContext:
    """The overlay every walk of a run crosses and the run's walk stream.

    `state` is the MINSTD stream state; a walk advances it with
    state = MINSTD_A * state % MINSTD_M per draw and draws index
    (state - 1) % n. The adjacency a walk steps over lists, for every node
    in CSR order, its up neighbors as (undirected edge id, neighbor) pairs,
    where the undirected id of edge j is min(j, edge_rev[j]). It is built
    on the first walk and rebuilt only when the `up` bytes a walk passes
    differ from the ones it was built for.
    """

    def __init__(self, overlay, seed):
        self.overlay = overlay
        self.state = (int(seed) * 2654435761 + 88172645463325281) % (MINSTD_M - 1) + 1
        self._up = None
        self._adjacency = None

    def up_adjacency(self, up):
        """Each node's up neighbors for `up`, the bytes of `net.up`."""
        if up != self._up:
            ov = self.overlay
            bounds = ov.indptr.tolist()
            nbrs = ov.indices.tolist()
            edges = np.minimum(np.arange(len(nbrs)), ov.edge_rev).tolist()
            self._adjacency = [[(edges[j], nbrs[j]) for j in range(lo, hi) if up[nbrs[j]]]
                               for lo, hi in zip(bounds, bounds[1:])]
            self._up = up
        return self._adjacency


def walk(net, ctx, origin, k, ttl, holds_row=None):
    """k-random-walk from `origin`: one message carried by k walkers.

    Walkers advance one hop per round, round-robin in walker-index order
    (the launch is round one, which lands walkers on distinct neighbors
    because used edges are closed in both directions). A walker picks
    uniformly among the up neighbors whose edge this message has not used,
    and halts when there is none. With `holds_row`, the first walker to
    arrive at a node whose entry is set wins and the rest halt; without it
    the walk just charts coverage (hello sweep). A node is tested on its
    first visit only: `holds` cannot change during a walk.

    Returns (paths, winner, visited): each walker's node sequence, the
    index of the winning walker or -1, and the distinct nodes visited in
    first-visit order, origin first. A down origin sends nothing.
    """
    up = net.up.tobytes()
    if not up[origin]:
        return [], -1, []
    paths = [[origin] for _ in range(k)]
    visited = [origin]
    held = None if holds_row is None else holds_row.tobytes()
    if held is not None and held[origin]:
        return paths, 0, visited
    adjacency = ctx.up_adjacency(up)
    state = ctx.state
    seen = {origin}
    used = set()
    live = range(k)
    for _ in range(ttl):
        moved = []
        for w in live:
            path = paths[w]
            eligible = [e for e in adjacency[path[-1]] if e[0] not in used]
            if not eligible:
                continue
            state = MINSTD_A * state % MINSTD_M
            edge, nxt = eligible[(state - 1) % len(eligible)]
            used.add(edge)
            path.append(nxt)
            moved.append(w)
            if nxt not in seen:
                seen.add(nxt)
                visited.append(nxt)
                if held is not None and held[nxt]:
                    ctx.state = state
                    return paths, w, visited
        live = moved
    ctx.state = state
    return paths, -1, visited


def run_query(net, ctx, origin, key, k, ttl):
    """Run one query; returns (QueryOutcome, visited)."""
    paths, winner, visited = walk(net, ctx, origin, k, ttl, net.holds[key])
    if winner < 0:
        return QueryOutcome(False, None, (), 0, len(visited)), visited
    path = tuple(paths[winner])
    return QueryOutcome(True, path[-1], path, len(path) - 1, len(visited)), visited


def hello_sweep(net, ctx, origin, k, ttl):
    """Discover peers within ttl hops via k walkers.

    Every distinct up node visited responds once with its current
    (bandwidth, available storage); the origin is excluded. Response order
    is first-visit order, which is deterministic for a fixed stream state.
    """
    visited = walk(net, ctx, origin, k, ttl)[2]
    return [(v, float(net.bandwidth[v]), float(net.free[v])) for v in visited[1:]]
