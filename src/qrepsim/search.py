"""k-random-walk query and Hello discovery: the simulator's one walk engine.

One query (or hello sweep) is one logical message: all k walkers share a
message id, and every node they touch remembers, per message, which
neighbors are already involved (both directions of a used edge). A walker
arriving where all neighbors are down or already used simply halts.

The only randomness in a walk is a MINSTD linear congruential stream, so a
walk depends on nothing but the stream state and the network.
"""

from dataclasses import dataclass
from typing import Optional

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

    The CSR arrays are kept as Python lists, which the walk indexes one
    element at a time much faster than numpy arrays."""

    def __init__(self, overlay, seed):
        self.indptr = overlay.indptr.tolist()
        self.indices = overlay.indices.tolist()
        self.edge_rev = overlay.edge_rev.tolist()
        self.state = (int(seed) * 2654435761 + 88172645463325281) % (MINSTD_M - 1) + 1

    def rng_next(self):
        """Advance the MINSTD stream; returns the new raw value in [1, M-1]."""
        self.state = (MINSTD_A * self.state) % MINSTD_M
        return self.state

    def rng_below(self, n):
        """Uniform draw in [0, n). Modulo bias is O(n/2**31), negligible here."""
        return (self.rng_next() - 1) % n


def walk(net, ctx, origin, k, ttl, holds_row=None):
    """k-random-walk from `origin`: one message carried by k walkers.

    Walkers advance one hop per round, round-robin in walker-index order
    (the launch is round one, which lands walkers on distinct neighbors
    because used edges are closed in both directions). A walker picks
    uniformly among the up neighbors whose edge this message has not used,
    and halts when there is none. With `holds_row`, the first walker to
    arrive at a node whose entry is set wins and the rest halt; without it
    the walk just charts coverage (hello sweep).

    Returns (paths, winner, visited): each walker's node sequence, the
    index of the winning walker or -1, and the distinct nodes visited in
    first-visit order, origin first. A down origin sends nothing.
    """
    up = net.up
    if not up[origin]:
        return [], -1, []
    paths = [[origin] for _ in range(k)]
    visited = [origin]
    if holds_row is not None and holds_row[origin]:
        return paths, 0, visited
    indptr, indices, edge_rev = ctx.indptr, ctx.indices, ctx.edge_rev
    seen = {origin}
    used = set()
    live = range(k)
    for _ in range(ttl):
        moved = []
        for w in live:
            path = paths[w]
            node = path[-1]
            eligible = [j for j in range(indptr[node], indptr[node + 1])
                        if up[indices[j]] and j not in used]
            if not eligible:
                continue
            j = eligible[ctx.rng_below(len(eligible))]
            used.add(j)
            used.add(edge_rev[j])
            nxt = indices[j]
            path.append(nxt)
            moved.append(w)
            if nxt not in seen:
                seen.add(nxt)
                visited.append(nxt)
            if holds_row is not None and holds_row[nxt]:
                return paths, w, visited
        live = moved
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
