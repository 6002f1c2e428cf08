"""k-random-walk query and Hello discovery: the simulator's one walk engine.

One query (or hello sweep) is one logical message: all k walkers share a
message id, and the message remembers which overlay edges it has used,
closed in both directions, so a walker never crosses an edge another walker
of the same message crossed. A walker arriving where all neighbors are down
or already used simply halts.

Walks read `up` and the query's `holds` row as bytes, copied once per walk.
They step over options that `WalkContext` rebuilds only when `up` changes,
which happens at churn: each up node's up neighbors, and for each directed
edge the onward options past it, which leave out the edge back. A walker
keeps the onward options of the edge it arrived by and filters them only
when `used.isdisjoint` says another walker of its message used one of them.
The launch round needs no such check: walkers draw in turn from a copy of
the origin's options and take their pick out of it. Every draw, and so
every walk, is the one a filter of the full neighbor list at every step
would make.

The only randomness in a walk is a MINSTD linear congruential stream, kept
in `WalkContext.state` and stepped inline by the walk, so a walk depends on
nothing but the stream state and the network.
"""

from typing import NamedTuple, Optional

import numpy as np

MINSTD_M = 2147483647  # 2**31 - 1
MINSTD_A = 48271


class QueryOutcome(NamedTuple):
    """What one query found. A NamedTuple: immutable like a frozen
    dataclass, and built once per query at a fraction of its cost."""
    success: bool
    provider: Optional[int]
    path: tuple                    # origin ... provider for the winning walker
    hops_used: int
    probes: int                    # distinct nodes visited, origin included


class WalkContext:
    """The overlay every walk of a run crosses and the run's walk stream.

    `state` is the MINSTD stream state; a walk advances it with
    state = MINSTD_A * state % MINSTD_M per draw and draws index
    (state - 1) % n of the options it has, in CSR order.

    An option is a triple (undirected edge id, neighbor, directed edge j),
    where the undirected id of edge j is min(j, edge_rev[j]). For the `up`
    bytes a walk passes, `up_adjacency` gives each up node its up neighbors
    as a tuple of options, and each directed edge j between up nodes its
    onward options: the options of j's head minus the one back along j,
    paired with the tuple of their undirected edge ids. The walk has always
    used the edge back, so these are a walker's options after crossing j
    unless another walker of its message used one of them. Both structures
    share their triples. They are built on the first walk and rebuilt only
    when `up` differs from the bytes they were built for, which happens at
    churn.
    """

    def __init__(self, overlay, seed):
        self.overlay = overlay
        self.state = (int(seed) * 2654435761 + 88172645463325281) % (MINSTD_M - 1) + 1
        self._up = None
        self._adjacency = self._onward = None

    def up_adjacency(self, up):
        """(options per node, (onward options, edge ids) per directed edge)
        for `up`, the bytes of `net.up`."""
        if up != self._up:
            self._up = self._adjacency = self._onward = None
            ov = self.overlay
            bounds = ov.indptr.tolist()
            nbrs = ov.indices.tolist()
            rev = ov.edge_rev.tolist()
            # one int object per value, shared by every triple that holds it
            ints = list(range(max(len(nbrs), len(bounds))))
            edges = np.minimum(np.arange(len(nbrs)), ov.edge_rev).tolist()
            triples = list(zip(map(ints.__getitem__, edges), map(ints.__getitem__, nbrs), ints))
            adjacency = [tuple([t for t in triples[lo:hi] if up[t[1]]]) if up[v] else ()
                         for v, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
            onward = [None] * len(nbrs)
            for options in adjacency:
                ids = tuple([e[0] for e in options])
                for i, e in enumerate(options):
                    onward[rev[e[2]]] = (options[:i] + options[i + 1:], ids[:i] + ids[i + 1:])
            self._up, self._adjacency, self._onward = up, adjacency, onward
        return self._adjacency, self._onward


def walk(net, ctx, origin, k, ttl, holds_row=None):
    """k-random-walk from `origin`: one message carried by k walkers.

    Walkers advance one hop per round, round-robin in walker-index order.
    A walker picks uniformly among the up neighbors whose edge this message
    has not used, and halts when there is none. With `holds_row`, the first
    walker to arrive at a node whose entry is set wins and the rest halt;
    without it the walk just charts coverage (hello sweep). A node is
    tested on its first visit only: `holds` cannot change during a walk.

    The launch is round one. Only launch edges are used then, so each
    walker draws from what is left of the origin's options and takes its
    pick out, which lands walkers on distinct neighbors. Later, a walker
    keeps the onward options of the edge it arrived by, and filters them
    against the used edges only when `used` shares an edge id with them.
    The walk ends early once every walker has halted.

    `origin` must be up. Returns (paths, winner, visited): the node
    sequence of each walker that launched, the index of the winning walker
    or -1, and the distinct nodes visited in first-visit order, origin
    first. At most the origin's up-degree of walkers launch, however large
    k is. A hit at the origin is walker 0's, with path [origin]; a walk
    with ttl 0 returns no paths.
    """
    up = net.up.tobytes()
    visited = [origin]
    held = bytes(len(up)) if holds_row is None else holds_row.tobytes()
    if held[origin]:
        return [[origin]], 0, visited
    if ttl < 1:
        return [], -1, visited
    adjacency, onward = ctx.up_adjacency(up)
    state = ctx.state
    seen = {origin}
    used = set()
    paths, at = [], []              # per launched walker: path, onward options and ids
    launch = list(adjacency[origin])
    for _ in range(min(k, len(launch))):
        state = MINSTD_A * state % MINSTD_M
        edge, nxt, j = launch.pop((state - 1) % len(launch))
        used.add(edge)
        paths.append([origin, nxt])
        at.append(onward[j])
        seen.add(nxt)
        visited.append(nxt)
        if held[nxt]:
            ctx.state = state
            return paths, len(paths) - 1, visited
    live = range(len(paths))
    for _ in range(ttl - 1):
        if not live:                # every walker halted
            break
        moved = []
        for w in live:
            options, ids = at[w]
            if not used.isdisjoint(ids):
                options = [e for e in options if e[0] not in used]
            if not options:
                continue
            state = MINSTD_A * state % MINSTD_M
            edge, nxt, j = options[(state - 1) % len(options)]
            used.add(edge)
            paths[w].append(nxt)
            at[w] = onward[j]
            moved.append(w)
            if nxt not in seen:
                seen.add(nxt)
                visited.append(nxt)
                if held[nxt]:
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
    """Discover peers within ttl hops via k walkers: the distinct up nodes
    visited, origin excluded, in first-visit order, which is deterministic
    for a fixed stream state."""
    return walk(net, ctx, origin, k, ttl)[2][1:]
