"""k-random-walk query and Hello discovery: the simulator's one walk engine.

One query (or Hello sweep) is one logical message: all k walkers share a
message id, and the message remembers which overlay edges it has used,
closed in both directions, so a walker never crosses an edge another walker
of the same message crossed. Walkers step round-robin, hop 0 of walkers
0..k-1 first, then hop 1, and so on: a (hop, walker) pair is a slot. A
walker picks uniformly among the up neighbors whose edge its message has
not used, and halts when there is none. Hop 0 is the launch, so at most the
origin's up-degree of walkers launch, however large k is.

Every draw is keyed: slot (hop, walker) of message `msg` draws a
counter-based hash of (run seed, msg, hop, walker) (`message_keys`,
`draws`), and picks option draw % options in CSR order. A walk reads
`up`, its origin and its own draws, never `holds`, so a message's
trajectory is a pure function of (seed, msg, origin, up, k): a ttl-t
trajectory is the first t hops of the ttl-(t+1) one. `holds` decides only
where a query stops: its outcome is the first node, in slot order and
origin first, that holds the object at the query's own event, and its
visited set is the distinct nodes up to that node, in first-visit order.

So the engine computes trajectories ahead, in a `_Batch` of messages at a
time, with numpy, one hop at a time and vectorised over the walkers still
on a node: a walker that halted or never launched costs nothing. A walker
whose node its message has visited only once can only have used the edge
it arrived by, so it draws among the others directly; the full used-edge
test runs only for the messages with a walker on a node visited twice. A
bitset per message marks the nodes it visited. A query batch holds the
next `CHUNK` messages of the planned schedule and computes each of them up
to its first holder under `holds` at that moment. When a query, at its own
event, needs more, its message is computed again from the launch: the
same draws write the same slots, so no state is kept to resume a walk
from. How far the engine computed never changes an outcome.
Batches are rebuilt when `up` changes, which happens at churn. Hello
sweeps read no `holds` and have message ids of their own: the first read
of a sweep epoch computes the sweeps of every origin it planned in one batch.
"""

from functools import partial
from typing import NamedTuple, Optional

import numpy as np

CHUNK = 1024                    # query messages per batch
SWEEP = 1 << 63                 # Hello sweep ids: SWEEP | epoch << 32 | origin

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U = np.uint64


def _mix(z):
    """SplitMix64's finalizer over a uint64 array, in place, mod 2**64."""
    z ^= z >> _U(30)
    z *= _U(_MIX1)
    z ^= z >> _U(27)
    z *= _U(_MIX2)
    z ^= z >> _U(31)
    return z


def message_keys(seed, msgs):
    """Per-message keys mix(seed ^ mix(msg)), as a uint64 array."""
    keys = _mix(np.array(msgs, dtype=np.uint64))
    keys ^= _U(seed)
    return _mix(keys)


def _salts(hop, k):
    """(hop * 2**32 + w + 1) * golden mod 2**64 for walkers w < k."""
    return np.array([((hop << 32) + w + 1) * _GOLDEN & _MASK for w in range(k)],
                    dtype=np.uint64)


def draws(keys, hop, k):
    """Draws of slots (hop, 0) .. (hop, k-1) for messages with these keys,
    one row per walker: mix(key + (hop * 2**32 + w + 1) * golden) mod 2**64."""
    return _mix(_salts(hop, k)[:, None] + keys)


class QueryOutcome(NamedTuple):
    """What one query found. A NamedTuple: immutable like a frozen
    dataclass, and built once per query at a fraction of its cost."""
    success: bool
    provider: Optional[int]
    path: tuple                    # origin ... provider for the winning walker
    hops_used: int
    probes: int                    # distinct nodes visited, origin included


_outcome = partial(tuple.__new__, QueryOutcome)   # QueryOutcome(*fields), without a frame


class _UpGraph:
    """The overlay restricted to up nodes, in CSR order: the options of an
    up node v are slots start[v] .. start[v] + deg[v] - 1, each with its
    neighbor `nbr` and the undirected edge id `und` both directions share.
    Down nodes have no options. Per slot s, reached from node v, `onward`,
    `base` and `back` give the step on from nbr[s] that does not go back:
    option pick < onward[s] is slot base[s] + pick + (pick >= back[s]), -1 at
    a leaf. Slot -1 stands for none, and the per-slot arrays end in its
    entry: `nbr` and `und` -1, and a step on to -1."""

    def __init__(self, overlay, up):
        n = overlay.node_count
        src = np.repeat(np.arange(n), np.diff(overlay.indptr))
        keep = up[src] & up[overlay.indices]
        kept = np.flatnonzero(keep)
        compact = np.cumsum(keep) - 1
        self.n = n
        self.deg = np.bincount(src[kept], minlength=n)
        start = np.zeros(n, dtype=np.int64)
        np.cumsum(self.deg[:-1], out=start[1:])
        nbr = overlay.indices[kept].astype(np.int64)
        onward = self.deg[nbr] - 1
        on = onward > 0
        back = compact[overlay.edge_rev[kept]] - start[nbr]
        # index arrays are int64, numpy's index type on 64-bit hosts, so
        # gathers through them need no cast
        self.start = start
        self.nbr = np.append(nbr, -1)
        self.und = np.append(np.minimum(kept, overlay.edge_rev[kept]), -1).astype(np.int64)
        self.onward = np.append(np.maximum(onward, 1), 1).astype(np.uint64)
        self.base = np.append(np.where(on, start[nbr], -1), -1).astype(np.int64)
        self.back = np.append(np.where(on, back, 1), 1).astype(np.int64)
        # a `seen` row has bit v % 8 of byte v // 8 for node v, and a last
        # byte that node -1 of the next row reads with bit 0, so never sets
        self.width = n // 8 + 2
        self.bit = np.append(np.uint8(1) << (np.arange(n) % 8).astype(np.uint8), np.uint8(0))


class _Batch:
    """Trajectories of a batch of messages under one `up`, computed hop by hop.

    `slots` is slot-major, one column per message: row hop * k + w holds
    the up-graph slot that slot (hop, w) crossed, -1 for a walker that
    halted or never launched, so `graph.nbr` of it is the node reached.
    It has room for min(ttl, up edges + 1) hops: a hop that moves a walker
    crosses an up edge its message never crossed, and the hop after the
    last such hop halts every walker. `seen` has a row of `graph.width`
    bytes per message with bit v % 8 of byte v // 8 set for every node v it
    visited, and `done` marks a message whose walkers all halted or that
    reached its ttl. `packed` holds the first visits of each message,
    origin first, `counts` of them at the front of its row."""

    def __init__(self, graph, seed, ids, origins, targets, k, ttl):
        self.graph, self.ttl = graph, ttl
        # int64, so that targets * n + node cannot overflow in any dtype given
        self.targets = None if targets is None else np.asarray(targets, dtype=np.int64)
        self.first_id, self.size, self.asked = ids[0], len(ids), (k, ttl)
        self.keys = message_keys(seed, ids)
        origins = np.asarray(origins, dtype=np.int64)
        deg = graph.deg[origins]
        self.k = min(k, int(deg.max())) if ttl > 0 else 0
        size = self.size
        self.done = (deg == 0) | (self.k == 0)
        hops = min(ttl, int(graph.deg.sum()) // 2 + 1)
        self.slots = np.full((hops * self.k, size), -1, dtype=np.int32)
        self.seen = np.zeros(size * graph.width, dtype=np.uint8)
        self.packed = np.zeros((size, 1 + hops * self.k), dtype=np.int32)
        self.packed[:, 0] = origins
        self.counts = np.ones(size, dtype=np.int64)

    def extend(self, holds=None, first=0):
        """Compute the messages from index `first` on that are not done and,
        with `holds`, have no visited node holding their object, from their
        launch on; a message stops as soon as one does. A message taken up
        again recomputes the hops it had: its trajectory writes the same
        slots, so only its `seen` row and its count start again.

        The messages in flight keep their state compact, in `flight`: the
        message, its key, its `seen` row, its object's row of `holds`,
        whether its last hop arrived twice and its count of first visits.
        Their walkers that stand on a node are kept flat, walker by walker,
        in `walkers`: walker index, entry of its message in `flight` and
        the slot it crossed last. A message leaves when it stops; a walker
        leaves when it halts."""
        todo = np.arange(first, self.size)[~self.done[first:]]
        if holds is not None and len(todo):
            counts = self.counts[todo]
            nodes = self.packed[todo, :int(counts.max())]
            held = holds.reshape(-1).take(self.targets[todo, None] * self.graph.n + nodes)
            todo = todo[~(held & (np.arange(nodes.shape[1]) < counts[:, None])).any(1)]
        if not len(todo):
            return
        graph = self.graph
        origins = self.packed[todo, 0]
        seen = self.seen.reshape(self.size, -1)
        seen[todo] = 0
        seen[todo, origins >> 3] = graph.bit[origins]
        cells = None if holds is None else holds.reshape(-1)
        cell = todo if self.targets is None else self.targets[todo] * graph.n
        flight = [todo, self.keys[todo], todo * graph.width, cell,
                  np.zeros(len(todo), dtype=np.bool_), np.ones(len(todo), dtype=np.int64)]
        walkers = None
        hop = 0
        while True:
            walker, col, slot, reached, moved = self._hop(hop, flight, walkers)
            hop += 1
            msgs = flight[0]
            going = np.zeros(len(msgs), dtype=np.bool_)
            going[col[moved]] = True
            if hop >= self.ttl:
                going[:] = False
            self.done[msgs[~going]] = True
            if cells is not None:             # a message stops at its first holder
                found = cells.take(flight[3].take(col) + reached) & moved
                going[col[found]] = False
            on = np.flatnonzero(moved & going.take(col))
            walkers = [walker.take(on), col.take(on), slot.take(on)]
            if going.all():
                continue
            stop = ~going
            self.counts[msgs[stop]] = flight[5][stop]
            stay = np.flatnonzero(going)
            if not len(stay):
                return
            walkers[1] = (np.cumsum(going) - 1).take(walkers[1])
            flight = [a.take(stay) for a in flight]

    def visits(self, m):
        """The first visits of message m computed so far, in order."""
        return self.packed[m, :self.counts.item(m)].tolist()

    def _hop(self, hop, flight, walkers):
        """Compute slots (hop, 0) .. (hop, k-1) of the messages in `flight`
        from their `walkers`, mark and pack the arrivals, and update each
        message's `twice` and count in `flight`; returns, for each walker
        that stepped, its index, the entry of its message, the slot it
        crossed and the node it reached (-1 for none), and which moved."""
        graph, k = self.graph, self.k
        msgs, keys, row, cell, twice, count = flight
        n = len(msgs)
        if hop == 0:
            grid = self._launch(msgs, draws(keys, 0, k))
            on = np.flatnonzero(grid >= 0)
            walker, col = np.divmod(on, n)
            slot = grid.reshape(-1).take(on)
        else:
            walker, col, last = walkers
            drawn = _mix(_salts(hop, k).take(walker) + keys.take(col))
            # a walker on a node its message visited once has used only the
            # edge it arrived by, so it picks among the others
            pick = (drawn % graph.onward.take(last)).view(np.int64)
            slot = graph.base.take(last)
            slot += pick
            slot += pick >= graph.back.take(last)
        reached = graph.nbr.take(slot)
        at = reached >> 3
        at += row.take(col)
        bits = graph.bit.take(reached)
        if hop:
            # a walker stands on a node visited twice if it arrived there
            # again, or if a later walker did in the last hop (which arrived
            # again too), or if an earlier walker arrives there in this one
            hit = np.flatnonzero(self.seen.take(at) & bits)
            if len(hit):
                i = col.take(hit)
                stand = graph.nbr.take(self.slots[(hop - 1) * k:hop * k, msgs.take(i)])
                meets = ((stand == reached.take(hit))
                         & (np.arange(k)[:, None] > walker.take(hit)))
                twice[i[meets.any(0)]] = True
            tangled = np.flatnonzero(twice)
            if len(tangled):
                entry = np.full(n, -1, dtype=np.int64)
                entry[tangled] = np.arange(len(tangled))
                entry = entry.take(col)
                pairs = np.flatnonzero(entry >= 0)
                slot[pairs] = self._untangle(msgs.take(tangled), hop, walker.take(pairs),
                                             entry.take(pairs), last.take(pairs),
                                             drawn.take(pairs), slot.take(pairs))
                reached = graph.nbr.take(slot)
                at = reached >> 3
                at += row.take(col)
                bits = graph.bit.take(reached)
        moved = reached >= 0
        again = self._arrive(walker, at, bits, moved)
        nodes = reached.astype(np.int32)
        size = self.size
        spot = walker * size
        spot += msgs.take(col)
        self.slots.reshape(-1)[hop * k * size + spot] = slot.astype(np.int32)
        flight[4] = np.zeros(n, dtype=np.bool_)
        flight[4][col[again]] = True
        # first visits go to the next places of their rows, counted walker
        # by walker; the others go to the last place, which holds a first
        # visit only once all are
        first = moved > again
        place = np.zeros((k, n), dtype=np.int64)
        cells = walker * n + col
        place.reshape(-1)[cells] = first
        place[0] += count - 1
        for w in range(1, k):
            np.add(place[w], place[w - 1], out=place[w])
        flight[5] = place[-1] + 1
        place = place.reshape(-1).take(cells)
        width = self.packed.shape[1]
        np.copyto(place, width - 1, where=~first)
        spot -= walker * size
        spot *= width
        place += spot
        self.packed.reshape(-1)[place] = nodes
        return walker, col, slot, reached, moved

    def _arrive(self, walker, at, bits, moved):
        """Set the arrivals' `bits` in the bytes at `at` of `seen`, walker
        by walker (`walker` is sorted); returns which moved to a node whose
        bit was set before."""
        seen = self.seen
        again = np.empty(len(at), dtype=np.bool_)
        start = 0
        for end in np.searchsorted(walker, np.arange(1, self.k + 1)).tolist():
            cells = at[start:end]
            byte = seen.take(cells)
            marked = byte | bits[start:end]
            seen[cells] = marked
            np.equal(marked, byte, out=again[start:end])
            start = end
        again &= moved
        return again

    def _launch(self, msgs, drawn):
        """Hop 0: walker w of a message takes, if its origin has more than w
        up neighbors, option pick = draw % (deg - w) of those the walkers
        before it left, so walkers land on distinct neighbors. The picks
        decode like a Lehmer code: from the last walker back, each walker's
        pick moves every later one at or above it up by one option."""
        graph, k = self.graph, self.k
        origin = self.packed[msgs, 0]
        left = graph.deg[origin] - np.arange(k)[:, None]
        option = (drawn % np.maximum(left, 1).astype(np.uint64)).view(np.int64)
        for w in range(k - 2, -1, -1):
            later = option[w + 1:]
            later += later >= option[w]
        return np.where(left > 0, graph.start[origin] + option, -1)

    def _untangle(self, msgs, hop, walker, i, last, drawn, slot):
        """Exact slots of a hop for messages `msgs` where a walker may stand
        on a node visited twice, given flat over their walkers that stand
        on a node: walker index, index i in `msgs`, last slot, draw and
        cheap pick.

        Each walker tests every option against the edges its message used
        in earlier hops and those its walkers before it use in this hop.
        Starting from the cheap picks, the slots are recomputed from the
        previous round until the free options repeat; walker w is exact
        after round w + 1, so this takes at most k + 2 rounds."""
        graph, k = self.graph, self.k
        at = graph.nbr.take(last)
        base, deg = graph.start.take(at), graph.deg.take(at)
        width = np.arange(int(deg.max()))[:, None]
        valid = width < deg                                  # option by walker
        ids = graph.und.take(np.where(valid, base + width, -1))
        past = graph.und.take(self.slots[:hop * k, msgs.take(i)])
        free_before = valid > (past[:, None, :] == ids).any(0)
        before = np.arange(k)[:, None] < walker
        grid = np.full((k, len(msgs)), -1, dtype=np.int64)   # the hop's slots by message
        cells = walker * len(msgs) + i
        grid.reshape(-1)[cells] = slot
        free = None
        while True:
            used = np.where(before, graph.und.take(grid[:, i]), -1)
            now = free_before > (used[:, None, :] == ids).any(0)
            if free is not None and np.array_equal(now, free):
                return slot                  # the same options give the same picks
            free = now
            count = free.sum(0, dtype=np.uint64)
            pick = drawn % np.maximum(count, 1)
            column = np.argmax(free.cumsum(0, dtype=np.uint64) > pick, axis=0)
            slot = np.where(count > 0, base + column, -1)
            grid.reshape(-1)[cells] = slot

    def path(self, m, visits, t):
        """Node sequence of the walker whose first visit is visit t of
        message m. Visits 1 .. min(k, up-degree of the origin) are the
        launch's arrivals."""
        origin = visits[0]
        if t <= min(self.k, self.graph.deg.item(origin)):
            return (origin, visits[t]) if t else (origin,)
        column = self.graph.nbr.take(self.slots[:, m]).tolist()
        row = column.index(visits[t])
        return (origin,) + tuple(column[row % self.k:row + 1:self.k])


class WalkContext:
    """The overlay every walk of a run crosses, the run's walk seed, and
    the engine's working set.

    `message` is the id of the next query; `run_query` uses it and moves it
    on by one, and the driver sets it to each issued query's position in
    the schedule. `plan` hands over the schedule, so that a batch can cover
    the queries ahead, and `sweep` plans the Hello sweeps of an epoch. The
    graph of up nodes and the query and sweep batches are dropped when `up`
    changes."""

    def __init__(self, overlay, seed):
        self.overlay = overlay
        self.seed = int(seed)
        self.message = 0
        self.origins = self.targets = None
        self.epoch = 0
        self.sweep_origins = np.zeros(0, dtype=np.int64)
        self._up = None
        self._graph = self._batch = self._sweep = None

    def plan(self, origins, targets):
        """The schedule's origins and targets, kept in the integer dtype
        they come in; query i has message id i."""
        self.origins = np.asarray(origins)
        self.targets = np.asarray(targets)
        self._batch = None

    def graph(self, up):
        """The up graph for `up`, the bytes of `net.up`."""
        if up != self._up:
            self._up = up
            self._graph = _UpGraph(self.overlay, np.frombuffer(up, dtype=np.bool_))
            self._batch = self._sweep = None
        return self._graph

    def query_batch(self, net, origin, key, k, ttl):
        """(batch, index) holding query `message`, which moves on by one: a
        planned query's is the kept batch of the planned queries, rebuilt
        from it on when needed; any other query's is built for it alone."""
        up = net.up.tobytes()
        msg = self.message
        self.message = msg + 1
        plan, batch = self.origins, self._batch
        if (plan is None or msg >= len(plan) or plan.item(msg) != origin
                or self.targets.item(msg) != key):
            batch = _Batch(self.graph(up), self.seed, [msg], [origin], np.array([key]), k, ttl)
            batch.extend(net.holds)
            return batch, 0
        if (batch is None or up != self._up or batch.asked != (k, ttl)
                or not 0 <= msg - batch.first_id < batch.size):
            graph = self.graph(up)
            self._batch = None              # not alive next to the new one
            end = min(msg + CHUNK, len(plan))
            batch = _Batch(graph, self.seed, range(msg, end), plan[msg:end],
                           self.targets[msg:end], k, ttl)
            batch.extend(net.holds)
            self._batch = batch
        return batch, msg - batch.first_id

    def sweep(self, origins):
        """Start a sweep epoch planned for `origins`: the Hello sweep of
        origin v in it is message SWEEP | epoch << 32 | v."""
        self.epoch += 1
        self.sweep_origins = np.sort(np.asarray(origins, dtype=np.int64))
        self._sweep = None

    def sweep_batch(self, net, origin, k, ttl):
        """(batch, index) holding the Hello sweep of `origin` in the current
        epoch: a planned origin's is the kept batch of every planned sweep,
        built at the epoch's first read; any other's is built for it alone."""
        graph = self.graph(net.up.tobytes())
        plan, batch = self.sweep_origins, self._sweep
        m = int(plan.searchsorted(origin))
        planned = m < len(plan) and plan.item(m) == origin
        if planned and batch is not None and batch.asked == (k, ttl):
            return batch, m
        origins = plan if planned and batch is None else np.array([origin])
        ids = [SWEEP | self.epoch << 32 | v for v in origins.tolist()]
        batch = _Batch(graph, self.seed, ids, origins, None, k, ttl)
        batch.extend()
        batch.slots = batch.seen = None     # a sweep is read by its visits only
        if origins is plan:
            self._sweep = batch
            return batch, m
        return batch, 0


def run_query(net, ctx, origin, key, k, ttl):
    """Run query `ctx.message` from an up `origin`; returns (QueryOutcome,
    visited)."""
    if net.holds.item(key, origin):
        ctx.message += 1
        return _outcome((True, origin, (origin,), 0, 1)), [origin]
    batch, m = ctx.query_batch(net, origin, key, k, ttl)
    held = net.holds[key].tobytes()
    while True:
        visits = batch.visits(m)
        for hit, v in enumerate(visits):
            if held[v]:
                path = batch.path(m, visits, hit)
                return (_outcome((True, path[-1], path, len(path) - 1, hit + 1)),
                        visits[:hit + 1])
        if batch.done.item(m):
            return _outcome((False, None, (), 0, len(visits))), visits
        batch.extend(net.holds, m)


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
    batch = _Batch(graph, ctx.seed, [msg], [origin], None, k, ttl)
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


def hello_sweep(net, ctx, origin, k, ttl):
    """Discover peers within ttl hops via k walkers: the distinct up nodes
    visited, origin excluded, in first-visit order. The sweep is the
    origin's in the current sweep epoch (`WalkContext.sweep_batch`)."""
    batch, m = ctx.sweep_batch(net, origin, k, ttl)
    return batch.visits(m)[1:]
