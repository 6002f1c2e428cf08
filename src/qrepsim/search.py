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
time, with numpy, vectorised over the messages and run in slot order. A
walker whose node its message has visited only once can only have used the
edge it arrived by, so it draws among the others directly; the full
used-edge test runs only for a walker on a node its message has already
visited twice. A query batch holds the next `CHUNK` messages of the
planned schedule and extends lazily: it computes a hop only for the
messages not yet resolved under `holds` at that moment, and extends a
message again when its query, at its own event, needs more. How far the
engine computed never changes an outcome. Batches are rebuilt when `up`
changes, which happens at churn. Hello sweeps read no `holds`: a scan's
sweeps are computed in one batch at scan start, in their own message-id
domain.
"""

from functools import partial
from operator import itemgetter
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


def draws(keys, hop, k):
    """Draws of slots (hop, 0) .. (hop, k-1) for messages with these keys,
    one row per walker: mix(key + (hop * 2**32 + w + 1) * golden) mod 2**64."""
    salt = [((hop << 32) + w + 1) * _GOLDEN & _MASK for w in range(k)]
    return _mix(np.array(salt, dtype=np.uint64)[:, None] + keys)


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
    neighbor `nbr`, the undirected edge id `und` both directions share, and
    `back`, the position of the edge back in the neighbor's options. Down
    nodes have no options. Slot and node -1 stand for none: `nbr`, `und` and
    `back` end in -1, `bit` (1 << v % 64) ends in 0, `onward` (deg - 1, at
    least 1) in 1 and `leaves` (deg > 1) in False."""

    def __init__(self, overlay, up):
        n = overlay.node_count
        src = np.repeat(np.arange(n), np.diff(overlay.indptr))
        keep = up[src] & up[overlay.indices]
        kept = np.flatnonzero(keep)
        compact = np.cumsum(keep) - 1
        self.deg = np.bincount(src[kept], minlength=n)
        self.start = np.zeros(n, dtype=np.int64)
        np.cumsum(self.deg[:-1], out=self.start[1:])
        none = [-1]
        self.nbr = np.concatenate((overlay.indices[kept], none)).astype(np.int32)
        und = np.minimum(kept, overlay.edge_rev[kept])
        self.und = np.concatenate((und, none)).astype(np.int32)
        rev = compact[overlay.edge_rev[kept]]
        self.back = np.concatenate((rev - self.start[self.nbr[:-1]], none)).astype(np.int32)
        self.start = self.start.astype(np.int32)
        self.bit = np.append(_U(1) << (np.arange(n) % 64).astype(np.uint64), _U(0))
        self.onward = np.append(np.maximum(self.deg - 1, 1), 1).astype(np.uint64)
        self.leaves = np.append(self.deg > 1, False)


class _Batch:
    """Trajectories of a batch of messages under one `up`, grown hop by hop.

    Arrays are slot-major, one column per message. Row 0 of `hist` is the
    origin and row 1 + hop * k + w the node slot (hop, w) reached, -1 for
    a walker that halted or never launched; `slots` holds the up-graph slot
    each crossed, one row earlier, and `again` marks the arrivals on a node
    their message had visited before. `bloom` has bit v % 64 set for every
    node v a message visited, so only arrivals on a set bit are compared
    with the message's history. `level` counts the hops computed, `done`
    marks a message whose walkers all halted or that reached its ttl, and
    `packed` holds the first visits of each query message, `counts` of them
    at the front of its row."""

    def __init__(self, graph, seed, ids, origins, targets, k, ttl):
        self.graph, self.targets, self.ttl = graph, targets, ttl
        self.first_id, self.size, self.asked = ids[0], len(ids), (k, ttl)
        self.keys = message_keys(seed, ids)
        origins = np.asarray(origins, dtype=np.int64)
        deg = graph.deg[origins]
        self.k = min(k, int(deg.max())) if ttl > 0 else 0
        size = self.size
        self.level = np.zeros(size, dtype=np.int64)
        self.done = (deg == 0) | (self.k == 0)
        self.bloom = graph.bit[origins]
        self.hops = min(ttl, 8)               # room for 8 hops, doubled as needed
        self.hist = np.full((1 + self.hops * self.k, size), -1, dtype=np.int32)
        self.hist[0] = origins
        self.slots = np.full((self.hops * self.k, size), -1, dtype=np.int32)
        self.again = np.zeros(self.hist.shape, dtype=np.bool_)
        self.origins = origins.tolist()
        self.launched = np.minimum(deg, self.k).tolist()
        self.target_list = None if targets is None else targets.tolist()
        # a message is packed as it is extended, or here if it never moves
        self.packed = np.zeros((size, len(self.hist)), dtype=np.int32)
        self.packed[:, 0] = origins
        self.counts = self.done.astype(np.int64)

    def _grow(self):
        """Room for twice as many hops in every per-slot array."""
        more = (self.hops * self.k, self.size)
        self.hist = np.vstack((self.hist, np.full(more, -1, dtype=np.int32)))
        self.slots = np.vstack((self.slots, np.full(more, -1, dtype=np.int32)))
        self.again = np.vstack((self.again, np.zeros(more, dtype=np.bool_)))
        self.packed = np.hstack((self.packed, np.zeros(more[::-1], dtype=np.int32)))
        self.hops *= 2

    def extend(self, holds=None, first=0):
        """Compute further hops for the messages from index `first` on that
        are not done and, with `holds`, have no visited node holding their
        object; a message stops as soon as one does."""
        todo = np.arange(first, self.size)[~self.done[first:]]
        if holds is not None and len(todo):
            nodes = self.hist[:1 + self.k * int(self.level[todo].max()), todo]
            todo = todo[~(holds[self.targets[todo], nodes] & (nodes >= 0)).any(0)]
        if not len(todo):
            return
        todo = todo[np.argsort(self.level[todo], kind="stable")]
        levels = self.level[todo]
        active = todo[:0]
        joined = 0
        hop = int(levels[0])
        while joined < len(todo) or len(active):
            if not len(active):
                hop = int(levels[joined])
            upto = int(np.searchsorted(levels, hop, side="right"))
            if upto > joined:
                active = np.concatenate((active, todo[joined:upto]))
                joined = upto
            if hop >= self.hops:
                self._grow()
            reached, moved = self._hop(active, hop)
            hop += 1
            self.level[active] = hop
            going = moved.any(0)
            if hop >= self.ttl:
                going[:] = False
            self.done[active[~going]] = True
            if holds is not None:
                going &= ~(holds[self.targets[active], reached] & moved).any(0)
            active = active[going]
        self._pack(todo)

    def visits(self, m):
        """The first visits of message m, in order, or None before it is
        extended."""
        count = self.counts.item(m)
        return self.packed[m, :count].tolist() if count else None

    def _pack(self, msgs):
        """Pack the first visits of `msgs` to the front of their rows of
        `packed`, in order, and count them in `counts`."""
        rows = 1 + self.k * int(self.level[msgs].max())
        nodes = self.hist[:rows].T[msgs]
        first = (nodes >= 0) & ~self.again[:rows].T[msgs]
        order = np.argsort(~first, axis=1, kind="stable")
        self.packed[msgs, :rows] = np.take_along_axis(nodes, order, axis=1)
        self.counts[msgs] = first.sum(1)

    def _hop(self, active, hop):
        """Compute slots (hop, 0) .. (hop, k-1) of the `active` messages;
        returns the nodes they reached (-1 for none) and which moved, each
        (k, len(active))."""
        graph, k = self.graph, self.k
        rows = slice(1 + hop * k, 1 + (hop + 1) * k)
        drawn = draws(self.keys[active], hop, k)
        if hop == 0:
            slot = self._launch(active, drawn)
            reached = graph.nbr[slot]
            bits = graph.bit[reached]
            seen = np.zeros(slot.shape, dtype=np.bool_)   # distinct neighbors
        else:
            # a walker on a node its message visited once has used only the
            # edge it arrived by, so it picks among the others
            last = self.slots[rows.start - 1 - k:rows.start - 1][:, active]
            node = graph.nbr[last]
            pick = (drawn % graph.onward[node]).astype(np.int32)
            slot = np.where(graph.leaves[node],
                            graph.start[node] + pick + (pick >= graph.back[last]), -1)
            reached = graph.nbr[slot]
            bits, seen = self._seen(active, rows, reached)
            # a walker stands on a node visited twice if it arrived there
            # again, or if a later walker did in the last hop (which arrived
            # again too), or if an earlier walker arrives there in this one
            tangled = self.again[rows.start - k:rows.start][:, active].any(0)
            walker, i = np.nonzero(seen)
            if len(i):
                meets = (node[:, i] == reached[walker, i]) & (np.arange(k)[:, None] > walker)
                tangled[i[meets.any(0)]] = True
            tangled = np.flatnonzero(tangled)
            if len(tangled):
                msgs = active[tangled]
                part = self._untangle(msgs, rows, last[:, tangled], drawn[:, tangled],
                                      slot[:, tangled])
                slot[:, tangled] = part
                reached[:, tangled] = part = graph.nbr[part]
                bits[:, tangled], seen[:, tangled] = self._seen(msgs, rows, part)
        self.slots[rows.start - 1:rows.stop - 1, active] = slot
        self.hist[rows, active] = reached
        self.again[rows, active] = seen
        self.bloom[active] |= np.bitwise_or.reduce(bits, axis=0)
        return reached, reached >= 0

    def _seen(self, msgs, rows, reached):
        """(bits, seen) of the arrivals `reached` of hop `rows` of `msgs`:
        their bloom bits, and which reach a node their message visited
        before. Only arrivals on a bit of the message's bloom, or on the bit
        of an earlier arrival of the hop, are compared."""
        bits = self.graph.bit[reached]
        earlier = np.zeros_like(bits)
        np.bitwise_or.accumulate(bits[:-1], axis=0, out=earlier[1:])
        earlier |= self.bloom[msgs]
        walker, i = np.nonzero(earlier & bits)
        seen = np.zeros(reached.shape, dtype=np.bool_)
        if len(i):
            node = reached[walker, i]
            before = np.arange(len(bits))[:, None] < walker
            seen[walker, i] = ((self.hist[:rows.start, msgs[i]] == node).any(0)
                               | ((reached[:, i] == node) & before).any(0))
        return bits, seen

    def _launch(self, active, drawn):
        """Hop 0: walker w of a message takes, if its origin has more than w
        up neighbors, option draw % (deg - w) of those the walkers before it
        left, so walkers land on distinct neighbors."""
        graph, k = self.graph, self.k
        origin = self.hist[0, active]
        deg, base = graph.deg[origin], graph.start[origin]
        left = deg - np.arange(k)[:, None]
        picks = (drawn % np.maximum(left, 1).astype(np.uint64)).astype(np.int64)
        free = np.arange(int(deg.max()))[:, None] < deg       # option by message
        cols = np.arange(len(active))
        slot = np.empty(drawn.shape, dtype=np.int64)
        for w, pick in enumerate(picks):
            # where no option is left this picks option 0, which is taken
            option = np.argmax(free.cumsum(0) > pick, axis=0)
            free[option, cols] = False
            slot[w] = base + option
        return np.where(left > 0, slot, -1)

    def _untangle(self, msgs, rows, last, drawn, slot):
        """Exact slots of a hop for messages where a walker may stand on a
        node visited twice.

        Each walker tests every option against the edges its message used
        in earlier hops and those its walkers before it use in this hop.
        Starting from `slot`, the cheap picks, the slots are recomputed
        from the previous round until they repeat; walker w is exact after
        round w + 1, so this takes at most k + 1 rounds."""
        graph, k = self.graph, self.k
        walker, i = np.nonzero(last >= 0)
        at = graph.nbr[last[walker, i]]
        base, deg = graph.start[at], graph.deg[at]
        width = np.arange(int(deg.max()))[:, None]
        valid = width < deg                                  # option by pair
        ids = graph.und[np.where(valid, base + width, 0)]
        past = graph.und[self.slots[:rows.start - 1, msgs[i]]]
        free_before = valid & ~(past[:, None, :] == ids).any(0)
        before = np.arange(k)[:, None] < walker
        drawn = drawn[walker, i]
        slot = slot.copy()
        while True:
            now = np.where(before, graph.und[slot[:, i]], -1)
            free = free_before & ~(now[:, None, :] == ids).any(0)
            count = free.sum(0)
            pick = (drawn % np.maximum(count, 1).astype(np.uint64)).astype(np.int64)
            column = np.argmax(free.cumsum(0) > pick, axis=0)
            picked = np.where(count > 0, base + column, -1)
            if np.array_equal(picked, slot[walker, i]):
                return slot
            slot[walker, i] = picked

    def path(self, m, visits, t):
        """Node sequence of the walker whose first visit is visit t of
        message m. Visits 1 .. launched[m] are the launch's arrivals."""
        origin = self.origins[m]
        if t <= self.launched[m]:
            return (origin, visits[t]) if t else (origin,)
        column = self.hist[:, m].tolist()
        row = column.index(visits[t])
        return (origin,) + tuple(column[1 + (row - 1) % self.k:row + 1:self.k])


class WalkContext:
    """The overlay every walk of a run crosses, the run's walk seed, and
    the engine's working set.

    `message` is the id of the next query; `run_query` uses it and moves it
    on by one, and the driver sets it to each issued query's position in
    the schedule. `plan` hands over the schedule, so that a batch can cover
    the queries ahead. The graph of up nodes, the query batch and the Hello
    `sweeps` of the current epoch are dropped when `up` changes."""

    def __init__(self, overlay, seed):
        self.overlay = overlay
        self.seed = int(seed)
        self.message = 0
        self.origins = self.targets = None
        self.epoch = 0
        self._up = None
        self._graph = self._batch = None
        self.sweeps = {}

    def plan(self, origins, targets):
        """The schedule's origins and targets; query i has message id i."""
        self.origins = np.asarray(origins, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self._batch = None

    def graph(self, up):
        """The up graph for `up`, the bytes of `net.up`."""
        if up != self._up:
            self._up = up
            self._graph = _UpGraph(self.overlay, np.frombuffer(up, dtype=np.bool_))
            self._batch = None
            self.sweeps = {}
        return self._graph

    def query_batch(self, net, origin, key, k, ttl):
        """(batch, index) holding query `message`, which moves on by one; a
        batch of the planned queries from it on is built on a miss."""
        up = net.up.tobytes()
        msg = self.message
        self.message = msg + 1
        batch = self._batch
        if up == self._up and batch is not None:
            m = msg - batch.first_id
            if (0 <= m < batch.size and batch.origins[m] == origin
                    and batch.target_list[m] == key and batch.asked == (k, ttl)):
                return batch, m
        graph = self.graph(up)
        self._batch = None                  # not alive next to the new one
        planned = self.origins
        if (planned is not None and msg < len(planned)
                and planned[msg] == origin and self.targets[msg] == key):
            end = min(msg + CHUNK, len(planned))
            origins, targets = planned[msg:end], self.targets[msg:end]
        else:
            origins, targets = np.array([origin]), np.array([key])
        batch = _Batch(graph, self.seed, range(msg, msg + len(origins)), origins, targets,
                       k, ttl)
        batch.extend(net.holds)
        self._batch = batch
        return batch, 0

    def sweep(self, net, origins, k, ttl):
        """Start a sweep epoch and compute the Hello sweeps of `origins` in
        one batch: message SWEEP | epoch << 32 | origin each."""
        self.epoch += 1
        self.sweeps = {}
        self.sweep_batch(net, origins, k, ttl)

    def sweep_batch(self, net, origins, k, ttl):
        """Compute the Hello sweeps of `origins` in the current epoch, into
        `sweeps`: (origin, k, ttl) -> (batch, index)."""
        graph = self.graph(net.up.tobytes())
        origins = np.asarray(origins, dtype=np.int64)
        if not len(origins):
            return
        ids = [SWEEP | self.epoch << 32 | v for v in origins.tolist()]
        batch = _Batch(graph, self.seed, ids, origins, None, k, ttl)
        batch.extend()
        for m, v in enumerate(batch.origins):
            self.sweeps[v, k, ttl] = batch, m



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
        if visits is not None:
            found = itemgetter(origin, *visits)(held)   # a tuple even for one visit
            if 1 in found or batch.done[m]:
                break
        batch.extend(net.holds, m)
    if 1 not in found:
        return _outcome((False, None, (), 0, len(visits))), visits
    hit = found.index(1) - 1
    path = batch.path(m, visits, hit)
    return _outcome((True, path[-1], path, len(path) - 1, hit + 1)), visits[:hit + 1]


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
    column = batch.hist[:, 0].tolist()
    end, winner = len(column), -1
    if 1 in held:
        hit = held.index(1)
        end = column.index(visited[hit]) + 1
        winner = (end - 2) % batch.k
        visited = visited[:hit + 1]
    paths = [[origin] + [v for v in column[1 + w:end:batch.k] if v >= 0]
             for w in range(min(batch.launched[0], end - 1))]
    return paths, winner, visited


def hello_sweep(net, ctx, origin, k, ttl):
    """Discover peers within ttl hops via k walkers: the distinct up nodes
    visited, origin excluded, in first-visit order. The sweep is the
    origin's in the current sweep epoch, computed now if its batch did not
    hold it."""
    ctx.graph(net.up.tobytes())
    if (origin, k, ttl) not in ctx.sweeps:
        ctx.sweep_batch(net, [origin], k, ttl)
    batch, m = ctx.sweeps[origin, k, ttl]
    return batch.visits(m)[1:]
