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
from. How far the engine computed never changes an outcome. Every batch
of a context computes in the context's working memory (`_Work`), buffers
that each hop writes into, so that no hop allocates an array whose size
follows the walkers or messages it has left.
Batches are rebuilt when `up` changes, which happens at churn. Hello
sweeps read no `holds` and have message ids of their own: the first read
of a sweep epoch computes the sweeps of every origin it planned in one batch.
"""

import math
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

CHUNK = 1024                    # query messages per batch
SWEEP = 1 << 63                 # Hello sweep ids: SWEEP | epoch << 32 | origin

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_U = np.uint64


def _mix(z, tmp):
    """SplitMix64's finalizer over a uint64 array, in place, mod 2**64;
    `tmp` is a scratch array of its shape."""
    z ^= np.right_shift(z, _U(30), out=tmp)
    z *= _U(_MIX1)
    z ^= np.right_shift(z, _U(27), out=tmp)
    z *= _U(_MIX2)
    z ^= np.right_shift(z, _U(31), out=tmp)
    return z


def message_keys(seed, msgs):
    """Per-message keys mix(seed ^ mix(msg)), as a uint64 array."""
    keys = np.array(msgs, dtype=np.uint64)
    tmp = np.empty_like(keys)
    _mix(keys, tmp)
    keys ^= _U(seed)
    return _mix(keys, tmp)


def _salts(hop, k):
    """(hop * 2**32 + w + 1) * golden mod 2**64 for walkers w < k."""
    return np.array([((hop << 32) + w + 1) * _GOLDEN & _MASK for w in range(k)],
                    dtype=np.uint64)


def draws(keys, hop, k, out=None, tmp=None):
    """Draws of slots (hop, 0) .. (hop, k-1) for messages with these keys,
    one row per walker: mix(key + (hop * 2**32 + w + 1) * golden) mod 2**64.
    `out` and `tmp`, if given, are (k, messages) uint64 arrays to use."""
    z = np.add(_salts(hop, k)[:, None], keys, out=out)
    return _mix(z, np.empty_like(z) if tmp is None else tmp)


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


class _Work:
    """The walk engine's working memory, which a WalkContext keeps for every
    batch it builds (one extends at a time).

    NumPy keeps up to 7 freed data buffers of each size below 1 KiB for the
    rest of the process, so a hop whose arrays followed the messages and
    walkers still in flight would fill that cache with hundreds of sizes.
    Each hop writes its arrays into views of these rows instead (`out=`):
    message rows as long as the most messages an extension took up, walker
    rows k times that, each with one entry more for the writes a scatter
    discards, and `more`, the meet test's and `_untangle`'s arrays, each
    grown to its largest use."""

    def __init__(self):
        self.messages = self.walkers = -1
        self._more = {}
        self._range = np.arange(0)

    def arange(self, n):
        """0 .. n - 1, a view."""
        if len(self._range) < n:
            self._range = np.arange(max(n, 2 * len(self._range)))
        return self._range[:n]

    def reserve(self, messages, walkers):
        """Rows for an extension of up to `messages` messages and `walkers`
        walkers."""
        if messages > self.messages:
            self.messages = messages
            (self.msg, self.row, self.cell, self.place, self.origin, self.entry, self.mtmp,
             key) = np.empty((8, messages + 1), dtype=np.int64)
            self.key = key.view(np.uint64)
            (self.live, self.moving, self.found, self.held, self.twice,
             self.mflag) = np.empty((6, messages + 1), dtype=np.bool_)
        if walkers > self.walkers:
            self.walkers = walkers
            rows = np.empty((15, walkers + 1), dtype=np.int64)
            self.state, self.spare = list(rows[:3]), list(rows[3:6])
            (self.tmp, self.slot, self.reached, self.at, self.spot, self.cells,
             self.grid, self.pos, drawn) = rows[6:]
            self.drawn = drawn.view(np.uint64)
            (self.moved, self.again, self.first, self.flag, self.mark, bits, byte,
             marked) = np.empty((8, walkers + 1), dtype=np.bool_)
            self.bits, self.byte, self.marked = (a.view(np.uint8) for a in (bits, byte, marked))

    def more(self, role, shape, dtype=np.int64):
        """An array of this shape (a tuple) for `role`, a view of the role's
        buffer."""
        size = math.prod(shape)
        buf = self._more.get(role)
        if buf is None or buf.size < size:
            buf = self._more[role] = np.empty(max(size, 0 if buf is None else 2 * buf.size),
                                              dtype=dtype)
        return buf[:size].reshape(shape)

    def any_by_message(self, k, cells, flags, out):
        """Whether a walker of each message entry has its flag set, into
        `out`: walkers are given by their cells in a (k, len(out)) grid."""
        mark = self.mark[:k * len(out)]
        mark.fill(False)
        mark[cells] = flags
        np.logical_or.reduce(mark.reshape(k, -1), axis=0, out=out)

    def compact(self, mask, *moves):
        """Move the entries of each (source, row) pair where `mask` is set to
        the front of the row, in order; returns how many. An entry goes to
        the count of set entries before it, so an unset one is overwritten
        by the next set one, or lands past them all."""
        n = len(mask)
        pos = self.pos[:n]
        pos[0] = 0
        np.copyto(pos[1:], mask[:-1])
        np.add.accumulate(pos, out=pos)
        for source, row in moves:
            row[pos] = source
        return pos.item(-1) + mask.item(-1)


class _Batch:
    """Trajectories of a batch of messages under one `up`, computed hop by hop
    in the working memory `work`.

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

    def __init__(self, graph, seed, ids, origins, targets, k, ttl, work):
        self.graph, self.ttl, self.work = graph, ttl, work
        # int64, so that targets * n + node cannot overflow in any dtype given
        self.targets = None if targets is None else np.asarray(targets, dtype=np.int64)
        self.first_id, self.size, self.asked = ids[0], len(ids), (k, ttl)
        self.keys = message_keys(seed, ids)
        self.origins = np.asarray(origins, dtype=np.int64)
        deg = graph.deg[self.origins]
        self.k = min(k, int(deg.max())) if ttl > 0 else 0
        size = self.size
        self.done = (deg == 0) | (self.k == 0)
        hops = min(ttl, int(graph.deg.sum()) // 2 + 1)
        self.slots = np.full((hops * self.k, size), -1, dtype=np.int32)
        self.seen = np.zeros(size * graph.width, dtype=np.uint8)
        self.packed = np.zeros((size, 1 + hops * self.k), dtype=np.int32)
        self.packed[:, 0] = self.origins
        self.counts = np.ones(size, dtype=np.int64)

    def extend(self, holds=None, first=0):
        """Compute the messages from index `first` on that are not done and,
        with `holds`, have no visited node holding their object, from their
        launch on; a message stops as soon as one does. A message taken up
        again recomputes the hops it had: its trajectory writes the same
        slots, so only its `seen` row and its count start again.

        The t messages taken up keep their state in message rows of `work`
        for the whole extension: the message, its key, its `seen` row, its
        object's row of `holds`, its last place in `packed`, whether it is
        still live, and whether a walker of it arrived twice in the last
        hop. Their walkers that stand on a node are kept flat, walker by
        walker, in walker rows: walker index, entry of its message and the
        slot it crossed last. A walker leaves when it halts or its message
        stops."""
        work, size, k = self.work, self.size, self.k
        work.reserve(size - first, k * (size - first))
        t = self._pending(holds, first)
        if not t:
            return
        graph, n = self.graph, self.graph.n
        msg, row, cell, place, origin, mtmp = (
            a[:t] for a in (work.msg, work.row, work.cell, work.place, work.origin, work.mtmp))
        live, moving, found, held, twice = (
            a[:t] for a in (work.live, work.moving, work.found, work.held, work.twice))
        key = work.key[:t]
        self.keys.take(msg, out=key, mode='wrap')
        self.origins.take(msg, out=origin, mode='wrap')
        np.multiply(msg, graph.width, out=row)
        self.seen.reshape(size, -1)[msg] = 0
        np.right_shift(origin, 3, out=mtmp)
        mtmp += row
        self.seen[mtmp] = graph.bit.take(origin, out=work.mflag[:t].view(np.uint8), mode='wrap')
        cells_of = None if holds is None else holds.reshape(-1)
        if self.targets is None:
            np.copyto(cell, msg)
        else:
            self.targets.take(msg, out=cell, mode='wrap')
            cell *= n
        place.fill(0)
        held.fill(False)
        twice.fill(False)
        count = len(self._launch(t, key, origin, row))
        walkers = [a[:count] for a in work.state]
        hop = 0
        while True:
            if hop:
                walkers[2] = self._step(hop, t, *walkers, key, row, msg, twice)
            walker, col, slot = walkers
            count = len(walker)
            moved, cells = self._arrive(hop, t, walker, col, slot, msg, place, twice)
            hop += 1
            if hop >= self.ttl:
                break
            work.any_by_message(k, cells, moved, moving)
            if cells_of is not None:           # a message stops at its first holder
                spots = work.tmp[:count]
                cell.take(col, out=spots, mode='wrap')
                spots += work.reached[:count]
                stops = work.flag[:count]
                cells_of.take(spots, out=stops, mode='wrap')
                stops &= moved
                work.any_by_message(k, cells, stops, found)
                np.greater(moving, found, out=live)
                held |= found
            else:
                np.copyto(live, moving)
            if not live.any():
                break
            twice &= live
            on = work.flag[:count]
            live.take(col, out=on, mode='wrap')
            on &= moved
            count = work.compact(on, *zip(walkers, work.spare))
            work.state, work.spare = work.spare, work.state
            walkers = [a[:count] for a in work.state]
        np.add(place, 1, out=mtmp)
        self.counts[msg] = mtmp
        self.done[msg] = np.logical_not(held, out=work.mflag[:t])

    def _pending(self, holds, first):
        """Write the messages from index `first` on that `extend` takes up to
        the message row `work.msg`; returns how many."""
        work, size = self.work, self.size
        rest = size - first
        todo = work.mflag[:rest]
        np.logical_not(self.done[first:], out=todo)
        if holds is not None:
            counts = self.counts[first:]
            wide = int(counts.max())
            cells = work.more("pending", (rest, wide))
            np.copyto(cells, self.packed[first:, :wide])
            base = work.mtmp[:rest]
            np.multiply(self.targets[first:], self.graph.n, out=base)
            cells += base[:, None]
            held = work.more("pending held", (rest, wide), np.bool_)
            holds.reshape(-1).take(cells, out=held, mode='wrap')
            visited = work.more("pending visited", (rest, wide), np.bool_)
            np.greater(counts[:, None], work.arange(wide), out=visited)
            held &= visited
            any_held = work.found[:rest]
            np.logical_or.reduce(held, axis=1, out=any_held)
            np.greater(todo, any_held, out=todo)
        if not todo.any():
            return 0
        t = work.compact(todo, (work.arange(rest), work.msg))
        if first:
            work.msg[:t] += first
        return t

    def _launch(self, t, key, origin, row):
        """Hop 0: walker w of a message takes, if its origin has more than w
        up neighbors, option pick = draw % (deg - w) of those the walkers
        before it left, so walkers land on distinct neighbors. The picks
        decode like a Lehmer code: from the last walker back, each walker's
        pick moves every later one at or above it up by one option. Writes
        the walkers that launched (index, message entry, slot) to the state
        rows of `work`; returns their slots."""
        graph, k, work = self.graph, self.k, self.work
        grid = k * t
        drawn = draws(key, 0, k, work.drawn[:grid].reshape(k, t),
                      work.tmp[:grid].reshape(k, t).view(np.uint64))
        deg = work.mtmp[:t]
        graph.deg.take(origin, out=deg, mode='wrap')
        left = work.reached[:grid].reshape(k, t)
        np.subtract(deg, work.arange(k)[:, None], out=left)
        option = work.slot[:grid].reshape(k, t)
        np.maximum(left, 1, out=option)
        np.remainder(drawn, option.view(np.uint64), out=option.view(np.uint64))
        later_ge = work.flag[:grid].reshape(k, t)
        step = work.at[:grid].reshape(k, t)
        for w in range(k - 2, -1, -1):
            later = option[w + 1:]
            np.greater_equal(later, option[w], out=later_ge[w + 1:])
            np.copyto(step[w + 1:], later_ge[w + 1:])
            later += step[w + 1:]
        graph.start.take(origin, out=deg, mode='wrap')
        option += deg
        launched = work.moved[:grid]
        np.greater(left.reshape(-1), 0, out=launched)
        count = work.compact(launched, (work.arange(grid), work.spot))
        cell = work.spot[:count]
        walker, col, slot = (a[:count] for a in work.state)
        np.divmod(cell, t, out=(walker, col))
        option.reshape(-1).take(cell, out=slot, mode='wrap')
        self._reach(slot, col, row)
        return slot

    def _reach(self, slot, col, row):
        """The node each walker reaches by `slot` (-1 for none), its byte in
        `seen` and its bit there, into the rows `reached`, `at` and `bits` of
        `work`."""
        graph, work = self.graph, self.work
        count = len(slot)
        reached = work.reached[:count]
        graph.nbr.take(slot, out=reached, mode='wrap')
        at = work.at[:count]
        np.right_shift(reached, 3, out=at)
        rows = work.spot[:count]
        row.take(col, out=rows, mode='wrap')
        at += rows
        graph.bit.take(reached, out=work.bits[:count], mode='wrap')

    def _step(self, hop, t, walker, col, last, key, row, msg, twice):
        """Slots (hop, 0) .. (hop, k-1) of the walkers that stand on a node,
        from the slots they crossed last, in the row `slot` of `work`, and
        where they lead (`_reach`). Marks in `twice` the messages whose
        walkers need the exact step."""
        graph, k, work = self.graph, self.k, self.work
        count = len(walker)
        drawn, tmp = work.drawn[:count], work.tmp[:count].view(np.uint64)
        _salts(hop, k).take(walker, out=drawn, mode='wrap')
        key.take(col, out=tmp, mode='wrap')
        drawn += tmp
        _mix(drawn, tmp)
        # a walker on a node its message visited once has used only the
        # edge it arrived by, so it picks among the others
        graph.onward.take(last, out=tmp, mode='wrap')
        np.remainder(drawn, tmp, out=tmp)
        pick = tmp.view(np.int64)
        slot = work.slot[:count]
        graph.base.take(last, out=slot, mode='wrap')
        slot += pick
        back = work.reached[:count]
        graph.back.take(last, out=back, mode='wrap')
        beyond = work.flag[:count]
        np.greater_equal(pick, back, out=beyond)
        np.copyto(back, beyond)
        slot += back
        self._reach(slot, col, row)
        # a walker stands on a node visited twice if it arrived there
        # again, or if a later walker did in the last hop (which arrived
        # again too), or if an earlier walker arrives there in this one
        byte = work.byte[:count]
        self.seen.take(work.at[:count], out=byte, mode='wrap')
        byte &= work.bits[:count]
        if byte.any():
            hit = work.flag[:count]
            np.not_equal(byte, 0, out=hit)
            hits = work.compact(hit, (work.arange(count), work.cells))
            self._meet(hop, work.cells[:hits], walker, col, msg)
        if not twice.any():
            return slot
        tangled = work.compact(twice, (work.arange(t), work.mtmp))
        entry = work.entry[:t]
        entry.fill(-1)
        entry[work.mtmp[:tangled]] = work.arange(tangled)
        of = work.spot[:count]
        entry.take(col, out=of, mode='wrap')
        pair = work.flag[:count]
        np.greater_equal(of, 0, out=pair)
        pairs = work.cells[:work.compact(pair, (work.arange(count), work.cells))]
        message = work.at[:count]
        msg.take(col, out=message, mode='wrap')
        args = work.more("untangle", (9, len(pairs)))
        for source, out in zip((walker, of, message, last, drawn.view(np.int64), slot), args):
            source.take(pairs, out=out, mode='wrap')
        slot[pairs] = self._untangle(hop, tangled, args)
        self._reach(slot, col, row)
        return slot

    def _meet(self, hop, hits, walker, col, msg):
        """Mark in `twice` the messages of the walkers `hits`, which arrive on
        a node their message visited, where a later walker stood on that
        node after the last hop."""
        graph, k, size, work = self.graph, self.k, self.size, self.work
        h = len(hits)
        entry, message, node, index = work.more("meet", (4, h))
        col.take(hits, out=entry, mode='wrap')
        msg.take(entry, out=message, mode='wrap')
        work.reached.take(hits, out=node, mode='wrap')
        walker.take(hits, out=index, mode='wrap')
        cells, stand = work.more("meet grid", (2, k, h))
        np.copyto(cells, work.arange(hop * k)[(hop - 1) * k:, None])
        cells *= size
        cells += message
        slots = stand.reshape(-1).view(np.int32)[:k * h].reshape(k, h)
        self.slots.reshape(-1).take(cells, out=slots, mode='wrap')
        np.copyto(cells, slots)
        graph.nbr.take(cells, out=stand, mode='wrap')
        meets, later = work.more("meet flags", (2, k, h), np.bool_)
        np.equal(stand, node, out=meets)
        np.greater(work.arange(k)[:, None], index, out=later)
        meets &= later
        none = later[0]
        np.logical_or.reduce(meets, axis=0, out=none)
        np.logical_not(none, out=none)
        np.copyto(entry, -1, where=none)    # the spare entry of `twice` takes these
        work.twice[entry] = True

    def _arrive(self, hop, t, walker, col, slot, msg, place, twice):
        """Mark and pack the arrivals of the walkers by `slot` (`walker` is
        sorted, and `_reach` has run): set their bits in `seen` walker by
        walker, record the slots, set `twice` of the messages with a walker
        that moved to a node whose bit was set before, and put each first
        visit at the next place of its message's row. Returns which walkers
        moved and their cells in a (k, t) grid."""
        k, work, size = self.k, self.work, self.size
        count = len(walker)
        reached, at, bits = work.reached[:count], work.at[:count], work.bits[:count]
        moved = work.moved[:count]
        np.greater_equal(reached, 0, out=moved)
        seen, byte, marked, again = self.seen, work.byte, work.marked, work.again[:count]
        start = 0
        for end in walker.searchsorted(work.arange(k + 1)[1:]).tolist():
            cells = at[start:end]
            seen.take(cells, out=byte[start:end], mode='wrap')
            np.bitwise_or(byte[start:end], bits[start:end], out=marked[start:end])
            seen[cells] = marked[start:end]
            np.equal(marked[start:end], byte[start:end], out=again[start:end])
            start = end
        again &= moved
        spot = work.spot[:count]
        msg.take(col, out=spot, mode='wrap')
        cells = work.cells[:count]
        np.multiply(walker, size, out=cells)
        cells += spot
        cells += hop * k * size
        slots = at.view(np.int32)[:count]
        np.copyto(slots, slot, casting='same_kind')
        self.slots.reshape(-1)[cells] = slots
        np.multiply(walker, t, out=cells)
        cells += col
        work.any_by_message(k, cells, again, twice)
        # first visits go to the next places of their rows, counted walker
        # by walker; the others go to the last place, which holds a first
        # visit only once all are
        first = work.first[:count]
        np.greater(moved, again, out=first)
        grid = work.grid[:k * t]
        grid.fill(0)
        places = work.tmp[:count]
        np.copyto(places, first)
        grid[cells] = places
        rows = grid.reshape(k, t)
        rows[0] += place
        for w in range(1, k):
            np.add(rows[w], rows[w - 1], out=rows[w])
        np.copyto(place, rows[-1])
        grid.take(cells, out=places, mode='wrap')
        width = self.packed.shape[1]
        np.logical_not(first, out=first)
        np.copyto(places, width - 1, where=first)
        spot *= width
        places += spot
        nodes = at.view(np.int32)[:count]
        np.copyto(nodes, reached, casting='same_kind')
        self.packed.reshape(-1)[places] = nodes
        return moved, cells

    def _untangle(self, hop, tangled, args):
        """Exact slots of a hop for the `tangled` messages where a walker may
        stand on a node visited twice, given flat over their walkers that
        stand on a node, in the rows of `args`: walker index, index i among
        the tangled messages, message, last slot, draw and cheap pick (the
        row `slot`, which is returned, overwritten).

        Each walker tests every option against the edges its message used
        in earlier hops and those its walkers before it use in this hop.
        Starting from the cheap picks, the slots are recomputed from the
        previous round until the free options repeat; walker w is exact
        after round w + 1, so this takes at most k + 2 rounds."""
        graph, k, size, work = self.graph, self.k, self.size, self.work
        walker, i, message, last, drawn, slot, at, base, deg = args
        drawn = drawn.view(np.uint64)
        p = len(walker)
        graph.nbr.take(last, out=at, mode='wrap')
        graph.start.take(at, out=base, mode='wrap')
        graph.deg.take(at, out=deg, mode='wrap')
        d = int(deg.max())
        width = work.arange(d)[:, None]
        options, ids, ranks, running = work.more("untangle options", (4, d, p))
        running = running.view(np.uint64)
        (invalid, used, free_before, free_a, free_b,
         below) = work.more("untangle free", (6, d, p), np.bool_)
        np.greater_equal(width, deg, out=invalid)
        np.add(base, width, out=options)
        np.copyto(options, -1, where=invalid)
        graph.und.take(options, out=ids, mode='wrap')
        hk = hop * k
        cells, past = work.more("untangle past", (2, hk, p))
        np.copyto(cells, work.arange(hk)[:, None])
        cells *= size
        cells += message
        slots = past.reshape(-1).view(np.int32)[:hk * p].reshape(hk, p)
        self.slots.reshape(-1).take(cells, out=slots, mode='wrap')
        np.copyto(cells, slots)
        graph.und.take(cells, out=past, mode='wrap')
        equal = work.more("untangle equal", (hk, d, p), np.bool_)
        np.equal(past[:, None, :], ids, out=equal[:hk])
        np.logical_or.reduce(equal[:hk], axis=0, out=used)
        np.logical_not(invalid, out=free_before)
        np.greater(free_before, used, out=free_before)
        gather, hop_slots, hop_ids = work.more("untangle hop", (3, k, p))
        after = work.more("untangle after", (k, p), np.bool_)
        np.greater_equal(work.arange(k)[:, None], walker, out=after)
        grid = work.more("untangle grid", (k * tangled,))
        grid.fill(-1)
        np.copyto(gather, work.arange(k)[:, None])
        gather *= tangled
        gather += i
        cell = at
        np.multiply(walker, tangled, out=cell)
        cell += i
        grid[cell] = slot
        pick = deg.view(np.uint64)
        free = None
        while True:
            grid.take(gather, out=hop_slots, mode='wrap')
            graph.und.take(hop_slots, out=hop_ids, mode='wrap')
            np.copyto(hop_ids, -1, where=after)
            np.equal(hop_ids[:, None, :], ids, out=equal[:k])
            now = free_a if free is not free_a else free_b
            np.logical_or.reduce(equal[:k], axis=0, out=used)
            np.greater(free_before, used, out=now)
            if free is not None and not np.logical_xor(now, free, out=used).any():
                return slot                  # the same options give the same picks
            free = now
            np.copyto(running, free)
            np.add.accumulate(running, axis=0, out=running)
            count = running[-1]
            np.maximum(count, _U(1), out=pick)
            np.remainder(drawn, pick, out=pick)
            np.less_equal(running, pick, out=below)
            np.copyto(ranks, below)
            np.add.reduce(ranks, axis=0, out=slot)
            slot += base
            none = below[0]
            np.equal(count, _U(0), out=none)
            np.copyto(slot, -1, where=none)
            grid[cell] = slot

    def visits(self, m):
        """The first visits of message m computed so far, in order."""
        return self.packed[m, :self.counts.item(m)].tolist()

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
    changes; the working memory all batches compute in is kept."""

    def __init__(self, overlay, seed):
        self.overlay = overlay
        self.seed = int(seed)
        self.message = 0
        self.origins = self.targets = None
        self.epoch = 0
        self.sweep_origins = np.zeros(0, dtype=np.int64)
        self._up = None
        self._graph = self._batch = self._sweep = None
        self._work = _Work()

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
            batch = _Batch(self.graph(up), self.seed, [msg], [origin], np.array([key]), k, ttl,
                           self._work)
            batch.extend(net.holds)
            return batch, 0
        if (batch is None or up != self._up or batch.asked != (k, ttl)
                or not 0 <= msg - batch.first_id < batch.size):
            graph = self.graph(up)
            self._batch = batch = None      # not alive next to the new one
            end = min(msg + CHUNK, len(plan))
            batch = _Batch(graph, self.seed, range(msg, end), plan[msg:end],
                           self.targets[msg:end], k, ttl, self._work)
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
        batch = _Batch(graph, self.seed, ids, origins, None, k, ttl, self._work)
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


def hello_sweep(net, ctx, origin, k, ttl):
    """Discover peers within ttl hops via k walkers: the distinct up nodes
    visited, origin excluded, in first-visit order. The sweep is the
    origin's in the current sweep epoch (`WalkContext.sweep_batch`)."""
    batch, m = ctx.sweep_batch(net, origin, k, ttl)
    return batch.visits(m)[1:]
