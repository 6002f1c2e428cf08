"""Reference replication strategies: none, owner, path, random.

All of them react to a successful query and share the engine's eviction
policy, so comparative runs isolate the placement rule itself. A failed
query's outcome has an empty path, so each of them places nothing for it.
"""

from .qrep import evict_for_space

STRATEGIES = ("none", "owner", "path", "random", "qrep")


def place_replica(net, node, obj, now_ms):
    """Store a replica at `node` if possible, evicting to make room.

    Returns True on placement; False when the node is down, already holds
    the object, or cannot free enough space."""
    if not net.up[node] or net.holds[obj, node]:
        return False
    size = net.obj_size[obj]
    if net.free[node] < size:
        evict_for_space(net, node, size)
        if net.free[node] < size:
            return False
    net.store_object(node, obj, now_ms)
    return True


def owner_replicate(net, outcome, obj, now_ms):
    """Copy the found object to the requesting node only."""
    if not outcome.path:
        return []
    origin = outcome.path[0]
    return [origin] if place_replica(net, origin, obj, now_ms) else []


def path_replicate(net, outcome, obj, now_ms):
    """Copy the object onto every node of the winning path except the provider.

    Works provider-side first; nodes already holding the object (including a
    repeat visit in the path) and nodes that cannot make space are skipped."""
    if len(outcome.path) < 2:
        return []
    placed = []
    for node in reversed(outcome.path[:-1]):
        if place_replica(net, node, obj, now_ms):
            placed.append(node)
    return placed


def random_replicate(net, outcome, obj, visited, rng, now_ms):
    """Place as many replicas as path replication would (len(path)-1), but on
    uniformly chosen nodes among those the query's walkers visited.

    Holders and nodes that cannot make space are skipped; when the pool runs
    short, fewer replicas are placed."""
    requested = len(outcome.path) - 1
    if requested <= 0:
        return []
    pool = [int(v) for v in visited if not net.holds[obj, v]]
    placed = []
    for idx in rng.permutation(len(pool)):
        if len(placed) >= requested:
            break
        node = pool[idx]
        if place_replica(net, node, obj, now_ms):
            placed.append(node)
    return placed
