"""Spans around calls into qrepsim's layers, recorded from outside the program.

The benchmark rebinds module attributes where qrepsim's callers look them up
(``sim`` imports ``run_query`` by name, ``qrep`` imports ``hello_sweep`` by
name, and so on) and wraps each in a span. A span has a name, a start, an
end and a parent: the span that was open when it began. Spans live in flat
arrays while the simulation runs; self time, a span's duration minus the
time its child spans cover, is computed once the run is over.
"""

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count_query(counts, prefix, args, result):
    outcome = result[0]
    counts[prefix + "probes"] += outcome.probes
    if outcome.success:
        counts[prefix + "hits"] += 1
        counts[prefix + "hops"] += outcome.hops_used


def _count_select(counts, prefix, args, result):
    _targets, probes = result
    counts[prefix + "probed"] += len(probes)
    for _peer, status in probes:
        counts[prefix + status] += 1


def _count_replicate(counts, prefix, args, result):
    counts[prefix + "targets"] += len(args[3])
    counts[prefix + "transfers"] += len(result)


def _add_result(key):
    def count(counts, prefix, args, result):
        counts[prefix + key] += result
    return count


def _add_len(key):
    def count(counts, prefix, args, result):
        counts[prefix + key] += len(result)
    return count


# (span name, owner of the attribute, attribute, counter, count keys).
# Every span also counts its calls as "<span name>.calls".
POINTS = [
    ("model.generate_topology", "sim", "generate_topology", None, ()),
    ("model.sample_node_attributes", "sim", "sample_node_attributes", None, ()),
    ("model.place_initial_objects", "sim", "place_initial_objects", None, ()),
    ("search.WalkContext", "sim", "WalkContext", None, ()),
    ("sim.schedule_workload", "sim", "schedule_workload", None, ()),
    ("sim.collect_metrics", "sim", "collect_metrics", None, ()),
    ("sim.apply_churn", "sim", "apply_churn", None, ()),
    ("sim.InvariantChecker.after_event", "sim.InvariantChecker", "after_event", None, ()),
    ("search.run_query", "sim", "run_query", _count_query, ("probes", "hits", "hops")),
    ("kernels.record_visits", "sim", "record_visits", None, ()),
    ("kernels.refresh_due", "sim", "refresh_due", _add_result("due"), ("due",)),
    ("search.hello_sweep", "qrep", "hello_sweep", _add_len("responders"), ("responders",)),
    ("qrep.update_popularities", "qrep", "update_popularities", None, ()),
    ("qrep.run_replication_round", "qrep", "run_replication_round", None, ()),
    ("qrep.scan_for_replication", "qrep", "scan_for_replication", _add_len("objects"),
     ("objects",)),
    ("qrep.build_q_table", "qrep", "build_q_table", None, ()),
    ("qrep.select_target_sites", "qrep", "select_target_sites", _count_select,
     ("probed", "selected", "down", "holds_copy", "reserved")),
    ("qrep.replicate_object", "qrep", "replicate_object", _count_replicate,
     ("targets", "transfers")),
    ("qrep.evict_for_space", "qrep", "evict_for_space", _add_len("evicted"), ("evicted",)),
    ("qrep.apply_round_updates", "qrep", "apply_round_updates", None, ()),
    ("baselines.owner_replicate", "baselines", "owner_replicate", _add_len("placed"),
     ("placed",)),
    ("baselines.path_replicate", "baselines", "path_replicate", _add_len("placed"),
     ("placed",)),
    ("baselines.evict_for_space", "baselines", "evict_for_space", _add_len("evicted"),
     ("evicted",)),
]


class Tracer:
    """Records spans and per-call counts for one simulation."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)

    def wrap(self, name, fn, count=None, keys=()):
        """Return `fn` wrapped in a span called `name`.

        The wrapper counts calls, and `count(counts, name + ".", args,
        result)` adds to the counts `name + "." + key` for key in `keys`.
        """
        nid = len(self.names)
        self.names.append(name)
        prefix = name + "."
        calls = prefix + "calls"
        for key in ("calls",) + keys:
            self.counts[prefix + key] = 0
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts = self.stack, self.counts

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, prefix, args, result)
            return result

        return traced

    def points(self, modules):
        """(owner, attribute, make_wrapper) patches that trace every layer.

        `modules` maps "sim", "qrep" and "baselines" to those modules."""
        patches = []
        for name, owner, attr, count, keys in POINTS:
            module, _, cls = owner.partition(".")
            target = getattr(modules[module], cls) if cls else modules[module]
            patches.append((target, attr, lambda fn, name=name, count=count, keys=keys:
                            self.wrap(name, fn, count, keys)))
        return patches

    def self_times(self):
        """Seconds of self time summed per span name."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        per_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.asarray(self.name), parent=np.asarray(self.parent),
                            start=np.asarray(self.start), end=np.asarray(self.end))
