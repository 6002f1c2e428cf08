"""Correctness checks on one simulation, computed apart from the program.

A :class:`Recorder` wraps a few of qrepsim's calls to observe every query
outcome, every placement and every target selection as it happens. What
depends on the state at that moment is checked inline; the rest is checked
after the run against the metrics rows. A failure is charged to the query
events it concerns: one query for a per-query check, every query of the
window for a check that covers a window.
"""

import math

import numpy as np


class Recorder:
    """Observes one simulation through wrappers and checks its outputs."""

    def __init__(self, config):
        self.window_size = config.metrics_window_queries
        self.hops = []              # one entry per issued query: hops, or -1 on a miss
        self.probes = 0
        self.hosts = None           # object -> initial host
        self.adjacency = None       # node -> set of neighbours, set before the run
        self.windows_closed = 0
        self.bad_queries = set()
        self.bad_windows = set()
        self.messages = []

    # -- failure bookkeeping -----------------------------------------------

    def _fail_query(self, message):
        self.bad_queries.add(len(self.hops) - 1)
        self.messages.append(f"query {len(self.hops) - 1}: {message}")

    def _fail_window(self, window, message):
        self.bad_windows.add(window)
        self.messages.append(f"window {window}: {message}")

    # -- wrappers -----------------------------------------------------------

    def points(self, modules):
        """(owner, attribute, make_wrapper) patches; `modules` maps names to qrepsim modules."""
        sim, qrep, baselines = modules["sim"], modules["qrep"], modules["baselines"]
        return [
            (sim, "place_initial_objects", self._wrap_placement),
            (sim, "collect_metrics", self._wrap_collect),
            (sim, "run_query", self._wrap_query),
            (baselines, "owner_replicate", self._wrap_replicate),
            (baselines, "path_replicate", self._wrap_replicate),
            (qrep, "select_target_sites", self._wrap_select),
        ]

    def _wrap_placement(self, fn):
        def place_initial_objects(net, seed):
            hosts = fn(net, seed)
            self.hosts = dict(hosts)
            return hosts
        return place_initial_objects

    def _wrap_collect(self, fn):
        def collect_metrics(net, window_index, *args):
            self.check_storage(net, window_index)
            self.windows_closed += 1
            return fn(net, window_index, *args)
        return collect_metrics

    def _wrap_query(self, fn):
        def run_query(net, ctx, origin, key, k, ttl):
            outcome, visited = fn(net, ctx, origin, key, k, ttl)
            self.probes += outcome.probes
            self.hops.append(outcome.hops_used if outcome.success else -1)
            if outcome.probes > k * ttl + 1:
                self._fail_query(f"{outcome.probes} probes exceed k*ttl+1 = {k * ttl + 1}")
            if outcome.success:
                path = outcome.path
                up, adjacency = net.up, self.adjacency
                if (path[0] != origin or path[-1] != outcome.provider
                        or len(path) != outcome.hops_used + 1 or len(path) > ttl + 1):
                    self._fail_query(f"path {path} does not fit origin {origin}, "
                                     f"provider {outcome.provider}, hops {outcome.hops_used}")
                elif not net.holds[key, outcome.provider]:
                    self._fail_query(f"provider {outcome.provider} lacks object {key}")
                elif not all(up[v] for v in path):
                    self._fail_query(f"path {path} crosses a down node")
                elif any(b not in adjacency[a] for a, b in zip(path, path[1:])):
                    self._fail_query(f"path {path} leaves the overlay")
            return outcome, visited
        return run_query

    def _wrap_replicate(self, fn):
        def replicate(net, outcome, obj, now_ms):
            placed = fn(net, outcome, obj, now_ms)
            for node in placed:
                if node not in outcome.path or not net.holds[obj, node]:
                    self._fail_query(f"copy of object {obj} placed at {node}, "
                                     f"off the path {outcome.path} or not stored")
            return placed
        return replicate

    def _wrap_select(self, fn):
        def select_target_sites(net, node, object_key, params, now_ms):
            targets, probes = fn(net, node, object_key, params, now_ms)
            table = net.q_tables[node]
            mean = sum(table.values()) / len(table)
            floor = mean - 1e-9 * abs(mean)
            for peer in targets:
                if not net.up[peer] or net.holds[object_key, peer] or table[peer] < floor:
                    self._fail_window(self.windows_closed,
                                      f"node {node} selected peer {peer} for object "
                                      f"{object_key}: down, holder or below the mean Q")
            return targets, probes
        return select_target_sites

    # -- checks -------------------------------------------------------------

    def check_storage(self, net, window):
        """Storage accounting and the one original per object on its host."""
        held = net.obj_size @ net.holds
        used = net.capacity - net.free
        if not np.allclose(used, held, rtol=0.0, atol=1e-9) or net.free.min() < 0:
            self._fail_window(window, "storage accounting is off or free storage is negative")
        objs = np.array(sorted(self.hosts))
        hosts = np.array([self.hosts[o] for o in objs])
        if (not np.array_equal(net.original.sum(axis=1), np.ones(net.n_objects))
                or not net.original[objs, hosts].all() or not net.holds[objs, hosts].all()):
            self._fail_window(window, "an object lost its single original on its initial host")

    def finish(self, simulation, rows, checked):
        """Checks on the finished run; returns the number of failed query events."""
        net = simulation.net
        last = max(len(rows) - 1, 0)
        self.check_storage(net, last)
        if len({row.up_node_count for row in rows}) != 1:
            self._fail_window(last, "the up count changed between windows")
        issued = sum(row.queries_issued for row in rows)
        if issued != len(self.hops):
            self._fail_window(last, f"rows issue {issued} queries, wrappers saw {len(self.hops)}")
        w = self.window_size
        for i, row in enumerate(rows):
            chunk = self.hops[i * w:(i + 1) * w]
            hits = [h for h in chunk if h >= 0]
            mean_hops = sum(hits) / len(hits) if hits else 0.0
            if (row.window_index != i or row.queries_issued != len(chunk)
                    or row.queries_succeeded != len(hits)
                    or not math.isclose(row.mean_hops_on_success, mean_hops, rel_tol=1e-12)):
                self._fail_window(i, "row does not match the observed query outcomes")
        if checked:
            checker = simulation.checker
            if checker is None or checker.events_checked == 0:
                self._fail_window(last, "the invariant checker did not run")
            elif checker.violations:
                self._fail_window(last, f"checker violations: {checker.violations[:3]}")
        return sum(1 for q in range(len(self.hops))
                   if q in self.bad_queries or q // w in self.bad_windows)
