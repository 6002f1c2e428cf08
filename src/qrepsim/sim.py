"""Deterministic discrete-event driver: workload, churn, metrics windows.

A run is fully determined by (config, seed): the query schedule is built up
front, a qrep run's replication scans fire at every multiple of `delta` up
to the last query time (each before the queries at its time), timestamps
are integer milliseconds, ties break by schedule sequence number, and
every random stream is derived from the run seed (numpy PCG64 for setup,
workload, churn and random placement; the keyed draws of
:mod:`qrepsim.search` for the walks). Query i of the schedule is walk
message i, so its walk depends on nothing but the seed, its origin and
`up`; the Hello sweeps of a scan, and of the initial table build, are
computed at its start under message ids of their own.

A query whose origin is down when its time comes is never issued.

With `check_invariants` an :class:`InvariantChecker` watches the run through
one hook after every event: it checks the nodes whose stores or popularities
that event changed, and at the query event that closes a metrics window and
at the last event every node, every Q-table and the up count.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, qrep
from .errors import ConfigurationError
from .model import Network, generate_topology, place_initial_objects, \
    sample_node_attributes
from .qrep import QRepParams, record_visits, refresh_due
from .search import WalkContext, run_query


@dataclass(frozen=True)
class SimConfig:
    """Run parameters, checked when built (by `replace` too)."""

    node_count: int = 1000
    queries_per_node: int = 100
    mean_query_interval_s: float = 20.0
    initial_up_fraction: float = 0.8
    churn_every_queries: int = 50000
    churn_flip_fraction: float = 0.5
    ttl: int = 6
    walkers_k: int = 6
    strategy: str = "qrep"
    object_count: int = 100
    query_popularity: str = "uniform"    # "uniform" or "zipf:<theta>"
    seed: int = 1
    metrics_window_queries: int = 5000
    requester_copy: bool = False

    def __post_init__(self):
        positive = ("node_count", "queries_per_node", "ttl", "walkers_k",
                    "object_count", "metrics_window_queries")
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.mean_query_interval_s * 1000 < 2 ** 53:
            raise ConfigurationError(
                f"mean_query_interval_s must be positive and below 2**53 ms, "
                f"got {self.mean_query_interval_s}")
        for name in ("initial_up_fraction", "churn_flip_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0,1], got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.churn_every_queries < 0:
            raise ConfigurationError("churn_every_queries must be >= 0 (0 disables churn)")
        if self.strategy not in baselines.STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose one of {baselines.STRATEGIES}")
        self.popularity_profile()

    def popularity_profile(self):
        """Parse query_popularity into ('uniform', None) or ('zipf', theta)."""
        raw = self.query_popularity.strip().lower()
        if raw == "uniform":
            return "uniform", None
        if raw.startswith("zipf:"):
            try:
                theta = float(raw.split(":", 1)[1])
            except ValueError:
                theta = -1.0
            if not 0 < theta < math.inf:
                raise ConfigurationError(
                    f"zipf exponent must be a positive number, got {self.query_popularity!r}")
            return "zipf", theta
        raise ConfigurationError(
            f"query_popularity must be 'uniform' or 'zipf:<theta>', got {self.query_popularity!r}")


@dataclass(frozen=True)
class TopologyConfig:
    """Overlay and node-resource parameters, checked when built (by `replace` too)."""

    avg_degree: float = 4.0
    bandwidth_classes: str = "56:0.2,1000:0.8"
    storage_min: float = 20.0
    storage_max: float = 100.0
    object_size: float = 1.0
    max_retries: int = 64

    def __post_init__(self):
        if not 2 <= self.avg_degree < math.inf:
            raise ConfigurationError(f"avg_degree must be finite and >= 2, got {self.avg_degree}")
        if not 0 < self.object_size < math.inf:
            raise ConfigurationError(f"object_size must be finite and > 0, got {self.object_size}")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if not 0 < self.storage_min <= self.storage_max < 2 ** 53:
            raise ConfigurationError(
                f"storage bounds must satisfy 0 < min <= max < 2**53, got "
                f"[{self.storage_min}, {self.storage_max}]")
        if not (float(self.storage_min).is_integer() and float(self.storage_max).is_integer()):
            raise ConfigurationError(
                f"storage bounds must be whole units, got "
                f"[{self.storage_min}, {self.storage_max}]")
        self.bandwidth_profile()

    def bandwidth_profile(self):
        """Parse bandwidth_classes into (values, weights), validated."""
        values, weights = [], []
        for part in self.bandwidth_classes.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                value, weight = part.split(":")
                values.append(float(value))
                weights.append(float(weight))
            except ValueError:
                raise ConfigurationError(
                    f"bandwidth_classes entries must look like 'value:weight', got {part!r}")
        if not values:
            raise ConfigurationError("bandwidth_classes needs at least one 'value:weight' entry")
        if not all(0 < v < math.inf for v in values):
            raise ConfigurationError("bandwidth values must be positive and finite")
        if not all(w >= 0 for w in weights) or not abs(sum(weights) - 1.0) <= 1e-9:
            raise ConfigurationError("bandwidth weights must be nonnegative and sum to 1")
        return values, weights


@dataclass(frozen=True)
class MetricsRow:
    window_index: int
    queries_issued: int
    queries_succeeded: int
    success_rate: float
    total_replicas: int
    mean_hops_on_success: float
    up_node_count: int


def collect_metrics(net, window_index, issued, succeeded, hops_total):
    """Close one window: scan the stores and aggregate the window counters."""
    return MetricsRow(
        window_index=window_index,
        queries_issued=issued,
        queries_succeeded=succeeded,
        success_rate=succeeded / issued if issued else 0.0,
        total_replicas=int(net.replica_counts().sum()),
        mean_hops_on_success=hops_total / succeeded if succeeded else 0.0,
        up_node_count=int(net.up.sum()),
    )


def schedule_workload(config, net, rng):
    """Build the full query schedule: (times_ms, origins, targets), sorted.

    Every node that is up at schedule time gets queries_per_node events with
    exponential inter-arrival gaps after a uniformly random start offset;
    per-node timestamps are strictly increasing. Targets follow the
    configured popularity. Ties across nodes keep schedule order.

    The draws go node by node in id order (offset, gaps, targets), one row
    of a (nodes, queries_per_node) array each; timestamps are then derived
    and sorted over the whole array at once.
    """
    kind, theta = config.popularity_profile()
    m, q = config.object_count, config.queries_per_node
    if kind == "zipf":
        # the draw rng.choice(m, size=q, p=probs) makes, with its CDF built once
        weights = 1.0 / np.arange(1, m + 1, dtype=np.float64) ** theta
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
    mean_ms = config.mean_query_interval_s * 1000.0
    nodes = np.flatnonzero(net.up)
    offsets = np.empty((len(nodes), 1), dtype=np.int64)
    gaps = np.empty((len(nodes), q))
    targets = np.empty((len(nodes), q), dtype=np.int64)
    for i in range(len(nodes)):
        offsets[i] = rng.integers(0, max(1, int(round(mean_ms))))
        gaps[i] = rng.exponential(config.mean_query_interval_s, q)
        if kind == "uniform":
            targets[i] = rng.integers(0, m, size=q)
        else:
            targets[i] = cdf.searchsorted(rng.random(q), side="right")
    # strict increase survives ms rounding: t[i] >= t[i-1] + 1
    steps = np.arange(q)
    times = np.round(gaps * 1000.0).astype(np.int64).cumsum(axis=1)
    times = np.maximum.accumulate(offsets + times - steps, axis=1) + steps
    order = np.argsort(times.ravel(), kind="stable")
    return times.ravel()[order], np.repeat(nodes, q)[order], targets.ravel()[order]


def apply_churn(net, config, rng):
    """Flip churn_flip_fraction of the down set up and as many up nodes down.

    Both samples come from the pre-churn sets, so the up-node count is
    invariant. Stores and Q-tables survive the outage.
    """
    down = np.nonzero(~net.up)[0]
    up = np.nonzero(net.up)[0]
    n_flip = int(np.ceil(config.churn_flip_fraction * len(down)))
    n_flip = min(n_flip, len(up))
    if n_flip == 0:
        return
    to_up = rng.choice(down, size=n_flip, replace=False)
    to_down = rng.choice(up, size=n_flip, replace=False)
    net.up[to_up] = True
    net.up[to_down] = False


class InvariantChecker:
    """Optional per-event verifier; records violations instead of raising,
    at most `MAX_REPORTS` of them.

    The network's store writers mark every node whose `holds`, `free` or
    `pf` column they change in `net.touched`; the checker empties that set
    when it starts and at every check. `after_event` checks only the marked
    nodes, unless `full` asks for every node, every Q-table and the up count
    read at construction. A write past the store is not marked and surfaces
    only at the next full check."""

    MAX_REPORTS = 20

    def __init__(self, net):
        self.net = net
        self.violations = []
        self.events_checked = 0
        self.up_count = int(net.up.sum())
        net.touched.clear()

    def _report(self, message):
        if len(self.violations) < self.MAX_REPORTS:
            self.violations.append(message)

    def after_event(self, now_ms, full=False):
        """Check storage accounting, popularity and free storage at the nodes
        touched since the last check (every node if `full`), in id order.

        Each kind of violation is reported at most once per event; storage
        and Q-values name the first node that is off."""
        net = self.net
        self.events_checked += 1
        if not (full or net.touched):
            return
        nodes = range(net.n_nodes) if full else sorted(net.touched)
        net.touched.clear()
        drifted = None
        bad_pf = bad_free = False
        # every bound is checked as `not x >= bound`, so a NaN reports too
        for v in nodes:
            free = net.free.item(v)
            stored = net.obj_size @ net.holds[:, v]
            if drifted is None and not abs(stored + free - net.capacity.item(v)) <= 1e-9:
                drifted = v
            bad_pf = bad_pf or not net.pf[:, v].min() >= 0
            bad_free = bad_free or not free >= -1e-9
        if drifted is not None:
            self._report(f"t={now_ms}: storage accounting off at node {drifted}")
        if bad_pf:
            self._report(f"t={now_ms}: negative or NaN popularity")
        if bad_free:
            self._report(f"t={now_ms}: negative or NaN free storage")
        if not full:
            return
        # min catches a negative value, sum a NaN anywhere in the table
        for node, table in enumerate(net.q_tables):
            values = table.values()
            if values and not (min(values) >= 0 and sum(values) >= 0):
                peer = next(p for p, q in table.items() if not q >= 0)
                self._report(f"t={now_ms}: negative or NaN q for peer {peer} at node {node}")
                break
        if (up_count := int(net.up.sum())) != self.up_count:
            self._report(f"t={now_ms}: up count changed {self.up_count} -> {up_count}")


class Simulation:
    """One deterministic run of the configured strategy, from configs that
    were checked when built."""

    def __init__(self, config, params=QRepParams(), topology=TopologyConfig(), *,
                 network=None, check_invariants=False):
        self.config = config
        self.params = params
        self.topology = topology

        ss = np.random.SeedSequence(config.seed)
        (s_topo, s_attr, s_updown, s_place, s_work,
         s_churn, s_walk, s_pick) = ss.spawn(8)
        if network is None:
            overlay = generate_topology(config.node_count, topology.avg_degree,
                                        s_topo, topology.max_retries)
            bandwidth, capacity = sample_node_attributes(topology, config.node_count,
                                                         s_attr)
            up = np.zeros(config.node_count, dtype=np.bool_)
            n_up = int(round(config.initial_up_fraction * config.node_count))
            rng_updown = np.random.default_rng(s_updown)
            up[rng_updown.choice(config.node_count, size=n_up, replace=False)] = True
            obj_size = np.full(config.object_count, topology.object_size)
            network = Network(overlay, bandwidth, capacity, up, obj_size)
            place_initial_objects(network, s_place)
        elif (network.n_nodes, network.n_objects) != (config.node_count,
                                                      config.object_count):
            raise ConfigurationError(
                f"network has {network.n_nodes} nodes and {network.n_objects} objects, "
                f"config asks for {config.node_count} and {config.object_count}")
        self.net = network

        self.rng_work = np.random.default_rng(s_work)
        self.rng_churn = np.random.default_rng(s_churn)
        self.rng_pick = np.random.default_rng(s_pick)
        self.ctx = WalkContext(self.net.overlay, int(s_walk.generate_state(1)[0]))

        self.checker = InvariantChecker(self.net) if check_invariants else None
        self.scans_run = 0

    # -- event handlers ------------------------------------------------------

    def _scan_event(self, now_ms):
        """One replication round per up source with work, in id order.

        A source is an up node that holds a copy `qrep.wants_copies` marks
        as the scan starts. Each round rescans its source's column, which an
        eviction may have emptied, for copies stored before the scan: a copy
        stored during it (wanted at p_th = 0) waits for the next scan."""
        net, params = self.net, self.params
        sources = np.nonzero(net.up & qrep.wants_copies(net, params).any(axis=0))[0]
        self.ctx.sweep(net, sources, params.hello_walkers, params.hello_ttl)
        for source in sources.tolist():
            qrep.run_replication_round(net, self.ctx, source, params, now_ms)

    def _query_event(self, now_ms, origin, obj):
        """Issue one query and apply its effects; returns its QueryOutcome,
        or None for a down origin, which issues nothing. No other layer
        decides a down origin."""
        cfg = self.config
        net = self.net
        if not net.up[origin]:
            return None
        outcome, visited = run_query(net, self.ctx, origin, obj,
                                     cfg.walkers_k, cfg.ttl)
        record_visits(net, visited, obj)
        refresh_due(net, visited, self.params)
        if outcome.hops_used:              # a remote hit: a copy can go elsewhere
            if cfg.strategy == "owner" or (cfg.strategy == "qrep" and cfg.requester_copy):
                baselines.owner_replicate(net, outcome, obj, now_ms)
            elif cfg.strategy == "path":
                baselines.path_replicate(net, outcome, obj, now_ms)
            elif cfg.strategy == "random":
                baselines.random_replicate(net, outcome, obj, visited,
                                           self.rng_pick, now_ms)
        return outcome

    # -- driver ---------------------------------------------------------------

    def run(self):
        """Run the whole schedule; returns the metrics rows. Each window
        counts the outcomes `_query_event` returns: queries issued, hits,
        and the hops of those hits. `scans_run` then holds the number of
        replication scans that ran: one at every multiple of `delta` up to
        the last query time, for qrep only. The walk context gets the
        schedule up front and the message id of each query as it comes."""
        cfg = self.config
        times, origins, targets = schedule_workload(cfg, self.net, self.rng_work)
        self.ctx.plan(origins, targets)

        next_scan = math.inf
        if cfg.strategy == "qrep" and len(times):
            delta_ms = int(round(self.params.delta * 1000))
            next_scan = delta_ms
            nodes = np.nonzero(self.net.up)[0]
            self.ctx.sweep(self.net, nodes, self.params.hello_walkers, self.params.hello_ttl)
            for v in nodes.tolist():
                qrep.build_q_table(self.net, self.ctx, v, self.params)

        rows = []
        issued_total = 0
        win_issued = win_succeeded = 0
        win_hops = 0
        self.scans_run = 0

        last = len(times) - 1
        for i in range(len(times)):
            now = times.item(i)
            while next_scan <= now:
                self._scan_event(next_scan)
                if self.checker:
                    self.checker.after_event(next_scan)
                self.scans_run += 1
                next_scan += delta_ms
            self.ctx.message = i
            outcome = self._query_event(now, origins.item(i), targets.item(i))
            if outcome is not None:
                issued_total += 1
                win_issued += 1
                win_succeeded += outcome.success
                win_hops += outcome.hops_used     # 0 on a miss
                if win_issued == cfg.metrics_window_queries:
                    rows.append(collect_metrics(self.net, len(rows), win_issued,
                                                win_succeeded, win_hops))
                    win_issued = win_succeeded = win_hops = 0
                if cfg.churn_every_queries and issued_total % cfg.churn_every_queries == 0:
                    apply_churn(self.net, cfg, self.rng_churn)
            if self.checker:
                # every node at the event that closed a window, and at the last
                closed = outcome is not None and win_issued == 0
                self.checker.after_event(now, full=closed or i == last)

        if win_issued or not rows:
            rows.append(collect_metrics(self.net, len(rows), win_issued,
                                        win_succeeded, win_hops))
        return rows
