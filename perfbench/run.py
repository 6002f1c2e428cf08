#!/usr/bin/env python3
"""Outside-in benchmark for qrepsim: three fixed simulation workloads.

Run from the repository root:

    python3 perfbench/run.py --workload default-qrep --seed 0 --seconds 45 --trace 0

The simulator is imported from ``src/`` of the checkout this file sits in.
One process runs one workload, one simulation at a time. A run builds and
runs whole simulations for about ``--seconds`` seconds, checks every one of
them (see ``checks.py``), and prints as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics, from simulations traced with
``spans.py`` and alternated with untraced ones to measure the tracing
overhead. Full results, metrics CSVs and span files go to ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from checks import Recorder
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# Builds that only time set-up, made before each simulation.
SETUP_BUILDS = 4

# name -> (base seed, seeds per run, SimConfig fields, QRepParams fields,
#          check_invariants).
# `--seed n` simulates seeds base + k*n ... base + k*n + k - 1. Work per
# query differs from seed to seed (on the trend configuration by up to a
# factor of two), so a run averages k seeds; k is set so that one round of k
# simulations takes 30 to 45 s on a 2-core x86 VM.
WORKLOADS = {
    "default-qrep": (77, 3, {}, {}, False),
    "default-path": (77, 6, {"strategy": "path"}, {}, False),
    "trend-qrep-checked": (101, 4,
                           dict(queries_per_node=60, object_count=25, requester_copy=True,
                                metrics_window_queries=4000, ttl=6),
                           dict(eta=0.9, delta=30, hello_ttl=4, hello_walkers=8), True),
}


@contextmanager
def patched(points):
    """Rebind (owner, attribute) to make_wrapper(current value) while open.

    Points are applied in order, so a later wrapper of the same attribute
    wraps an earlier one."""
    saved = []
    try:
        for owner, attr, make_wrapper in points:
            current = getattr(owner, attr)
            setattr(owner, attr, make_wrapper(current))
            saved.append((owner, attr, current))
        yield
    finally:
        for owner, attr, current in reversed(saved):
            setattr(owner, attr, current)


def import_simulator():
    """Import qrepsim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qrepsim" / "__init__.py").is_file():
        sys.exit(f"error: no qrepsim sources under {src}")
    sys.path.insert(0, str(src))
    from qrepsim import baselines, cli, qrep, sim
    return {"sim": sim, "qrep": qrep, "baselines": baselines, "cli": cli}


class Bench:
    """Builds, runs and checks simulations of one workload."""

    def __init__(self, workload):
        self.modules = import_simulator()
        self.workload = workload
        base, self.seeds_per_run, sim_fields, qrep_fields, checked = WORKLOADS[workload]
        self.base_seed = base
        self.checked = checked
        self.params = self.modules["qrep"].QRepParams(**qrep_fields)
        self.sim_fields = sim_fields
        self.hashes = {}
        self.messages = []

    def config(self, seed):
        return self.modules["sim"].SimConfig(seed=seed, **self.sim_fields)

    def _points(self, recorder, tracer):
        points = tracer.points(self.modules) if tracer else []
        return points + recorder.points(self.modules)

    def _build(self, config, tracer):
        make = self.modules["sim"].Simulation
        if tracer:
            make = tracer.wrap("sim.Simulation", make)
        start = perf_counter()
        simulation = make(config, self.params, check_invariants=self.checked)
        return simulation, perf_counter() - start

    def setup_only(self, seed):
        gc.collect()
        return self._build(self.config(seed), None)[1]

    def simulate(self, seed, tracer=None):
        """Build and run one simulation; returns its measurements."""
        gc.collect()
        config = self.config(seed)
        recorder = Recorder(config)
        with patched(self._points(recorder, tracer)):
            simulation, setup_s = self._build(config, tracer)
            recorder.adjacency = simulation.net.overlay.adjacency_sets()
            run = simulation.run
            if tracer:
                run = tracer.wrap("sim.Simulation.run", run)
            start = perf_counter()
            rows = run()
            run_s = perf_counter() - start
        failed = recorder.finish(simulation, rows, self.checked)
        self.messages += [f"seed {seed}: {m}" for m in recorder.messages]
        self._check_hash(seed, rows)
        hits = [h for h in recorder.hops if h >= 0]
        return {"seed": seed, "setup_s": setup_s, "run_s": run_s,
                "issued": len(recorder.hops), "failed": failed,
                "hits": len(hits), "hops": sum(hits), "probes": recorder.probes}

    def _check_hash(self, seed, rows):
        """Write the metrics CSV; a seed must give the same bytes every time."""
        path = OUT / f"{self.workload}-seed{seed}.csv"
        self.modules["cli"].emit_csv(rows, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.hashes.setdefault(seed, digest) != digest:
            self.messages.append(f"seed {seed}: metrics CSV changed between runs")


def until(seconds, started, longest_s):
    """True while one more round, a quarter longer than the longest so far, fits."""
    return perf_counter() - started + 1.25 * longest_s <= seconds


def run_end_to_end(bench, seeds, seconds):
    """Simulate every seed once per round, for as many rounds as fit.

    Before every simulation a few more builds time set-up, so that set-up
    samples spread over the whole run."""
    started = perf_counter()
    setup, sims = [], []
    longest_s = 0.0
    while not sims or until(seconds, started, longest_s):
        round_start = perf_counter()
        for seed in seeds:
            setup += [bench.setup_only(seed) for _ in range(SETUP_BUILDS)]
            sims.append(bench.simulate(seed))
            setup.append(sims[-1]["setup_s"])
        longest_s = max(longest_s, perf_counter() - round_start)
    first = sims[:len(seeds)]
    issued = sum(s["issued"] for s in first)
    hits = sum(s["hits"] for s in first)
    metrics = {
        "setup_s": statistics.median(setup),
        "queries_per_s": sum(s["issued"] for s in sims) / sum(s["run_s"] for s in sims),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probes_per_query": sum(s["probes"] for s in first) / issued,
        "hops_per_hit": sum(s["hops"] for s in first) / hits,
        "queries_found": hits / len(first),
    }
    return sims, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def run_traced(bench, seed, seconds, spans_path):
    """Alternate untraced and traced simulations of one seed."""
    started = perf_counter()
    plain, traced, self_times, counts = [], [], [], None
    longest_s = 0.0
    while not traced or until(seconds, started, longest_s):
        step_start = perf_counter()
        plain.append(bench.simulate(seed))
        tracer = Tracer()
        traced.append(bench.simulate(seed, tracer))
        longest_s = max(longest_s, perf_counter() - step_start)
        self_times.append(tracer.self_times())
        if counts is None:
            counts = dict(tracer.counts)
            tracer.save(spans_path)
        elif counts != dict(tracer.counts):
            bench.messages.append(f"seed {seed}: traced call counts changed between runs")
    metrics = {f"{name}.s": statistics.median(t[name] for t in self_times)
               for name in self_times[0]}
    metrics.update(counts)
    untraced_s = statistics.mean(s["run_s"] for s in plain)
    traced_s = statistics.mean(s["run_s"] for s in traced)
    metrics["trace.untraced_run.s"] = untraced_s
    metrics["trace.traced_run.s"] = traced_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    select = "qrep.select_target_sites."
    metrics[select + "selected_ratio"] = _ratio(counts[select + "selected"],
                                                counts[select + "probed"])
    replicate = "qrep.replicate_object."
    metrics[replicate + "placed_ratio"] = _ratio(counts[replicate + "transfers"],
                                                 counts[replicate + "targets"])
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args.workload)
    OUT.mkdir(parents=True, exist_ok=True)
    first_seed = bench.base_seed + bench.seeds_per_run * args.seed
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        sims, values = run_traced(bench, first_seed, args.seconds,
                                  OUT / f"{stem}-spans.npz")
        wanted = spec["per_layer"]
    else:
        seeds = [first_seed + i for i in range(bench.seeds_per_run)]
        sims, values = run_end_to_end(bench, seeds, args.seconds)
        wanted = spec["end_to_end"]

    result = {
        "correct": not bench.messages,
        "attempted": sum(s["issued"] for s in sims),
        "failed": sum(s["failed"] for s in sims),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for message in bench.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for seed, digest in sorted(bench.hashes.items()):
        print(f"{args.workload} seed {seed} metrics CSV sha256 {digest}", file=sys.stderr)
    details = dict(result, workload=args.workload, seed=args.seed, sims=sims,
                   csv_sha256=bench.hashes)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
