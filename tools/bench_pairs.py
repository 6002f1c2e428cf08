#!/usr/bin/env python3
"""Seed-paired benchmark runs of a parent commit against this checkout.

Run from the repository root, for example:

    python3 tools/bench_pairs.py --pr 8 --parent HEAD \\
        trend-qrep-checked:10-19 default-qrep:10-12 default-path:10-12 --trace-seed 0

The parent side is `git archive <parent>` unpacked into a temporary
directory; the change side is this checkout's working tree as it stands.
For every seed of every `WORKLOAD:SEEDS` spec the script runs
`perfbench/run.py --workload W --seed N --seconds S --trace 0` once on each
side, with S the `run_seconds` of `BENCHMARK.json`, alternating which side
runs first from one pair to the next. With `--trace-seed N` it adds one
`--trace 1` pair per workload. It writes
`BENCH_<pr>.json`: every pair's printed result objects and metrics-CSV
digests, per-side medians and quartiles of the end-to-end metrics, the
change's wins on each of them, the change/parent median ratios of
`setup_s` and `peak_rss_mb`, every pair's change/parent ratio of
`queries_per_s` and `peak_rss_mb`, and the traced per-layer values side
by side. The file is rewritten after every pair, so a cut run keeps what ran.
Every end-to-end metric whose change median moved from the parent's the
way its `better` calls worse by more than its `bound` is listed under the
group's `flags` and printed as one `FLAG` line on stderr at the end. Every
end-to-end metric whose parent runs spread wider than its `bound`
(quartile distance over median) is listed under `unresolved` and printed
as one `UNRESOLVED` line, unless every change run beats every parent run:
such a metric cannot be called unchanged. Every end-to-end metric carries
`change_wins`, the pairs the change won the way its `better` says (ties
count for neither), and `gain_shown`: true when there are at least ten
pairs, the change wins at least nine tenths of them and its median beats
the parent's by more than the parent's quartile distance; when false,
`gain_reason` says which of these failed. The file names what it
compared: the parent's commit id, the checkout's HEAD commit id, and the
paths `git status --porcelain` lists in the checkout when the runs start.
Nothing under `perfbench/` is edited.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"^\S+ seed (\d+) metrics CSV sha256 ([0-9a-f]{64})$")
# end-to-end metrics whose value must not depend on the code's speed
EXACT = ("probes_per_query", "hops_per_hit", "queries_found")
# a gain claim needs at least this many pairs
MIN_GAIN_PAIRS = 10


def unpack(rev, into):
    """Extract the tracked files of `rev` into the directory `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if archive.wait() != 0:
        sys.exit(f"error: git archive {rev} failed")


def git(root, *args):
    """Stdout of one git command run in the repository at `root`."""
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: git {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def revisions(root, parent):
    """What the two sides run: the commit id of `parent`, the commit id of
    the checkout's HEAD, and the paths `git status --porcelain` lists, whose
    working-tree state the change side runs on top of HEAD."""
    return {"parent_commit": git(root, "rev-parse", "--verify", parent + "^{commit}").strip(),
            "change_head": git(root, "rev-parse", "--verify", "HEAD^{commit}").strip(),
            "change_uncommitted": [line[3:] for line in
                                   git(root, "status", "--porcelain").splitlines()]}


def run_bench(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; returns (result object, {seed: digest})."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: perfbench failed in {tree}:\n{proc.stderr}")
    digests = {}
    for line in proc.stderr.splitlines():
        match = DIGEST.match(line)
        if match:
            digests[match.group(1)] = match.group(2)
    return json.loads(proc.stdout.splitlines()[-1]), digests


def quartiles(values):
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def worse_by(parent, change, better):
    """How far `change` moved from `parent` the wrong way, relative to
    `parent`; zero or negative when it did not."""
    delta = change - parent if better == "lower" else parent - change
    if parent:
        return delta / abs(parent)
    return math.inf if delta > 0 else 0.0


def spread(q):
    """Quartile distance over the median of a `quartiles` result."""
    width = q["q3"] - q["q1"]
    if q["median"]:
        return width / abs(q["median"])
    return math.inf if width > 0 else 0.0


def gain(parent, change, parent_q, c_med, better):
    """`change_wins` and `gain_shown` (with `gain_reason` when false) of one
    metric over seed-paired runs; `better` is "lower" or "higher"."""
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    margin = sign * (c_med - parent_q["median"])
    iqr = parent_q["q3"] - parent_q["q1"]
    out = {"change_wins": wins, "gain_shown": False}
    if len(parent) < MIN_GAIN_PAIRS:
        out["gain_reason"] = f"{len(parent)} pairs, a gain needs at least {MIN_GAIN_PAIRS}"
    elif wins < 0.9 * len(parent):
        out["gain_reason"] = f"won {wins} of {len(parent)} pairs, a gain needs nine tenths"
    elif not margin > iqr:
        out["gain_reason"] = (f"median gain {margin:.6g} is not above the parent's "
                              f"quartile distance {iqr:.6g}")
    else:
        out["gain_shown"] = True
    return out


def summarize(pairs, end_to_end):
    """Medians, quartiles, wins, flags and unresolved metrics over the
    --trace 0 pairs of one group; `end_to_end` is the metric list of
    BENCHMARK.json. `csv_hashes_equal` holds when every pair carries
    metrics-CSV digests and both sides digested the same seeds to the same
    values."""
    def values(side, name):
        return [p[side]["metrics"][name]["value"] for p in pairs]

    out = {"pairs": len(pairs), "flags": [], "unresolved": []}
    for metric in end_to_end:
        name = metric["name"]
        parent, change = values("parent", name), values("change", name)
        out[name] = {"parent": quartiles(parent), "change": quartiles(change)}
        p_med, c_med = out[name]["parent"]["median"], out[name]["change"]["median"]
        out[name].update(gain(parent, change, out[name]["parent"], c_med, metric["better"]))
        if name in ("queries_per_s", "peak_rss_mb"):
            out[name]["ratios"] = [round(c / p, 4) for p, c in zip(parent, change)]
        if name in ("setup_s", "peak_rss_mb") and p_med:
            out[name]["median_ratio"] = round(c_med / p_med, 4)
        if name in EXACT:
            out[name]["equal_per_seed"] = parent == change
        worse = worse_by(p_med, c_med, metric["better"])
        if worse > metric["bound"]:
            out["flags"].append(
                f"{name} median {p_med:.6g} -> {c_med:.6g}: {worse:.1%} worse, "
                f"bound {metric['bound']:.0%}")
        parent_spread = spread(out[name]["parent"])
        if metric["better"] == "lower":
            separated = max(change) < min(parent)
        else:
            separated = min(change) > max(parent)
        if parent_spread > metric["bound"] and not separated:
            out["unresolved"].append(
                f"{name} parent spread {parent_spread:.1%} of the median is wider "
                f"than its bound {metric['bound']:.0%}")
    out["csv_hashes_equal"] = all(p["parent_csv_sha256"]
                                  and p["parent_csv_sha256"] == p["change_csv_sha256"]
                                  for p in pairs)
    out["all_correct"] = all(p[side]["correct"] and p[side]["failed"] == 0
                             for p in pairs for side in ("parent", "change"))
    return out


def environment():
    import numpy
    return (f"{os.cpu_count()} cores, {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}; one benchmark "
            f"process at a time")


def parse_spec(spec):
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    try:
        first = int(first)
        last = int(last) if last else first
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST[-LAST], got {spec!r}")
    if not workload or last < first:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:FIRST[-LAST], got {spec!r}")
    return workload, first, last


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("specs", nargs="+", type=parse_spec, metavar="WORKLOAD:SEEDS")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--trace-seed", type=int, help="add one --trace 1 pair per workload")
    parser.add_argument("--workdir", help="where the parent tree goes (default: system temp)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    out_path = ROOT / f"BENCH_{args.pr}.json"
    compared = revisions(ROOT, args.parent)
    report = {
        "description": (
            f"Seed-paired perfbench runs, parent commit {compared['parent_commit']} "
            f"({args.parent}) against this change (HEAD {compared['change_head']} plus "
            f"the working-tree paths in `change_uncommitted`), order alternated per "
            f"pair (\"first\" says which side ran first). "
            f"Each side ran `python3 perfbench/run.py --workload W --seed N --seconds "
            f"{seconds:g} --trace T` from its own tree. `parent`/`change` hold each "
            f"run's printed result object; `*_csv_sha256` the metrics-CSV digest of every "
            f"simulated seed. `summary` gives medians and quartiles of the --trace 0 runs "
            f"and `flags` every end-to-end metric whose median moved the wrong way by more "
            f"than its BENCHMARK.json bound; `unresolved` lists every end-to-end metric "
            f"whose parent runs spread (quartile distance over median) wider than its "
            f"bound while the two sides' runs overlap, and each metric's `gain_shown` says "
            f"whether the change won at least 9 of at least 10 pairs and beat the parent's "
            f"median by more than the parent's quartile distance (`gain_reason` says why "
            f"not); "
            f"`traced` gives [parent, change] per-layer values of the --trace 1 runs."),
        "environment": environment(),
        **compared,
        "summary": {}, "traced": {}, "pairs": [],
    }
    jobs = [(w, seed, 0, f"{w} seeds {a}-{b}")
            for w, a, b in args.specs for seed in range(a, b + 1)]
    if args.trace_seed is not None:
        for w in dict.fromkeys(w for w, _a, _b in args.specs):
            jobs.append((w, args.trace_seed, 1, None))

    with tempfile.TemporaryDirectory(prefix="bench-parent-", dir=args.workdir) as tmp:
        unpack(compared["parent_commit"], tmp)
        trees = {"parent": tmp, "change": str(ROOT)}
        for i, (workload, seed, trace, group) in enumerate(jobs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                print(f"[{i + 1}/{len(jobs)}] {side}: {workload} seed {seed} trace {trace}",
                      file=sys.stderr, flush=True)
                results[side] = run_bench(trees[side], workload, seed, seconds, trace)
            pair = {"workload": workload, "seed": seed, "trace": trace, "first": order[0]}
            for side in ("parent", "change"):
                pair[side], pair[side + "_csv_sha256"] = results[side]
            report["pairs"].append(pair)
            if trace:
                report["traced"][workload] = {
                    name: [pair["parent"]["metrics"][name]["value"],
                           pair["change"]["metrics"][name]["value"]]
                    for name in sorted(pair["parent"]["metrics"])}
            else:
                group_pairs = [p for p, job in zip(report["pairs"], jobs) if job[3] == group]
                report["summary"][group] = summarize(group_pairs, benchmark["end_to_end"])
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    for group, summary in report["summary"].items():
        for flag in summary["flags"]:
            print(f"FLAG {group}: {flag}", file=sys.stderr)
        for entry in summary["unresolved"]:
            print(f"UNRESOLVED {group}: {entry}", file=sys.stderr)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
