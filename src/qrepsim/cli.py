"""Command line front end: config files, run orchestration, CSV, reports.

Config files are flat INI with [sim], [qrep] and [topology] sections; every
key has a default, unknown keys are rejected with the list of valid ones.
`simulate` writes one metrics CSV per repeat plus the fully resolved config
into the output directory; `compare` aggregates final-window success rates
across such directories.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import configparser
import statistics
import sys
from dataclasses import fields, replace
from pathlib import Path

from .baselines import STRATEGIES
from .errors import CompareError, ConfigurationError, PlacementError
from .qrep import QRepParams
from .sim import SimConfig, Simulation, TopologyConfig

_SECTIONS = {"sim": SimConfig, "qrep": QRepParams, "topology": TopologyConfig}
# the ConfigParser getter per field type; a bool reads 1/0, true/false,
# yes/no or on/off, in any case
_GETTERS = {bool: "getboolean", int: "getint", float: "getfloat", str: "get"}


def _field_types(cls):
    # every config field has a scalar default
    return {f.name: type(f.default) for f in fields(cls)}


def parse_config(path, overrides=None):
    """Read an INI config and apply CLI overrides.

    Returns (SimConfig, QRepParams, TopologyConfig); building each checks its
    values and raises ConfigurationError on a bad one.
    An empty file yields the documented defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8 text: {exc.reason} "
                                 f"at byte {exc.start}") from None

    values = {section: {} for section in _SECTIONS}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"unknown section [{section}]; valid sections: {sorted(_SECTIONS)}")
        types = _field_types(_SECTIONS[section])
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigurationError(
                    f"unknown key {key!r} in [{section}]; valid keys: {sorted(types)}")
            try:
                values[section][key] = getattr(parser, _GETTERS[types[key]])(section, key)
            except ValueError:
                raise ConfigurationError(f"key '{section}.{key}': cannot parse {raw!r} "
                                         f"as {types[key].__name__}")

    for key, value in (overrides or {}).items():
        for section, cls in _SECTIONS.items():
            if key in _field_types(cls):
                values[section][key] = value
                break
        else:
            raise ConfigurationError(f"unknown override {key!r}")

    sim_cfg = SimConfig(**values["sim"])
    qrep_cfg = QRepParams(**values["qrep"])
    topo_cfg = TopologyConfig(**values["topology"])
    return sim_cfg, qrep_cfg, topo_cfg


def write_resolved_config(path, sim_cfg, qrep_cfg, topo_cfg):
    """Write the fully resolved configuration (every key, canonical order)."""
    lines = []
    for section, cfg in (("sim", sim_cfg), ("qrep", qrep_cfg), ("topology", topo_cfg)):
        lines.append(f"[{section}]")
        for f in fields(cfg):
            lines.append(f"{f.name} = {getattr(cfg, f.name)}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="ascii")


CSV_HEADER = "window,queries_issued,queries_succeeded,success_rate,total_replicas,mean_hops,up_nodes"


def emit_csv(rows, path):
    """Write the metrics rows as locale-independent, byte-stable CSV."""
    if not rows:
        raise ValueError("no metrics rows to write")
    out = [CSV_HEADER]
    for r in rows:
        out.append(f"{r.window_index},{r.queries_issued},{r.queries_succeeded},"
                   f"{r.success_rate:.6f},{r.total_replicas},"
                   f"{r.mean_hops_on_success:.6f},{r.up_node_count}")
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii", newline="\n")
    return path


# a qrep run with fewer scans than this barely replicates, so its metrics
# say little about learned placement
MIN_SCANS = 5

_GNUPLOT = """set datafile separator ","
set key autotitle columnhead
set xlabel "window"
set ylabel "success rate"
plot "{csv}" using 1:4 with linespoints title "success rate", \\
     "" using 1:($5/{scale}) with linespoints title "replicas/{scale}"
"""


def _final_value(csv_path, column):
    """The last window's value in the column named `column`."""
    try:
        lines = Path(csv_path).read_text().strip().splitlines()
    except UnicodeDecodeError:
        raise CompareError(f"{csv_path} is not text") from None
    if len(lines) < 2:
        raise CompareError(f"{csv_path} has no data rows")
    header = lines[0].split(",")
    if column not in header:
        raise CompareError(f"{csv_path} has no {column} column")
    row = lines[-1].split(",")
    if len(row) != len(header):
        raise CompareError(f"{csv_path}: last row has {len(row)} fields, "
                           f"header has {len(header)}")
    value = row[header.index(column)]
    try:
        return float(value)
    except ValueError:
        raise CompareError(f"{csv_path}: last {column} {value!r} is not a number") from None


def _resolved_config(cfg_path):
    """Every (section, key) -> value of a run's resolved config, and its
    strategy and ttl."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(cfg_path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        reason = str(exc).splitlines()[0]
        raise CompareError(f"{cfg_path} is not a config file: {reason}") from None
    flat = {(s, k): v for s in parser.sections() for k, v in parser.items(s)}
    for key in ("strategy", "ttl"):
        if ("sim", key) not in flat:
            raise CompareError(f"{cfg_path} has no [sim] {key}")
    try:
        ttl = int(flat[("sim", "ttl")])
    except ValueError:
        raise CompareError(f"{cfg_path}: [sim] ttl {flat[('sim', 'ttl')]!r} "
                           f"is not an integer") from None
    return flat, flat[("sim", "strategy")], ttl


def compare_runs(run_dirs, report_path):
    """Summarize final-window success per (strategy, ttl) across run dirs,
    starring every strategy with the best mean per ttl (all of them on a tie).

    Directories must share every resolved config key except strategy, ttl
    and seed, and no (strategy, ttl, seed) may appear twice, as it would
    when one directory is named twice. Returns the report text written to
    report_path.
    """
    if len(run_dirs) < 2:
        raise CompareError("need at least two run directories to compare")
    varying = {("sim", "strategy"), ("sim", "ttl"), ("sim", "seed")}
    baseline = None
    baseline_dir = None
    groups = {}
    sources = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        cfg_path = run_dir / "config.resolved.ini"
        if not cfg_path.is_file():
            raise CompareError(f"missing {cfg_path}")
        flat, strategy, ttl = _resolved_config(cfg_path)
        fixed = {key: v for key, v in flat.items() if key not in varying}
        if baseline is None:
            baseline, baseline_dir = fixed, run_dir
        elif fixed != baseline:
            diff = sorted(k for k in set(fixed) | set(baseline)
                          if fixed.get(k) != baseline.get(k))
            names = ", ".join(f"{s}.{k}" for s, k in diff)
            raise CompareError(
                f"{run_dir} is not comparable with {baseline_dir}: differing keys {names}")
        csvs = sorted(run_dir.glob("metrics_seed*.csv"))
        if not csvs:
            raise CompareError(f"no metrics CSVs in {run_dir}")
        for csv_path in csvs:
            seed = csv_path.stem.removeprefix("metrics_seed")
            key = (strategy, ttl, seed)
            if key in sources:
                raise CompareError(f"{csv_path} repeats strategy {strategy}, ttl {ttl}, "
                                   f"seed {seed} of {sources[key]}")
            sources[key] = csv_path
            rate = _final_value(csv_path, "success_rate")
            groups.setdefault((strategy, ttl), []).append(rate)

    stats = []
    for (strategy, ttl), rates in sorted(groups.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        std = statistics.stdev(rates) if len(rates) > 1 else 0.0
        stats.append((strategy, ttl, len(rates), statistics.fmean(rates), std))
    best = {}
    for _strategy, ttl, _runs, mean, _std in stats:
        best[ttl] = max(best.get(ttl, mean), mean)
    lines = ["strategy,ttl,runs,final_success_mean,final_success_std,winner"]
    for strategy, ttl, runs, mean, std in stats:
        mark = "*" if mean == best[ttl] else ""
        lines.append(f"{strategy},{ttl},{runs},{mean:.6f},{std:.6f},{mark}")
    report = "\n".join(lines) + "\n"
    Path(report_path).write_text(report, encoding="ascii")
    return report


# -- entry points --------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(prog="qrepsim",
                                     description="P2P replication strategy simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configuration")
    sim.add_argument("--config", required=True, help="INI config file")
    sim.add_argument("--strategy", choices=STRATEGIES)
    sim.add_argument("--ttl", type=int)
    sim.add_argument("--walkers", type=int, dest="walkers_k")
    sim.add_argument("--nodes", type=int, dest="node_count")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--repeat", type=int, default=1)
    sim.add_argument("--seed-stride", type=int, default=1)
    sim.add_argument("--out", default="runs/out")
    sim.add_argument("--gnuplot", action="store_true",
                     help="also write a gnuplot script next to the CSVs")

    cmp_ = sub.add_parser("compare", help="compare finished run directories")
    cmp_.add_argument("--runs", nargs="+", required=True)
    cmp_.add_argument("--out", required=True)
    return parser


def _cmd_simulate(args):
    overrides = {}
    for key in ("strategy", "ttl", "walkers_k", "node_count", "seed"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.repeat < 1:
        raise ConfigurationError("--repeat must be >= 1")
    if args.seed_stride < 1:
        raise ConfigurationError("--seed-stride must be >= 1")
    sim_cfg, qrep_cfg, topo_cfg = parse_config(args.config, overrides)
    # built before anything is written, so a catalog that does not fit
    # leaves no output directory behind
    first = Simulation(sim_cfg, qrep_cfg, topo_cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out_dir / "config.resolved.ini", sim_cfg, qrep_cfg, topo_cfg)
    for i in range(args.repeat):
        seed = sim_cfg.seed + i * args.seed_stride
        simulation = first if i == 0 else Simulation(replace(sim_cfg, seed=seed),
                                                     qrep_cfg, topo_cfg)
        rows = simulation.run()
        csv_path = out_dir / f"metrics_seed{seed}.csv"
        emit_csv(rows, csv_path)
        final = rows[-1]
        print(f"{csv_path}: windows={len(rows)} final_success={final.success_rate:.6f} "
              f"replicas={final.total_replicas}")
        if sim_cfg.strategy == "qrep" and simulation.scans_run < MIN_SCANS:
            print(f"warning: {csv_path}: only {simulation.scans_run} replication scans "
                  f"ran (fewer than {MIN_SCANS}); lower [qrep] delta or raise "
                  f"queries_per_node for learned placement to show", file=sys.stderr)
        if args.gnuplot:
            scale = max(1, sim_cfg.node_count)
            (out_dir / f"plot_seed{seed}.gp").write_text(
                _GNUPLOT.format(csv=csv_path.name, scale=scale), encoding="ascii")
    return 0


def _cmd_compare(args):
    report = compare_runs(args.runs, args.out)
    print(report, end="")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_compare(args)
    except (ConfigurationError, PlacementError, CompareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
