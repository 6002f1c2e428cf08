import re
import shutil
from pathlib import Path

import pytest

from qrepsim.baselines import STRATEGIES
from qrepsim.cli import (compare_runs, emit_csv, main, parse_config,
                         write_resolved_config)
from qrepsim.errors import CompareError, ConfigurationError
from qrepsim.qrep import QRepParams
from qrepsim.sim import MetricsRow, SimConfig, TopologyConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _row(**kwargs):
    base = dict(window_index=0, queries_issued=10, queries_succeeded=7,
                success_rate=0.7, total_replicas=3,
                mean_hops_on_success=2.5, up_node_count=9)
    base.update(kwargs)
    return MetricsRow(**base)


TINY = """\
[sim]
node_count = 120
queries_per_node = 10
object_count = 10
metrics_window_queries = 200
seed = 5

[qrep]
delta = 100
"""


# -- parse_config ------------------------------------------------------------------

def test_empty_file_yields_defaults(tmp_path):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("")
    sim_cfg, qrep_cfg, topo_cfg = parse_config(cfg)
    assert sim_cfg.ttl == 6 and sim_cfg.walkers_k == 6
    assert qrep_cfg.p_th == 5.0 and qrep_cfg.update_every == 50
    assert topo_cfg.avg_degree == 4.0


def test_pressure_config_is_point_c():
    assert parse_config(ROOT / "configs" / "pressure.ini") == (
        SimConfig(queries_per_node=60, object_count=500, query_popularity="zipf:0.8",
                  ttl=3, metrics_window_queries=4000),
        QRepParams(eta=0.9, delta=30, hello_ttl=4, hello_walkers=8),
        TopologyConfig(storage_min=2, storage_max=5))


def test_weight_invariants_rejected(tmp_path):
    cfg = tmp_path / "w.ini"
    cfg.write_text("[qrep]\nw1 = 0.5\nw2 = 0.5\nw3 = 0.0\n")
    with pytest.raises(ConfigurationError):
        parse_config(cfg)


def test_override_beats_file(tmp_path):
    cfg = tmp_path / "ttl.ini"
    cfg.write_text("[sim]\nttl = 8\n")
    sim_cfg, _, _ = parse_config(cfg, {"ttl": 4})
    assert sim_cfg.ttl == 4


def test_unknown_key_lists_valid_ones(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[sim]\nttk = 3\n")
    with pytest.raises(ConfigurationError, match="ttl"):
        parse_config(cfg)


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[simulation]\nttl = 3\n")
    with pytest.raises(ConfigurationError):
        parse_config(cfg)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_config(tmp_path / "nope.ini")


def test_readme_config_documents_the_defaults(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    assert parse_config(cfg) == (SimConfig(), QRepParams(), TopologyConfig())


def test_values_parse_by_field_type(tmp_path):
    cfg = tmp_path / "typed.ini"
    cfg.write_text("[sim]\nrequester_copy = YES   ; a comment\nttl = 3\n"
                   "[qrep]\nreward_floor = off\neta = 0.25\n")
    sim_cfg, qrep_cfg, _ = parse_config(cfg)
    assert sim_cfg.requester_copy is True and sim_cfg.ttl == 3
    assert qrep_cfg.reward_floor is False and qrep_cfg.eta == 0.25
    for text, message in (("[sim]\nrequester_copy = maybe", "'sim.requester_copy': "
                                                          "cannot parse 'maybe' as bool"),
                          ("[sim]\nttl = 2.5", "'sim.ttl': cannot parse '2.5' as int"),
                          ("[qrep]\neta = fast", "'qrep.eta': cannot parse 'fast' as float")):
        cfg.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            parse_config(cfg)


def test_reservation_timeout_is_unknown(tmp_path):
    cfg = tmp_path / "old.ini"
    cfg.write_text("[qrep]\nreservation_timeout = 1000\n")
    with pytest.raises(ConfigurationError, match="unknown key 'reservation_timeout'"):
        parse_config(cfg)


def test_resolved_config_round_trips(tmp_path):
    cfg = tmp_path / "in.ini"
    cfg.write_text(TINY)
    triple = parse_config(cfg)
    out = tmp_path / "config.resolved.ini"
    write_resolved_config(out, *triple)
    assert parse_config(out) == triple


# -- emit_csv ----------------------------------------------------------------------

def test_csv_single_row(tmp_path):
    path = tmp_path / "m.csv"
    emit_csv([_row()], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("window,queries_issued")
    assert lines[1] == "0,10,7,0.700000,3,2.500000,9"


def test_csv_byte_stable(tmp_path):
    rows = [_row(), _row(window_index=1, success_rate=1 / 3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows, a)
    emit_csv(rows, b)
    assert a.read_bytes() == b.read_bytes()


# -- simulate command -----------------------------------------------------------------

def test_simulate_end_to_end_deterministic(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    csv1 = (out1 / "metrics_seed5.csv").read_bytes()
    csv2 = (out2 / "metrics_seed5.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "config.resolved.ini").is_file()


def test_simulate_repeat_with_stride(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    out = tmp_path / "runs"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--repeat", "2", "--seed-stride", "10"])
    assert code == 0
    assert (out / "metrics_seed5.csv").is_file()
    assert (out / "metrics_seed15.csv").is_file()


def test_simulate_gnuplot_companion(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    out = tmp_path / "g"
    main(["simulate", "--config", str(cfg), "--out", str(out), "--gnuplot"])
    assert (out / "plot_seed5.gp").read_text().startswith("set datafile")


@pytest.mark.parametrize("delta, strategy, warned", [
    ("100", "qrep", True),               # the schedule covers 4 scan periods
    ("10", "qrep", False),               # 47
    ("100", "path", False),              # no scans to count
])
def test_simulate_warns_when_a_qrep_run_covers_few_scans(tmp_path, capsys, delta,
                                                         strategy, warned):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY.replace("delta = 100", f"delta = {delta}"))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--strategy", strategy])
    out, err = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 1 and out.startswith(str(tmp_path / "o"))
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == int(warned) and err.count("\n") == int(warned)
    if warned:
        assert "replication scans ran (fewer than 5)" in warnings[0]


def test_simulate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[sim]\nstrategy = flood\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_simulate_config_without_a_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bare.ini"
    cfg.write_text("seed = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed config {cfg}: ") and not (tmp_path / "o").exists()


def test_simulate_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"\xff\xfe[sim]\nseed = 1\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and "UTF-8" in err
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--repeat", "3", "--seed-stride", "0"],
                                   ["--repeat", "0"]])
def test_simulate_bad_seed_exits_2_before_writing(tmp_path, flags):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)] + flags) == 2
    assert not list(out.glob("*.csv")) and not (out / "config.resolved.ini").exists()


def test_simulate_catalog_too_large_exits_2(tmp_path, capsys):
    cfg = tmp_path / "small.ini"
    cfg.write_text("[sim]\nnode_count = 10\nobject_count = 500\n\n"
                   "[topology]\nstorage_min = 1\nstorage_max = 2\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o" / "config.resolved.ini").exists()


def _assert_exits_2_before_writing(tmp_path, capsys, section, line):
    """`simulate` on TINY with `line` set in `section` exits 2 and writes nothing."""
    key = line.split(" = ")[0]
    base = "".join(kept for kept in TINY.splitlines(True) if not kept.startswith(key + " "))
    text = base.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    if text == base:
        text += f"\n[{section}]\n{line}\n"
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("section,line", [
    ("qrep", "delta = nan"),
    ("sim", "query_popularity = zipf:nan"),
    ("topology", "storage_max = inf"),
    ("qrep", "b_min = nan"),
    ("qrep", "p_th = nan"),
    ("topology", "avg_degree = nan"),
])
def test_simulate_non_finite_value_exits_2_before_writing(tmp_path, capsys, section, line):
    _assert_exits_2_before_writing(tmp_path, capsys, section, line)


# finite, but past what a timestamp or a storage draw can hold; each used to
# end in a traceback
@pytest.mark.parametrize("section,line", [
    ("topology", "storage_max = 1e300"),
    ("sim", "mean_query_interval_s = 1e300"),
    ("qrep", "delta = 1e-300"),
    ("qrep", "delta = 0.0005"),                   # rounds to 0 ms
])
def test_simulate_extreme_value_exits_2_before_writing(tmp_path, capsys, section, line):
    _assert_exits_2_before_writing(tmp_path, capsys, section, line)


def test_simulate_percent_in_value_is_a_configuration_error(tmp_path, capsys):
    # values are read literally: a '%' reaches the field's own check, not
    # configparser's interpolation
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY.replace("[sim]\n", "[sim]\nquery_popularity = zipf:50%\n"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'zipf:50%'" in err and err.count("\n") == 1
    assert not out.exists()


def test_compare_reads_values_literally(tmp_path):
    # a hand-edited resolved config with a '%' is compared, not a traceback
    dirs = []
    for strategy in ("qrep", "path"):
        run = tmp_path / strategy
        run.mkdir()
        (run / "config.resolved.ini").write_text(
            f"[sim]\nstrategy = {strategy}\nttl = 3\nseed = 1\nnote = 50%\n")
        (run / "metrics_seed1.csv").write_text("window_index,success_rate\n0,0.5\n")
        dirs.append(str(run))
    assert main(["compare", "--runs", *dirs, "--out", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("config, csv, named", [
    ("junk\n[sim]\nstrategy = path\nttl = 3\nseed = 1\n", None, "config.resolved.ini"),
    ("[sim]\nstrategy = path\nseed = 1\n", None, "config.resolved.ini"),
    ("[sim]\nstrategy = path\nttl = x\nseed = 1\n", None, "config.resolved.ini"),
    (None, "window_index,success_rate\n0,abc\n", "metrics_seed1.csv"),
    (None, "window_index,success_rate\n0\n", "metrics_seed1.csv"),
    ("", None, "config.resolved.ini"),
    (None, "", ""),
    (None, "window_index,success_rate\n", "metrics_seed1.csv"),
], ids=["text-before-first-section", "no-ttl", "ttl-not-an-integer",
        "rate-not-a-number", "row-shorter-than-header", "no-config", "no-csv",
        "header-only-csv"])
def test_compare_unreadable_run_is_an_error(tmp_path, capsys, config, csv, named):
    # a run directory compare cannot read exits 2 and names the file, or the
    # directory when a file is missing; an empty text leaves the file out
    runs = []
    for strategy, bad in (("qrep", False), ("path", True)):
        run = tmp_path / strategy
        run.mkdir()
        for name, text, good in (
                ("config.resolved.ini", config, f"[sim]\nstrategy = {strategy}\nttl = 3\nseed = 1\n"),
                ("metrics_seed1.csv", csv, "window_index,success_rate\n0,0.5\n")):
            text = text if bad and text is not None else good
            if text:
                (run / name).write_text(text)
        runs.append(run)
    report = tmp_path / "r.csv"
    assert main(["compare", "--runs", *map(str, runs), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(re.escape(str(runs[1] / named)) + r"[\s:]", err)
    assert err.count("\n") == 1 and not report.exists()


def test_cli_override_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--strategy", "owner", "--ttl", "4", "--seed", "9"])
    assert code == 0
    resolved = (out / "config.resolved.ini").read_text()
    assert "strategy = owner" in resolved and "ttl = 4" in resolved
    assert (out / "metrics_seed9.csv").is_file()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cli_accepts_every_strategy(tmp_path, strategy):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY.replace("node_count = 120", "node_count = 40"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--strategy", strategy]) == 0
    assert f"strategy = {strategy}" in (out / "config.resolved.ini").read_text()


# -- compare command ---------------------------------------------------------------------

def _make_runs(tmp_path, strategies=("qrep", "path"), extra=()):
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY)
    dirs = []
    for strategy in strategies:
        out = tmp_path / f"run_{strategy}"
        args = ["simulate", "--config", str(cfg), "--out", str(out),
                "--strategy", strategy, "--repeat", "2"] + list(extra)
        assert main(args) == 0
        dirs.append(out)
    return dirs


def test_compare_two_strategies(tmp_path):
    dirs = _make_runs(tmp_path)
    report_path = tmp_path / "report.csv"
    report = compare_runs(dirs, report_path)
    lines = report.strip().splitlines()
    assert lines[0].startswith("strategy,ttl,runs,")
    assert len(lines) == 3                       # two groups for one ttl
    assert sum(line.endswith("*") for line in lines[1:]) == 1
    assert report_path.read_text() == report


def test_compare_stars_every_arm_tied_for_the_best_mean(tmp_path):
    (qrep,) = _make_runs(tmp_path, strategies=("qrep",))
    path = tmp_path / "run_path"
    shutil.copytree(qrep, path)                  # the same CSVs under another strategy
    resolved = path / "config.resolved.ini"
    resolved.write_text(resolved.read_text().replace("strategy = qrep", "strategy = path"))
    rows = compare_runs([qrep, path], tmp_path / "r.csv").strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["path", "qrep"]
    assert all(row.endswith(",*") for row in rows)


def test_compare_reads_columns_by_header_name(tmp_path):
    dirs = _make_runs(tmp_path)
    report = compare_runs(dirs, tmp_path / "r.csv")
    csvs = sorted(tmp_path.glob("run_*/metrics_seed*.csv"))
    for csv_path in csvs:                          # an extra trailing column
        lines = csv_path.read_text().splitlines()
        rows = [lines[0] + ",extra"] + [line + ",7" for line in lines[1:]]
        csv_path.write_text("\n".join(rows) + "\n")
    assert compare_runs(dirs, tmp_path / "r.csv") == report
    for csv_path in csvs:                          # success_rate moved last
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        csv_path.write_text("".join(",".join(r[:3] + r[4:] + r[3:4]) + "\n" for r in rows))
    assert compare_runs(dirs, tmp_path / "r.csv") == report
    csv_path = csvs[0]
    csv_path.write_text(csv_path.read_text().replace("success_rate", "rate"))
    with pytest.raises(CompareError, match="no success_rate column"):
        compare_runs(dirs, tmp_path / "r.csv")


def test_compare_requires_two_dirs(tmp_path):
    (d,) = _make_runs(tmp_path, strategies=("qrep",))
    with pytest.raises(CompareError):
        compare_runs([d], tmp_path / "r.txt")


def test_compare_rejects_mismatched_configs(tmp_path):
    d1, d2 = _make_runs(tmp_path)
    other = tmp_path / "other"
    cfg = tmp_path / "run2.ini"
    cfg.write_text(TINY.replace("node_count = 120", "node_count = 90"))
    assert main(["simulate", "--config", str(cfg), "--out", str(other)]) == 0
    with pytest.raises(CompareError, match="node_count"):
        compare_runs([d1, d2, other], tmp_path / "r.txt")


def test_compare_rejects_repeated_runs(tmp_path):
    # the same directory twice, or two directories that ran the same seeds,
    # would count each of those runs twice
    d1, d2 = _make_runs(tmp_path)
    again = tmp_path / "again"
    assert main(["simulate", "--config", str(tmp_path / "run.ini"), "--out", str(again),
                 "--strategy", "path", "--seed", "6"]) == 0
    report = tmp_path / "r.csv"
    with pytest.raises(CompareError, match="strategy qrep, ttl 6, seed 5"):
        compare_runs([d1, d1, d2], report)
    with pytest.raises(CompareError, match="strategy path, ttl 6, seed 6"):
        compare_runs([d1, d2, again], report)
    assert main(["compare", "--runs", str(d1), str(d1), str(d2), "--out", str(report)]) == 2
    assert not report.exists()


def test_compare_cli_exit_codes(tmp_path):
    d1, d2 = _make_runs(tmp_path)
    ok = main(["compare", "--runs", str(d1), str(d2),
               "--out", str(tmp_path / "rep.csv")])
    assert ok == 0
    single = main(["compare", "--runs", str(d1), "--out", str(tmp_path / "r2.csv")])
    assert single == 2
    unwritable = main(["compare", "--runs", str(d1), str(d2),
                       "--out", str(tmp_path / "missing" / "deep" / "r.csv")])
    assert unwritable == 3
