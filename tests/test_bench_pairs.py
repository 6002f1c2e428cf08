"""tools/bench_pairs.py summarises seed-paired runs, flags regressions and names
the commits it compared."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import revisions, summarize  # noqa: E402

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


DIGEST = {"0": "0" * 64}


def _pair(parent, change, parent_digests=DIGEST, change_digests=DIGEST):
    """One --trace 0 pair; `parent`/`change` map metric names to values,
    any metric not named reads 1.0 on that side. Both sides carry the same
    metrics-CSV digest unless told otherwise."""
    def side(values):
        metrics = {m["name"]: {"value": values.get(m["name"], 1.0)} for m in END_TO_END}
        return {"metrics": metrics, "correct": True, "failed": 0}
    return {"parent": side(parent), "change": side(change),
            "parent_csv_sha256": parent_digests, "change_csv_sha256": change_digests}


def test_summary_flags_each_metric_past_its_bound_the_wrong_way():
    pairs = [_pair({"queries_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 50.0},
                   {"queries_per_s": 70.0, "setup_s": 1.3, "peak_rss_mb": 56.0}),
             _pair({"queries_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 50.0},
                   {"queries_per_s": 74.0, "setup_s": 1.3, "peak_rss_mb": 56.0})]
    summary = summarize(pairs, END_TO_END)
    flagged = [flag.split()[0] for flag in summary["flags"]]
    assert flagged == ["setup_s", "queries_per_s", "peak_rss_mb"]
    assert summary["setup_s"]["median_ratio"] == 1.3
    assert summary["peak_rss_mb"]["median_ratio"] == 1.12
    assert summary["queries_per_s"]["change_wins"] == 0
    # a speed or memory claim shows each pair's change/parent ratio
    assert summary["queries_per_s"]["ratios"] == [0.7, 0.74]
    assert summary["peak_rss_mb"]["ratios"] == [1.12, 1.12]
    assert "ratios" not in summary["setup_s"]


def test_summary_does_not_flag_gains_or_moves_inside_the_bound():
    pairs = [_pair({"queries_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 50.0,
                    "probes_per_query": 10.0},
                   {"queries_per_s": 180.0, "setup_s": 0.5, "peak_rss_mb": 54.0,
                    "probes_per_query": 12.0})]
    summary = summarize(pairs, END_TO_END)
    assert summary["flags"] == []
    assert summary["queries_per_s"]["change_wins"] == 1
    assert summary["probes_per_query"]["equal_per_seed"] is False
    assert summary["all_correct"] and summary["csv_hashes_equal"]


def test_csv_hashes_equal_needs_the_same_digests_on_both_sides():
    assert summarize([_pair({}, {}), _pair({}, {})], END_TO_END)["csv_hashes_equal"]
    unequal = [
        ({}, {}),                                     # no digest line was parsed
        (DIGEST, {}),
        (DIGEST, {"1": DIGEST["0"]}),                 # other seeds
        (DIGEST, {"0": "1" * 64}),
    ]
    for parent_digests, change_digests in unequal:
        pairs = [_pair({}, {}), _pair({}, {}, parent_digests, change_digests)]
        assert not summarize(pairs, END_TO_END)["csv_hashes_equal"]


def test_wide_parent_spread_is_unresolved_unless_the_sides_separate():
    parent_qps = [100.0, 200.0, 100.0, 200.0]     # spread 100 over a median of 150
    overlapping = [_pair({"queries_per_s": p}, {"queries_per_s": p + 10.0})
                   for p in parent_qps]
    summary = summarize(overlapping, END_TO_END)
    assert [entry.split()[0] for entry in summary["unresolved"]] == ["queries_per_s"]
    assert summary["flags"] == []
    separated = [_pair({"queries_per_s": p, "setup_s": 2.0 * p / 100},
                       {"queries_per_s": 250.0, "setup_s": 0.5}) for p in parent_qps]
    assert summarize(separated, END_TO_END)["unresolved"] == []
    worse = [_pair({"setup_s": 2.0 * p / 100}, {"setup_s": 5.0}) for p in parent_qps]
    summary = summarize(worse, END_TO_END)
    assert [entry.split()[0] for entry in summary["unresolved"]] == ["setup_s"]
    assert [flag.split()[0] for flag in summary["flags"]] == ["setup_s"]


def _qps_pairs(parent, change):
    return [_pair({"queries_per_s": p}, {"queries_per_s": c}) for p, c in zip(parent, change)]


def test_gain_shown_needs_nine_tenths_of_the_pairs_and_the_parent_spread():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    cases = [
        ([p + 20 for p in parent[:9]] + [parent[9] - 1], True),     # 9 of 10 won
        ([p + 20 for p in parent[:9]] + [parent[9]], True),         # the tie counts for neither
        ([p + 20 for p in parent[:8]] + parent[8:], False),         # 8 of 10, two ties
        ([p + 1 for p in parent], False),                           # median gain inside the spread
    ]
    for change, shown in cases:
        summary = summarize(_qps_pairs(parent, change), END_TO_END)["queries_per_s"]
        assert summary["gain_shown"] is shown, change
    slower = summarize(_qps_pairs(parent, [p - 20 for p in parent]), END_TO_END)
    assert slower["queries_per_s"]["gain_shown"] is False


def test_gain_needs_ten_pairs_however_clear_the_wins():
    parent = [100.0, 101.0, 102.0]
    summary = summarize(_qps_pairs(parent, [p + 50 for p in parent]), END_TO_END)
    assert summary["queries_per_s"]["change_wins"] == 3
    assert summary["queries_per_s"]["gain_shown"] is False
    assert summary["queries_per_s"]["gain_reason"].startswith("3 pairs")


def test_lower_is_better_metric_gains_by_lower_values():
    parent = [0.020, 0.021, 0.022, 0.023, 0.024, 0.020, 0.021, 0.022, 0.023, 0.024]

    def setup_summary(change):
        pairs = [_pair({"setup_s": p}, {"setup_s": c}) for p, c in zip(parent, change)]
        return summarize(pairs, END_TO_END)["setup_s"]

    faster = setup_summary([p / 3 for p in parent])
    assert faster["change_wins"] == 10 and faster["gain_shown"] is True
    assert "gain_reason" not in faster
    slower = setup_summary([p * 3 for p in parent])
    assert slower["change_wins"] == 0 and slower["gain_shown"] is False
    assert slower["gain_reason"].startswith("won 0 of 10")
    close = setup_summary([p - 0.0001 for p in parent])
    assert close["change_wins"] == 10 and close["gain_shown"] is False
    assert close["gain_reason"].startswith("median gain")
    # every end-to-end metric is judged, each by its own direction
    assert all("gain_shown" in summarize([_pair({}, {})] * 10, END_TO_END)[m["name"]]
               for m in END_TO_END)


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], capture_output=True, text=True, check=True).stdout.strip()


def test_revisions_names_both_commits_and_the_uncommitted_paths(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("1\n")
    _git(tmp_path, "add", "a.py")
    _git(tmp_path, "commit", "-q", "-m", "first")
    first = _git(tmp_path, "rev-parse", "HEAD")
    (tmp_path / "a.py").write_text("2\n")
    _git(tmp_path, "commit", "-q", "-am", "second")
    second = _git(tmp_path, "rev-parse", "HEAD")
    assert revisions(tmp_path, "HEAD") == {
        "parent_commit": second, "change_head": second, "change_uncommitted": []}
    (tmp_path / "a.py").write_text("3\n")
    (tmp_path / "b.txt").write_text("x\n")
    compared = revisions(tmp_path, "HEAD~1")
    assert compared["parent_commit"] == first and compared["change_head"] == second
    assert compared["change_uncommitted"] == ["a.py", "b.txt"]
    with pytest.raises(SystemExit):
        revisions(tmp_path, "no-such-revision")
