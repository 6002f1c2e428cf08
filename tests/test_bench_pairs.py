"""tools/bench_pairs.py summarises seed-paired runs and flags regressions."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import summarize  # noqa: E402

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
