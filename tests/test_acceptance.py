"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Formula checks are exact to 1e-9 against independently coded oracles; the
trend criteria run the calibrated desk-scale configurations (1000 nodes)
with frozen seeds, so every verdict here is reproducible bit for bit.
Criterion 9 states the paper's claim where the arms do not saturate; it
fails as measured, so it is marked as an expected failure.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qrepsim.cli import main, parse_config
from qrepsim.qrep import (QRepParams, compute_reward, init_q_value,
                          select_target_sites, update_popularities,
                          update_q_down, update_q_placed)
from qrepsim.sim import SimConfig, Simulation, TopologyConfig

from helpers import build_network

TOL = 1e-9
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- criterion 1: formula oracles -------------------------------------------------

def test_criterion_1_formula_oracles():
    rng = random.Random(1001)
    params = QRepParams()
    worst = 0.0

    # popularity update: pf' = pf + eta*(rq/nq)*100, counters reset
    for _ in range(25):
        eta = rng.uniform(0.05, 0.95)
        pf0 = rng.uniform(0, 50)
        nq = rng.randrange(1, 200)
        rq = rng.randrange(0, nq + 1)
        net = build_network({0: []}, n_objects=1)
        net.store_object(0, 0, 0)
        net.pf[0, 0] = pf0
        net.rq[0][0], net.n_q[0] = rq, nq
        update_popularities(net, 0, QRepParams(eta=eta))
        expected = pf0 + eta * (rq / nq) * 100.0
        worst = max(worst, abs(net.pf[0, 0] - expected))

    # worked examples from the contract
    net = build_network({0: []}, n_objects=1)
    net.store_object(0, 0, 0)
    net.rq[0][0], net.n_q[0] = 5, 50
    update_popularities(net, 0, QRepParams(eta=0.5))
    worst = max(worst, abs(net.pf[0, 0] - 5.0))
    net.pf[0, 0] = 5.0
    net.rq[0][0], net.n_q[0] = 50, 50
    update_popularities(net, 0, QRepParams(eta=0.5))
    worst = max(worst, abs(net.pf[0, 0] - 55.0))

    # initial q-value: (bw/b_min + s/s_min) * 100
    for _ in range(25):
        p = QRepParams(b_min=rng.uniform(1, 100), s_min=rng.uniform(0.5, 40))
        bw, savbl = rng.uniform(0, 2000), rng.uniform(0, 200)
        expected = (bw / p.b_min + savbl / p.s_min) * 100.0
        worst = max(worst, abs(init_q_value(bw, savbl, p) - expected))
    worst = max(worst, abs(init_q_value(params.b_min, params.s_min, params) - 200.0))
    worst = max(worst, abs(init_q_value(2 * params.b_min, 3 * params.s_min, params) - 500.0))

    # reward: (dd/(d_min w1) + bw/(b_min w2) + s/(s_min w3)) * 100
    for _ in range(25):
        w2 = rng.uniform(0.05, 0.3)
        w1 = rng.uniform(w2 + 0.01, (1 - w2) - (w2 + 0.01))
        p = QRepParams(w1=w1, w2=w2, w3=1 - w1 - w2,
                       b_min=rng.uniform(1, 100), s_min=rng.uniform(0.5, 20),
                       d_min=rng.uniform(1, 6))
        dd, bw, savbl = rng.randrange(0, 20), rng.uniform(0, 2000), rng.uniform(0, 100)
        expected = (dd / (p.d_min * p.w1) + bw / (p.b_min * p.w2)
                    + savbl / (p.s_min * p.w3)) * 100.0
        worst = max(worst, abs(compute_reward(dd, bw, savbl, p) - expected))
    p = QRepParams(w1=0.4, w2=0.2, w3=0.4)
    worst = max(worst, abs(compute_reward(p.d_min, p.b_min, p.s_min, p) - 1000.0))

    # q update: placed / punished (a holder is never probed and keeps its value)
    for _ in range(25):
        q = rng.uniform(0, 30000)
        rho = rng.uniform(0, 30000)
        alpha = rng.uniform(0.01, 0.99)
        worst = max(worst, abs(update_q_placed(q, rho, alpha) - (q + alpha * (rho - q))))
        worst = max(worst, abs(update_q_down(q, alpha) - q * (1 - alpha)))
    worst = max(worst, abs(update_q_placed(200.0, 1000.0, 0.5) - 600.0))
    worst = max(worst, abs(update_q_down(200.0, 0.5) - 100.0))

    _report(1, "formula oracles", worst <= TOL, f"(max |err| = {worst:.2e})")


# -- criterion 2: selection oracle --------------------------------------------------

def test_criterion_2_selection_oracle():
    rng = random.Random(2002)
    failures = 0
    for _ in range(200):
        n = 25
        net = build_network({i: [(i + 1) % n] for i in range(n)},
                            n_objects=1, capacity=5.0)
        size = rng.randrange(1, 21)
        peers = rng.sample(range(1, n), size)
        table = {p: rng.uniform(0, 1000) for p in peers}
        net.q_tables[0] = dict(table)
        excluded = {}
        for p in peers:
            mode = rng.random()
            if mode < 0.15:
                net.up[p] = False
                excluded[p] = "down"
            elif mode < 0.3:
                net.store_object(p, 0, 0)
                excluded[p] = "holds_copy"

        mean = sum(table.values()) / len(table)
        probe_order = sorted((p for p, q in table.items() if q >= mean),
                             key=lambda p: (-table[p], p))
        expected_probes = [(p, excluded.get(p, "selected")) for p in probe_order
                           if excluded.get(p) != "holds_copy"]   # holders go unprobed
        expected = [p for p in probe_order if p not in excluded]
        targets, probes = select_target_sites(net, 0, 0, QRepParams(), now_ms=1_000)
        if targets != expected or probes != expected_probes:
            failures += 1
    _report(2, "AvgQ selection equals brute force", failures == 0,
            f"({failures} mismatches in 200 snapshots)")


# -- criterion 3: invariants over a full churned run ----------------------------------

@pytest.mark.slow
def test_criterion_3_invariant_suite():
    cfg = SimConfig(seed=77)       # 1000 nodes, 100k scheduled queries, churn
    sim = Simulation(cfg, check_invariants=True)
    rows = sim.run()
    checker = sim.checker
    ok = (checker.violations == [] and checker.events_checked > 50_000
          and len({r.up_node_count for r in rows}) == 1)
    _report(3, "invariant suite (storage, churn, pf/q >= 0)", ok,
            f"({checker.events_checked} events checked, "
            f"{len(checker.violations)} violations)")


# -- criterion 4: availability growth --------------------------------------------------

@pytest.mark.slow
def test_criterion_4_availability_trend():
    topo = TopologyConfig(storage_min=120.0, storage_max=200.0)   # ample
    params = QRepParams(delta=200.0)                              # p_th = 5
    base = SimConfig(object_count=100, requester_copy=False)
    grew = 0
    runtimes = []
    for seed in (301, 302, 303, 304, 305):
        start = time.time()
        sim = Simulation(replace(base, seed=seed), params, topo, check_invariants=True)
        rows = sim.run()
        runtimes.append(time.time() - start)
        assert sim.checker.violations == [], f"seed {seed}: {sim.checker.violations[:3]}"
        replicas = [r.total_replicas for r in rows]
        nondecreasing = all(b >= a for a, b in zip(replicas, replicas[1:]))
        assert nondecreasing, f"seed {seed}: replica count decreased"
        grew += replicas[-1] > replicas[0]
    ok = grew >= 4 and max(runtimes) < 120.0
    _report(4, "object availability grows", ok,
            f"({grew}/5 seeds strictly grew, slowest run {max(runtimes):.1f}s)")


# -- criteria 5 and 6: comparative trends ----------------------------------------------

_TREND_PARAMS = QRepParams(eta=0.9, delta=30.0, hello_ttl=4, hello_walkers=8)
_TREND_BASE = SimConfig(queries_per_node=60, object_count=25,
                        requester_copy=True, metrics_window_queries=4000)


def _final_success(cfg, params=_TREND_PARAMS):
    """Final-window success rate of a run with the invariant checker on; the
    checker must stay silent."""
    sim = Simulation(cfg, params, TopologyConfig(), check_invariants=True)
    rows = sim.run()
    assert sim.checker.violations == [], \
        f"{cfg.strategy} ttl {cfg.ttl} seed {cfg.seed}: {sim.checker.violations[:3]}"
    return rows[-1].success_rate


@pytest.mark.slow
def test_criterion_5_queries_finished_vs_ttl():
    seeds = (101, 102, 103, 104, 105)
    points_ok = ties = 0
    details = []
    for ttl in (2, 3, 4, 5, 6, 7, 8):
        mean_q = np.mean([_final_success(replace(_TREND_BASE, ttl=ttl,
                                                 strategy="qrep", seed=s))
                          for s in seeds])
        mean_p = np.mean([_final_success(replace(_TREND_BASE, ttl=ttl,
                                                 strategy="path", seed=s))
                          for s in seeds])
        points_ok += mean_q >= mean_p
        ties += mean_q == mean_p                  # saturated: both arms equal
        details.append(f"ttl{ttl}:{mean_q - mean_p:+.4f}")
    _report(5, "qrep >= path across TTLs", points_ok >= 6,
            f"({points_ok}/7 points, {ties} tie exactly, diffs {' '.join(details)})")


@pytest.mark.slow
def test_criterion_6_churn_resilience():
    seeds = (201, 202, 203, 204, 205)
    base = replace(_TREND_BASE, ttl=6)
    light = np.mean([_final_success(replace(base, seed=s, initial_up_fraction=0.8))
                     for s in seeds])
    heavy = np.mean([_final_success(replace(base, seed=s, initial_up_fraction=0.6))
                     for s in seeds])
    ok = heavy >= 0.5 * light
    _report(6, "success persists under heavy churn", ok,
            f"(40% down: {heavy:.4f} vs 20% down: {light:.4f})")


# -- criterion 7: determinism ------------------------------------------------------------

def test_criterion_7_byte_identical_csv(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text("[sim]\nnode_count = 200\nqueries_per_node = 15\n"
                   "object_count = 10\nmetrics_window_queries = 500\nseed = 33\n"
                   "[qrep]\ndelta = 100\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    b1 = (out1 / "metrics_seed33.csv").read_bytes()
    b2 = (out2 / "metrics_seed33.csv").read_bytes()
    _report(7, "identical config+seed gives byte-identical CSV", b1 == b2,
            f"({len(b1)} bytes)")


# -- criterion 8: down-punishment dynamics --------------------------------------------------

def test_criterion_8_punishment_closed_form():
    ok = True
    q = 200.0
    for k in range(1, 11):                     # exact for dyadic alpha
        q = update_q_down(q, 0.5)
        ok &= q == 200.0 * 0.5 ** k
    rng = random.Random(8008)
    worst = 0.0
    for _ in range(20):
        q0 = rng.uniform(1, 10000)
        alpha = rng.uniform(0.05, 0.95)
        q = q0
        for k in range(1, 11):
            q = update_q_down(q, alpha)
            worst = max(worst, abs(q - q0 * (1 - alpha) ** k) / max(q0, 1.0))
    ok &= worst <= TOL
    _report(8, "down punishment follows q0*(1-alpha)^k", ok,
            f"(dyadic exact, generic rel err {worst:.2e})")


# -- criterion 9: learned placement where the arms do not saturate ----------------------

T_95_DF9 = 2.262                               # two-sided 95% t quantile, df 9


@pytest.mark.slow
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "measured: qrep - owner final-window success is -0.0202 [-0.0253, -0.0151] "
    "over seeds 101-110, and qrep wins 0 of 10 seeds"))
def test_criterion_9_learned_placement_beats_owner_at_point_c():
    sim_cfg, params, topo = parse_config(CONFIGS / "pressure.ini")
    diffs = []
    for seed in range(101, 111):
        qrep_arm, owner_arm = (
            Simulation(replace(sim_cfg, strategy=s, seed=seed), params, topo)
            .run()[-1].success_rate for s in ("qrep", "owner"))
        diffs.append(qrep_arm - owner_arm)
    mean = float(np.mean(diffs))
    half = T_95_DF9 * float(np.std(diffs, ddof=1)) / len(diffs) ** 0.5
    won = sum(d > 0 for d in diffs)
    _report(9, "qrep beats owner at point C (paired, seeds 101-110)", mean - half > 0,
            f"(qrep - owner {mean:+.4f} [{mean - half:+.4f}, {mean + half:+.4f}], "
            f"{won}/10 seeds won)")
