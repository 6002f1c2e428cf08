"""The benchmark's contract with the simulator, checked on two small runs.

perfbench rebinds names in `sim`, `qrep` and `baselines` and wraps several
of them with positional signatures. Running its tracer and recorder here
makes a rename or a changed signature fail the suite, not only the
benchmark.
"""

import sys
from pathlib import Path

import pytest

from qrepsim import baselines, qrep, sim
from qrepsim.qrep import QRepParams
from qrepsim.sim import SimConfig, Simulation, TopologyConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import Recorder  # noqa: E402
from run import patched  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = {"sim": sim, "qrep": qrep, "baselines": baselines}


@pytest.mark.parametrize("strategy,work", [
    ("qrep", ("qrep.select_target_sites.selected", "qrep.evict_for_space.evicted",
              "baselines.evict_for_space.evicted", "search.hello_sweep.responders")),
    ("path", ("baselines.path_replicate.placed", "baselines.evict_for_space.evicted")),
])
def test_traced_and_recorded_run_is_correct(strategy, work):
    config = SimConfig(node_count=120, queries_per_node=25, object_count=12,
                       metrics_window_queries=500, seed=21, requester_copy=True,
                       strategy=strategy)
    tracer, recorder = Tracer(), Recorder(config)
    with patched(tracer.points(MODULES) + recorder.points(MODULES)):
        simulation = Simulation(config, QRepParams(delta=60.0, hello_ttl=3),
                                TopologyConfig(storage_min=2.0, storage_max=4.0),
                                check_invariants=True)
        recorder.adjacency = simulation.net.overlay.adjacency_sets()
        rows = simulation.run()
    assert recorder.finish(simulation, rows, checked=True) == 0
    assert recorder.messages == []
    assert tracer.counts["search.run_query.calls"] == len(recorder.hops) > 0
    for key in work:
        assert tracer.counts[key] > 0, key
