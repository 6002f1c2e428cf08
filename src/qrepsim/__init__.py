"""Discrete-event simulator of replication strategies for unstructured P2P
overlays: learning-driven site selection plus owner/path/random baselines.
"""

from .errors import (CompareError, ConfigurationError, PlacementError,
                     QRepSimError)
from .model import (Network, Overlay, generate_topology, place_initial_objects,
                    sample_node_attributes)
from .qrep import QRepParams
from .search import QueryOutcome, WalkContext
from .sim import MetricsRow, SimConfig, Simulation, TopologyConfig

__version__ = "0.1.0"

__all__ = [
    "CompareError", "ConfigurationError", "MetricsRow",
    "Network", "Overlay", "PlacementError", "QRepParams", "QRepSimError",
    "QueryOutcome", "SimConfig", "Simulation", "TopologyConfig", "WalkContext",
    "generate_topology", "place_initial_objects", "sample_node_attributes",
]
