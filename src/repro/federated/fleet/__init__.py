"""Million-client federated fleet simulation (struct-of-arrays).

Layers, bottom-up:

* :mod:`.state` — columnar device state (:class:`FleetState`);
* :mod:`.sampling` — keyed per-round eligibility/sampling policies;
* :mod:`.engine` — the round decision engine, the one fault cascade of
  every FedAvg loop; it runs per client for small cohorts and as array
  ops for large ones, bit-identically;
* :mod:`.hierarchy` — edge -> cloud quorum aggregation at O(edges);
* :mod:`.simulator` — decision-level chaos simulator for 1M devices;
* :mod:`.checkpoint` — streaming, bounded-memory round snapshots;
* :mod:`.adapter` — real object clients on the same round path, with
  the edge tier and keyed sampling.
"""

from .adapter import FleetFedAvg
from .checkpoint import (load_fleet_checkpoint, load_fleet_state,
                         save_fleet_checkpoint)
from .engine import (OUT_BLOCKED, OUT_CORRUPT, OUT_CUT, OUT_DROPOUT,
                     OUT_INFEASIBLE, OUT_LOST, OUT_STALE, OUT_SUCCESS,
                     OUT_TIMEOUT, OUTCOME_NAMES, RoundDecisions,
                     decide_round)
from .hierarchy import (EdgeRoundSummary, EdgeTopology, edge_partition,
                        hierarchical_average)
from .sampling import SAMPLING_POLICIES, sample_clients
from .simulator import FleetSimulator
from .state import COLUMNS, LINK_TIERS, FleetState

__all__ = [
    "COLUMNS",
    "LINK_TIERS",
    "FleetState",
    "SAMPLING_POLICIES",
    "sample_clients",
    "OUT_SUCCESS",
    "OUT_BLOCKED",
    "OUT_INFEASIBLE",
    "OUT_CUT",
    "OUT_TIMEOUT",
    "OUT_DROPOUT",
    "OUT_STALE",
    "OUT_CORRUPT",
    "OUT_LOST",
    "OUTCOME_NAMES",
    "RoundDecisions",
    "decide_round",
    "EdgeTopology",
    "EdgeRoundSummary",
    "edge_partition",
    "hierarchical_average",
    "FleetSimulator",
    "save_fleet_checkpoint",
    "load_fleet_checkpoint",
    "load_fleet_state",
    "FleetFedAvg",
]
