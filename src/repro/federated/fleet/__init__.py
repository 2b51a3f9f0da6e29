"""Million-client federated fleet simulation (struct-of-arrays).

Layers, bottom-up:

* :mod:`.state` — columnar device state (:class:`FleetState`);
* :mod:`.sampling` — keyed per-round eligibility/sampling policies, the
  sampler of every federated loop, with the paper's hourly
  idle/charging/WiFi policy;
* :mod:`.engine` — the round decision engine, the one fault cascade of
  every chaos round; it runs per client for small cohorts and as array
  ops for large ones, bit-identically;
* :mod:`.hierarchy` — edge -> cloud quorum partition at O(edges);
* :mod:`.simulator` — decision-level chaos simulator for 1M devices;
* :mod:`.checkpoint` — round snapshots of the fleet's build key and its
  one mutable column, streamed in bounded memory.

Real clients train in :class:`repro.federated.FedAvg`, which samples
and decides its rounds through these same layers.
"""

from .checkpoint import load_fleet_checkpoint, save_fleet_checkpoint
from .engine import (OUT_BLOCKED, OUT_CORRUPT, OUT_CUT, OUT_DROPOUT,
                     OUT_INFEASIBLE, OUT_LOST, OUT_STALE, OUT_SUCCESS,
                     OUT_TIMEOUT, OUTCOME_NAMES, RoundDecisions,
                     decide_round)
from .hierarchy import EdgeRoundSummary, EdgeTopology, edge_partition
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
    "FleetSimulator",
    "save_fleet_checkpoint",
    "load_fleet_checkpoint",
]
