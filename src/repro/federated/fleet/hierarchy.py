"""Two-tier (edge -> cloud) aggregation over fleet round decisions.

Edge aggregators partition the fleet into contiguous cohorts
(``FleetState.edge``).  Each edge reduces its survivors locally and
forwards one aggregate to the cloud; the cloud reduces edge summaries.
Quorum policy applies at both tiers:

* an edge *commits* when at least ``edge_quorum`` of its participants
  survive — otherwise its survivors' delivered bytes are re-booked as
  wasted and the edge aborts;
* the cloud commits when at least ``cloud_quorum`` edges committed AND
  the committed survivors total at least ``min_survivors`` — otherwise
  everything the round moved (both tiers) is waste.

All per-edge reductions are ``np.bincount`` array ops — O(edges)
memory, no per-client records — and the outputs feed
:meth:`repro.federated.CommunicationLedger.record_cohort_round`
directly.  The byte re-bookings only move bytes between delivered and
wasted, so the round's ``sent`` total is invariant under quorum
outcomes: conservation (`sent == delivered + wasted`) survives every
abort path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EdgeTopology", "EdgeRoundSummary", "edge_partition"]


@dataclass(frozen=True)
class EdgeTopology:
    """Shape and quorum policy of the edge tier."""

    num_edges: int = 1
    edge_quorum: int = 1    # survivors an edge needs to commit
    cloud_quorum: int = 1   # committed edges the cloud needs

    def __post_init__(self):
        if self.num_edges < 1:
            raise ValueError("num_edges must be at least 1")
        if self.edge_quorum < 1 or self.cloud_quorum < 1:
            raise ValueError("quorums must be at least 1")


@dataclass
class EdgeRoundSummary:
    """One round folded to per-edge columns plus tier-2 scalars.

    ``aborts`` counts aggregate discards per edge: an edge that missed
    its own quorum, or (on a cloud-level abort) a committed edge whose
    aggregate the cloud threw away.
    """

    up: np.ndarray         # delivered client uplink bytes per edge
    down: np.ndarray       # delivered client downlink bytes per edge
    wasted: np.ndarray     # wasted bytes per edge (both tiers)
    retries: np.ndarray    # client retries per edge
    aborts: np.ndarray     # aggregate discards per edge
    participants: np.ndarray  # selected clients per edge
    survivors: np.ndarray  # engine-level survivors per edge
    committed: np.ndarray  # bool: edge aggregate accepted by the cloud
    cloud_commit: bool     # the round produced a global update
    edge_up: int           # tier-2 delivered bytes, edge -> cloud
    edge_down: int         # tier-2 delivered bytes, cloud -> edge
    sent_bytes: int        # every byte on the wire, both tiers

    def ledger_args(self):
        """Positional/keyword args for ``record_cohort_round``."""
        return ((self.up, self.down, self.wasted, self.retries,
                 self.aborts),
                {"edge_up": self.edge_up, "edge_down": self.edge_down})


def edge_partition(decisions, edges, topology, model_bytes,
                   min_survivors=1):
    """Fold a :class:`RoundDecisions` into per-edge quorum'd columns.

    ``edges`` is the edge assignment of each participant (aligned with
    ``decisions.rows``); ``min_survivors`` is the global quorum
    (``RobustnessPolicy.min_quorum`` in the simulator).
    """
    num_edges = topology.num_edges
    edges = np.asarray(edges, dtype=np.int64)
    if edges.shape != decisions.rows.shape:
        raise ValueError("edges must align with decisions.rows")
    if edges.size and (int(edges.min()) < 0
                       or int(edges.max()) >= num_edges):
        raise ValueError("edge assignment out of range for the topology")

    def per_edge(values):
        return np.bincount(edges, weights=values,
                           minlength=num_edges).astype(np.int64)

    up = per_edge(decisions.up)
    down = per_edge(decisions.down)
    wasted = per_edge(decisions.wasted)
    retries = per_edge(decisions.retries)
    sent = per_edge(decisions.sent)
    participants = np.bincount(edges, minlength=num_edges)
    survivors = np.bincount(edges[decisions.survived],
                            minlength=num_edges)

    participating = participants > 0
    committed = participating & (survivors >= topology.edge_quorum)
    failed = participating & ~committed
    # Tier-2 wires: the cloud broadcast reaches every participating
    # edge; every committed edge uploads one aggregate.
    tier2_down = model_bytes * participating.astype(np.int64)
    tier2_up = model_bytes * committed.astype(np.int64)
    sent_bytes = int(sent.sum() + tier2_down.sum() + tier2_up.sum())

    # Edge-quorum failure: the survivors' delivered bytes bought
    # nothing, and the edge's broadcast download joins them.
    wasted = wasted + np.where(failed, up + down + tier2_down, 0)
    up = np.where(committed | ~participating, up, 0)
    down = np.where(committed | ~participating, down, 0)
    aborts = failed.astype(np.int64)

    committed_survivors = int(survivors[committed].sum())
    cloud_commit = (int(committed.sum()) >= topology.cloud_quorum
                    and committed_survivors >= int(min_survivors))
    if cloud_commit:
        # Failed edges' broadcasts were already re-booked above; only
        # committed edges' tier-2 legs count as delivered.
        edge_up = int(tier2_up.sum())
        edge_down = int(tier2_down[committed].sum())
    else:
        # Cloud abort: every committed edge's deliveries (client bytes
        # and both tier-2 legs) are waste too.
        wasted = wasted + np.where(committed,
                                   up + down + tier2_down + tier2_up, 0)
        up = np.zeros(num_edges, dtype=np.int64)
        down = np.zeros(num_edges, dtype=np.int64)
        aborts = aborts + committed.astype(np.int64)
        edge_up = 0
        edge_down = 0
        committed = np.zeros(num_edges, dtype=bool)
    return EdgeRoundSummary(
        up=up, down=down, wasted=wasted, retries=retries, aborts=aborts,
        participants=participants.astype(np.int64),
        survivors=survivors.astype(np.int64), committed=committed,
        cloud_commit=cloud_commit, edge_up=edge_up, edge_down=edge_down,
        sent_bytes=sent_bytes)
