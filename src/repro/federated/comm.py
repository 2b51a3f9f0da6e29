"""Communication accounting for distributed training.

The headline claim reproduced from Sec. II-B is that federated averaging
"is able to use 10-100x less communication compared to a naively
distributed SGD" — which makes byte-level bookkeeping a first-class
citizen of the simulation.  Under fault injection (:mod:`repro.faults`)
the ledger additionally tracks *wasted* bytes — traffic spent on
attempts that timed out, were lost mid-upload, or were rejected by the
server — plus retry and abort counters, so the cost of unreliability is
as visible as the cost of success.

One byte convention holds for every recorder: each byte a round puts on
the wire is booked exactly once, as delivered (``up``/``down``, and
``edge_up``/``edge_down`` for the second aggregation tier) if the
server used it, or as ``wasted`` otherwise.  So delivered plus wasted
(:attr:`RoundTraffic.sent`) is every byte the round put on the wire,
and the totals add up the same way.

Two recording granularities share one ledger:

* :meth:`CommunicationLedger.record_round` — flat per-round scalars,
  from FedSGD, FedAvg and selective SGD;
* :meth:`CommunicationLedger.record_cohort_round` — per-edge arrays
  from the hierarchical fleet simulator (:mod:`repro.federated.fleet`).
  The ledger books their sums as the same per-round scalar record and
  keeps neither per-edge nor per-client traffic, so its memory is
  independent of fleet size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CommunicationLedger",
    "RoundTraffic",
    "state_bytes",
    "sparse_update_bytes",
]

BYTES_PER_VALUE = 4   # updates are shipped as float32
BYTES_PER_INDEX = 4   # sparse updates carry an int32 coordinate per value


def state_bytes(state):
    """Wire size of a dense model state (dict of ndarrays)."""
    return int(sum(np.asarray(v).size for v in state.values()) * BYTES_PER_VALUE)


def sparse_update_bytes(num_values):
    """Wire size of a sparse (index, value) gradient upload."""
    return int(num_values * (BYTES_PER_VALUE + BYTES_PER_INDEX))


class RoundTraffic(NamedTuple):
    """One round's traffic record.

    A tuple subclass so legacy callers indexing ``rounds[i][0]`` /
    ``rounds[i][1]`` (up, down) keep working.  ``edge_up``/``edge_down``
    are the second aggregation tier's bytes (edge aggregator <-> cloud)
    and stay zero for flat single-tier rounds, so pre-hierarchy records
    round-trip unchanged.
    """

    up: int
    down: int
    wasted: int = 0
    retries: int = 0
    aborts: int = 0
    edge_up: int = 0
    edge_down: int = 0

    @property
    def delivered(self):
        """Bytes that completed end-to-end and were used, both tiers."""
        return self.up + self.down + self.edge_up + self.edge_down

    @property
    def sent(self):
        """Every byte the round put on the wire: each was booked once,
        as delivered or as wasted."""
        return self.delivered + self.wasted


@dataclass
class CommunicationLedger:
    """Accumulates per-round uplink/downlink traffic and fault overhead."""

    uplink_bytes: int = 0
    downlink_bytes: int = 0
    wasted_bytes: int = 0
    retries: int = 0
    aborts: int = 0
    edge_uplink_bytes: int = 0
    edge_downlink_bytes: int = 0
    rounds: list = field(default_factory=list)

    def record_round(self, up, down, wasted=0, retries=0, aborts=0,
                     edge_up=0, edge_down=0):
        """Log one round's traffic and update the running totals.

        Each byte is booked once.  ``up``/``down`` count transfers the
        server used; ``wasted`` counts every other byte on the wire:
        failed attempts, lost uploads, server-rejected (corrupt or
        stale) updates, and a quorum-aborted round's deliveries.
        """
        record = RoundTraffic(int(up), int(down), int(wasted),
                              int(retries), int(aborts),
                              int(edge_up), int(edge_down))
        self.uplink_bytes += record.up
        self.downlink_bytes += record.down
        self.wasted_bytes += record.wasted
        self.retries += record.retries
        self.aborts += record.aborts
        self.edge_uplink_bytes += record.edge_up
        self.edge_downlink_bytes += record.edge_down
        self.rounds.append(record)

    def record_cohort_round(self, up, down, wasted, retries, aborts,
                            edge_up=0, edge_down=0):
        """Log one hierarchical round from per-edge arrays.

        Each of ``up``/``down``/``wasted``/``retries``/``aborts`` is a
        1-D array with one entry per edge aggregator; ``edge_up``/
        ``edge_down`` are the round's tier-2 byte scalars.  The arrays'
        sums are booked through :meth:`record_round`, under its
        one-booking rule, as one flat :class:`RoundTraffic` record.
        """
        columns = [np.asarray(values, dtype=np.int64)
                   for values in (up, down, wasted, retries, aborts)]
        for name, column in zip(("up", "down", "wasted", "retries",
                                 "aborts"), columns):
            if column.ndim != 1:
                raise ValueError(
                    "cohort column {!r} must be 1-D (one entry per "
                    "edge)".format(name))
        if len({column.shape[0] for column in columns}) != 1:
            raise ValueError("cohort columns must share one edge count")
        self.record_round(*(int(column.sum()) for column in columns),
                          edge_up=edge_up, edge_down=edge_down)

    @property
    def total_bytes(self):
        return self.uplink_bytes + self.downlink_bytes

    @property
    def edge_bytes(self):
        """Tier-2 (edge aggregator <-> cloud) delivered bytes."""
        return self.edge_uplink_bytes + self.edge_downlink_bytes

    def total_megabytes(self):
        return self.total_bytes / 1e6

    def wasted_fraction(self):
        """Wasted bytes relative to all bytes put on the wire."""
        moved = self.total_bytes + self.edge_bytes + self.wasted_bytes
        return self.wasted_bytes / moved if moved else 0.0

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-serialisable snapshot (see :mod:`repro.federated.checkpoint`)."""
        return {
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "wasted_bytes": self.wasted_bytes,
            "retries": self.retries,
            "aborts": self.aborts,
            "edge_uplink_bytes": self.edge_uplink_bytes,
            "edge_downlink_bytes": self.edge_downlink_bytes,
            "rounds": [list(r) for r in self.rounds],
        }

    @classmethod
    def from_dict(cls, data):
        ledger = cls(
            uplink_bytes=int(data["uplink_bytes"]),
            downlink_bytes=int(data["downlink_bytes"]),
            wasted_bytes=int(data.get("wasted_bytes", 0)),
            retries=int(data.get("retries", 0)),
            aborts=int(data.get("aborts", 0)),
            edge_uplink_bytes=int(data.get("edge_uplink_bytes", 0)),
            edge_downlink_bytes=int(data.get("edge_downlink_bytes", 0)),
        )
        ledger.rounds = [RoundTraffic(*map(int, r))
                         for r in data.get("rounds", [])]
        return ledger
